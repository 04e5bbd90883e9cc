from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langkit.groups import RES_GL, GroupDescriptor, so_odd, sp, unitary
from langkit.satake import (
    IDENTITY_AUT,
    AutModel,
    Eigenvalue,
    SatakeClass,
    SatakeError,
    act,
    bc_chain_check,
    eps_identities_hold,
    eps_m,
    ev,
    parse_eigenvalue,
)

FLIP = AutModel(eps=-1)
SWAP = AutModel(unit_map=(("u1", "u2"), ("u2", "u1")), eps=-1)


def res_gl(N: int) -> GroupDescriptor:
    return GroupDescriptor(RES_GL, N)


def twisted_shift(cls: SatakeClass, shift2: int) -> SatakeClass:
    """Multiply every eigenvalue by q^{shift2/2}, the central twist of the
    determinant with multiplicity shift2."""
    return cls.map_eigenvalues(lambda e: e.scaled(shift2=shift2))


def act_twisted(aut: AutModel, cls: SatakeClass, shift2: int) -> SatakeClass:
    """z^{-1}·a(z·class) with z = q^{shift2/2}: the normalization relation
    the twisted transport satisfies by construction."""
    return twisted_shift(twisted_shift(cls, shift2).map_eigenvalues(aut.raw), -shift2)


def test_eigenvalue_normal_form():
    e = ev("1/2", ["u2", "u1", ("u2", -1)])
    assert e.unit == (("u1", 1),)
    assert e.serialize() == "q^1/2*u1"
    assert parse_eigenvalue("q^1/2*u1") == e
    assert parse_eigenvalue("-q^-3/2*u1^-1*u2").serialize() == "-q^-3/2*u1^-1*u2"
    assert parse_eigenvalue("1") == ev()


def test_eigenvalue_inverse():
    e = ev("1/2", "u1")
    assert (e * e.inverse()) == ev()


def test_eps_m_values():
    assert eps_m(FLIP, 3) == 1
    assert eps_m(FLIP, 2) == -1
    assert eps_m(IDENTITY_AUT, 2) == 1


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("r", range(0, 7))
@pytest.mark.parametrize("e", (1, -1))
def test_eps_identities(n, r, e):
    assert eps_identities_hold(AutModel(eps=e), n, r)


class TestAct:
    def test_plain_family_unchanged(self):
        cls = SatakeClass(
            (ev("1/2", "u1"), ev(0, "u2"), ev("-1/2", [("u1", -1)])), res_gl(3)
        )
        assert act(FLIP, cls) == cls

    def test_even_family_half_exponents_unchanged(self):
        cls = SatakeClass((ev("1/2", "u1"), ev("-1/2", [("u1", -1)])), res_gl(2))
        assert act(FLIP, cls) == cls

    def test_even_family_integer_exponents_flip(self):
        cls = SatakeClass((ev(0, "u1"), ev(0, [("u1", -1)])), res_gl(2))
        assert all(e.sign == -1 for e in act(FLIP, cls).eigenvalues)

    def test_identity(self):
        cls = SatakeClass((ev("3/2", "u1"),), sp(1))
        assert act(IDENTITY_AUT, cls) == cls

    def test_odd_orthogonal_uses_twisted_rule(self):
        # the similitude-cover normalization gives the same rule as even GL
        cls = SatakeClass((ev(0, "u1"), ev(0, [("u1", -1)])), so_odd(1))
        assert all(e.sign == -1 for e in act(FLIP, cls).eigenvalues)
        half = SatakeClass((ev("1/2", "u1"), ev("-1/2", [("u1", -1)])), so_odd(1))
        assert act(FLIP, half) == half

    def test_units_permuted(self):
        cls = SatakeClass((ev(0, "u1"), ev(0, "u2")), res_gl(2))
        out = act(SWAP, cls)
        assert sorted(e.serialize() for e in out.eigenvalues) == ["-u1", "-u2"]

    @pytest.mark.parametrize("family", [sp(2), res_gl(2), res_gl(3), so_odd(2), unitary(3)])
    def test_composition_law(self, family):
        cls = SatakeClass(
            (ev("1/2", "u1"), ev(1, "u2"), ev("-3/2", [("u2", -1)])), family
        )
        assert act(FLIP.compose(SWAP), cls) == act(FLIP, act(SWAP, cls))

    def test_preserves_inversion_stability(self):
        cls = SatakeClass((ev("1/2", "u1"), ev("-1/2", [("u1", -1)])), res_gl(2))
        assert cls.is_inversion_stable()
        assert act(FLIP, cls).is_inversion_stable()
        assert act(SWAP, cls).is_inversion_stable()


class TestTwistedShift:
    def test_determinant_twist(self):
        cls = SatakeClass((ev("1/2", "u1"), ev("-1/2", [("u1", -1)])), res_gl(2))
        out = twisted_shift(cls, 1)
        assert [e.q_exp for e in out.eigenvalues] == [Fraction(0), Fraction(1)]

    def test_zero_twist_identity(self):
        cls = SatakeClass((ev("1/2", "u1"),), res_gl(1))
        assert twisted_shift(cls, 0) == cls

    def test_plain_families_match_zero_twist_on_integral_classes(self):
        evs = (ev(1, "u1"), ev(-1, [("u1", -1)]), ev(0, "u2"))
        for family in (sp(2), res_gl(3), unitary(3)):
            cls = SatakeClass(evs, family)
            assert act(FLIP, cls) == act_twisted(FLIP, cls, 0)

    def test_relation_even_family(self):
        # the twisted transport equals untwist∘raw∘twist for even families
        for evs in [(ev(0, "u1"), ev(0, [("u1", -1)])), (ev("1/2", "u1"), ev("-1/2", [("u1", -1)]))]:
            cls = SatakeClass(evs, res_gl(2))
            assert act(FLIP, cls) == act_twisted(FLIP, cls, 1)

    def test_similitude_scale(self):
        cls = SatakeClass((ev(0, "u1"), ev(0, [("u1", -1)])), so_odd(1))
        out = twisted_shift(cls, 1)
        assert {e.q_exp for e in out.eigenvalues} == {Fraction(1, 2)}


class TestChain:
    @pytest.mark.parametrize("e", (1, -1))
    def test_grid(self, e):
        for n in range(1, 7):
            for r in range(0, 7):
                ok, steps, mismatch = bc_chain_check(n, r, AutModel(eps=e))
                assert ok, (n, r, e, mismatch)
                assert steps

    def test_with_unit_permutation_and_shifts(self):
        pi_units = [ev("1/2", "u1"), ev("-1/2", "u2")]
        rho_units = [ev(0, "w1")]
        ok, _, mismatch = bc_chain_check(2, 1, SWAP, pi_units=pi_units, rho_units=rho_units)
        assert ok, mismatch

    def test_trivial_aut(self):
        ok, _, _ = bc_chain_check(2, 1, IDENTITY_AUT)
        assert ok


@given(
    st.integers(1, 4),
    st.integers(0, 4),
    st.sampled_from((1, -1)),
    st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_chain_random_units(n, r, e, swap_units):
    unit_map = tuple((f"u{i}", f"u{(i % n) + 1}") for i in range(1, n + 1)) if swap_units else ()
    aut = AutModel(unit_map=unit_map, eps=e)
    ok, _, mismatch = bc_chain_check(n, r, aut)
    assert ok, mismatch


def test_eigenvalue_holds_a_doubled_int_exponent():
    assert ev("3/2", "u1").q2 == 3
    assert ev("3/2", "u1").q_exp == Fraction(3, 2)
    for bad in (Fraction(1, 2), "1", True, 0.5):
        with pytest.raises(SatakeError, match="must be an int"):
            Eigenvalue(bad)
    with pytest.raises(SatakeError, match="q-exponent 1/3 is not half-integral"):
        ev("1/3")
    with pytest.raises(SatakeError, match="zero denominator"):
        parse_eigenvalue("q^1/0*u1")
    # the exponent is checked once, on the sum of the q tokens
    assert parse_eigenvalue("q^1/3*q^1/6") == ev("1/2")


@pytest.mark.parametrize(
    "unit",
    [
        "u1",
        ("u1",),
        ["u1"],
        [("u1", 1)],
        (["u1", 1],),
        (("u1", 0),),
        (("u2", 1), ("u1", 1)),
        (("u1", 1), ("u1", 2)),
        (("u1", True),),
        (("u1", 1.0),),
        ((1, 1),),
        (("u1", 1, 2),),
        (1, 2),
        ("u2", "u1"),
    ],
)
def test_eigenvalue_takes_only_normal_form_units(unit):
    """Unsorted, repeated, zero or non-int exponents and tokens are refused,
    not rebuilt; `ev` is where a word is normalized."""
    with pytest.raises(SatakeError, match="unit must be a sorted tuple"):
        Eigenvalue(0, unit)
    assert Eigenvalue(0, (("u1", 2), ("u2", -1))).serialize() == "u1^2*u2^-1"


@pytest.mark.parametrize("eps", [{"v": 2}, {"v": -1}, (("v", -1),), 2, 0, True, -1.0, "1"])
def test_aut_model_takes_only_a_sign(eps):
    """eps is the int 1 or -1; a per-place mapping, another int, a bool or a
    float is refused (a dict {"v": 2} used to be accepted and read as +1)."""
    with pytest.raises(SatakeError, match="eps must be the int 1 or -1"):
        AutModel(eps=eps)


def test_aut_model_eps_is_the_same_at_every_place():
    for e in (1, -1):
        aut = AutModel((("u1", "u2"), ("u2", "u1")), e)
        assert aut.eps == e
        assert aut.compose(FLIP).eps == -e
        assert aut.compose(aut).eps == 1


def test_aut_model_drops_fixed_pairs():
    """Equal models act alike: the unit swap composed with itself is the identity."""
    units = AutModel((("u1", "u2"), ("u2", "u1")))
    assert units.compose(units) == IDENTITY_AUT
    assert SWAP.compose(SWAP) == IDENTITY_AUT
    assert AutModel((("u1", "u1"),)) == IDENTITY_AUT
    assert AutModel((("u3", "u3"), ("u2", "u1"), ("u1", "u2"))).unit_map == (
        ("u1", "u2"),
        ("u2", "u1"),
    )


def test_aut_model_unit_map_is_a_bijection():
    """The images are exactly the symbols mapped: a map into an unlisted
    symbol, which is fixed, is refused, as is a repeated image."""
    for unit_map in (
        (("u1", "u2"),),
        (("u1", "u2"), ("u2", "u3")),
        (("u1", "u2"), ("u2", "u2")),
    ):
        with pytest.raises(SatakeError, match="unit_map must be a bijection"):
            AutModel(unit_map)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize(
    "unit", [(), (("u1", 1),), (("u1", -1), ("u2", 1)), (("x_1", 3), ("y", -2))]
)
def test_parse_inverts_serialize(sign, unit):
    for q2 in range(-12, 13):
        e = Eigenvalue(q2, unit, sign)
        assert parse_eigenvalue(e.serialize()) == e
        assert e.q_exp == Fraction(q2, 2)


def _fraction_chain(n, r, eps, pi_units, rho_units) -> bool:
    """Fraction re-derivation of `bc_chain_check` for an identity unit map.

    An eigenvalue is (q-exponent as a Fraction, symbol, sign); the plain
    transport twists by eps exactly when 2e is odd.
    """
    half = Fraction(1, 2)

    def e_m(m):
        return eps ** ((m - 1) % 2)

    def raw(evs, scale):
        return [(q, u, s * scale * (eps if int(2 * q) % 2 else 1)) for q, u, s in evs]

    def shifted(evs):
        return [(q + half, u, s) for q, u, s in evs] + [(q - half, u, s) for q, u, s in evs]

    N = 2 * n + r
    lhs = raw(shifted(pi_units) + rho_units, e_m(N))
    rhs = shifted(raw(pi_units, e_m(n) * e_m(n + r))) + raw(rho_units, e_m(N))
    return sorted(lhs) == sorted(rhs)


def _fraction_identities(eps, n, r) -> bool:
    """e_N·e_n·e_0 = e_{n+r} and e_N·e_r = 1, with e_m = eps^{(m-1) mod 2}."""
    e_m = [eps ** ((m - 1) % 2) for m in range(2 * n + r + 1)]
    N = 2 * n + r
    return e_m[N] * e_m[n] * e_m[0] == e_m[n + r] and e_m[N] * e_m[r] == 1


@pytest.mark.parametrize("e", (1, -1))
def test_chain_agrees_with_fraction_rederivation(e):
    """The selftest grid with its default units, and with half-integral
    exponents and signs on the first unit of each factor."""
    aut = AutModel(eps=e)
    for n in range(1, 7):
        for r in range(0, 7):
            assert eps_identities_hold(aut, n, r) == _fraction_identities(e, n, r)
            pi = [(Fraction(0), f"u{i}", 1) for i in range(1, n + 1)]
            rho = [(Fraction(0), f"w{j}", 1) for j in range(1, r + 1)]
            assert bc_chain_check(n, r, aut)[0] == _fraction_chain(n, r, e, pi, rho)
            pi[0] = (Fraction(1, 2), "u1", -1)
            rho[:1] = [(Fraction(-3, 2), "w1", 1)] if r else []
            ok, _, _ = bc_chain_check(
                n,
                r,
                aut,
                pi_units=[ev(q, u, s) for q, u, s in pi],
                rho_units=[ev(q, u, s) for q, u, s in rho],
            )
            assert ok == _fraction_chain(n, r, e, pi, rho)


@pytest.mark.parametrize("family", [res_gl(2), res_gl(3), so_odd(1), sp(1)])
@pytest.mark.parametrize("aut", [FLIP, SWAP, IDENTITY_AUT])
def test_transport_signs_agree_with_fraction_rule(family, aut):
    """`raw` twists by eps when 2e is odd; `act` on a twisted family by
    eps^{2e-1}, read off 2e as a Fraction product."""
    eps = aut.eps
    twisted = family.family != "Sp" and (family.family == "SOodd" or family.size % 2 == 0)
    for k in range(-6, 7):
        q = Fraction(k, 2)
        e = ev(q, "u1", -1)
        assert aut.raw(e).sign == -1 * (eps if int(2 * q) % 2 == 1 else 1)
        want = -1 * (eps if twisted and (int(2 * q) - 1) % 2 == 1 else 1)
        assert act(aut, SatakeClass((e,), family)).eigenvalues[0].sign == want
