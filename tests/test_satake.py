from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langkit.groups import RES_GL, GroupDescriptor, so_odd, sp, unitary
from langkit.rationals import doubled, rat, rat_str
from langkit.satake import (
    AutModel,
    Eigenvalue,
    SatakeClass,
    SatakeError,
    _normalize_unit,
    act,
    bc_chain_check,
    eps_identities_hold,
    eps_m,
    parse_eigenvalue,
)

IDENTITY_AUT = AutModel()
FLIP = AutModel(eps=-1)
SWAP = AutModel(unit_map=(("u1", "u2"), ("u2", "u1")), eps=-1)


def ev(q_exp=0, unit=(), sign=1) -> Eigenvalue:
    """sign·q^{q_exp}·unit for a half-integral q_exp, with ``unit`` one token
    or a list of tokens and (symbol, exponent) pairs in any order."""
    return Eigenvalue(
        doubled(rat(q_exp)), _normalize_unit([unit] if isinstance(unit, str) else unit), sign
    )


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
        flip_after_swap = AutModel(SWAP.unit_map, eps=1)  # the units swap, the signs cancel
        assert act(flip_after_swap, cls) == act(FLIP, act(SWAP, cls))

    def test_preserves_inversion_stability(self):
        cls = SatakeClass((ev("1/2", "u1"), ev("-1/2", [("u1", -1)])), res_gl(2))
        swapped = SatakeClass((ev("1/2", "u2"), ev("-1/2", [("u2", -1)])), res_gl(2))
        # each image holds the inverse q^{-e}·u^{-1} of its every eigenvalue q^e·u
        assert act(FLIP, cls) == cls
        assert act(SWAP, cls) == swapped


class TestTwistedShift:
    def test_determinant_twist(self):
        cls = SatakeClass((ev("1/2", "u1"), ev("-1/2", [("u1", -1)])), res_gl(2))
        out = twisted_shift(cls, 1)
        assert [e.q2 for e in out.eigenvalues] == [0, 2]

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
        assert {e.q2 for e in out.eigenvalues} == {1}


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
    assert parse_eigenvalue("q^3/2*u1").q2 == 3
    for bad in (Fraction(1, 2), "1", True, 0.5):
        with pytest.raises(SatakeError, match="must be an int"):
            Eigenvalue(bad)
    with pytest.raises(SatakeError, match="q-exponent 1/3 is not half-integral"):
        parse_eigenvalue("q^1/3*u1")
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
    not rebuilt; `parse_eigenvalue` is where a word is normalized."""
    with pytest.raises(SatakeError, match="unit must be a sorted tuple"):
        Eigenvalue(0, unit)
    assert Eigenvalue(0, (("u1", 2), ("u2", -1))).serialize() == "u1^2*u2^-1"


@pytest.mark.parametrize("eps", [{"v": 2}, {"v": -1}, (("v", -1),), 2, 0, True, -1.0, "1"])
def test_aut_model_takes_only_a_sign(eps):
    """eps is the int 1 or -1; a per-place mapping, another int, a bool or a
    float is refused (a dict {"v": 2} used to be accepted and read as +1)."""
    with pytest.raises(SatakeError, match="eps must be the int 1 or -1"):
        AutModel(eps=eps)


def test_apply_unit_without_moved_symbols_returns_the_unit():
    """Every unit of the transport grid (the default u_i and w_j of
    `bc_chain_check`, n, r <= 6) comes back as it is under both signs."""
    units = [((f"{sym}{i}", 1),) for sym in "uw" for i in range(1, 7)]
    for e in (1, -1):
        for u in units:
            assert AutModel(eps=e).apply_unit(u) is u


def test_apply_unit_with_moved_symbols_renormalizes():
    """A bijection cannot merge two symbols, but it can reorder them: the
    image is sorted back into normal form, exponents kept."""
    aut = AutModel(unit_map=(("a", "c"), ("c", "a")))
    assert aut.apply_unit((("a", 2), ("b", -1))) == (("b", -1), ("c", 2))
    assert aut.apply_unit((("a", 1), ("c", -1))) == (("a", -1), ("c", 1))


def test_aut_model_eps_is_the_same_at_every_place():
    for e in (1, -1):
        aut = AutModel((("u1", "u2"), ("u2", "u1")), e)
        assert aut.eps == e


def test_aut_model_drops_fixed_pairs():
    """Equal models act alike: the unit swap composed with itself is the identity."""
    assert AutModel((("u1", "u1"), ("u2", "u2"))) == IDENTITY_AUT
    assert AutModel((("u1", "u1"),)) == IDENTITY_AUT
    assert AutModel((("u3", "u3"), ("u2", "u1"), ("u1", "u2"))).unit_map == (
        ("u1", "u2"),
        ("u2", "u1"),
    )


def test_aut_model_embedding_map_has_the_unit_map_normal_form():
    """No embedding action and the identity one are one value, ``()``."""
    assert AutModel(embedding_map=(("r1", "r1"),)) == AutModel()
    swap = (("c1b", "c1"), ("c1", "c1b"))
    assert AutModel(embedding_map=swap + (("r1", "r1"),)).embedding_map == (
        ("c1", "c1b"),
        ("c1b", "c1"),
    )
    for embedding_map in ((("c1", "c1b"),), (("c1", "c1b"), ("c1b", "c1b"))):
        with pytest.raises(SatakeError, match="embedding_map must be a bijection on labels"):
            AutModel(embedding_map=embedding_map)


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
        if q2:  # the exponent renders as `rat_str` renders q2/2
            assert e.serialize().lstrip("-").startswith(f"q^{rat_str(Fraction(q2, 2))}")


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
