import itertools
from fractions import Fraction

import pytest

from langkit.arch import (
    ArchError,
    AutOnEmbeddings,
    EmbeddingSet,
    I4,
    InfChar,
    algebraicity_required,
    eps_arch,
    induced_regular,
    invariance_ratio_conjdual,
    is_disjoint,
    is_SO_regular,
    is_superregular,
    parity_of_order,
    purity_weight,
    root_number_selfdual,
    strictly_gapped,
)


def emb_real(*labels):
    return EmbeddingSet.build(real=labels)


class TestEmbeddings:
    def test_counts(self):
        emb = EmbeddingSet.build(real=("r1",), complex_pairs=(("c1", "c1b"),))
        assert emb.d_R == 1 and emb.d_C == 1 and emb.degree == 3

    def test_involution_must_be_involutive(self):
        with pytest.raises(ArchError):
            EmbeddingSet(("a", "b"), (("a", "b"), ("b", "a"), ("c", "c")))


class TestPurity:
    def test_symmetric_real(self):
        emb = emb_real("r1")
        p = InfChar((("r1", ("1/2", "-1/2")),))
        assert purity_weight(p, emb, 2) == 0

    def test_complex_weight_one(self):
        emb = EmbeddingSet.build(complex_pairs=(("c1", "c1b"),))
        p = InfChar((("c1", ("3/2", "1/2")), ("c1b", ("-5/2", "-3/2"))))
        assert purity_weight(p, emb, 2) == 1

    def test_inconsistent_pairing(self):
        emb = EmbeddingSet.build(complex_pairs=(("c1", "c1b"),))
        p = InfChar((("c1", ("1", "0")), ("c1b", ("0", "-2"))))
        with pytest.raises(ArchError):
            purity_weight(p, emb, 2)

    def test_global_sum_identity_holds_exactly(self):
        emb = EmbeddingSet.build(real=("r1",), complex_pairs=(("c1", "c1b"),))
        p = InfChar(
            (
                ("r1", ("3/2", "-3/2")),
                ("c1", ("5/2", "1/2")),
                ("c1b", ("-1/2", "-5/2")),
            )
        )
        w = purity_weight(p, emb, 2)
        assert w == 0
        total = sum(sum(p.at(label)) for label in emb.labels)
        assert 2 * total == -emb.degree * 2 * w


class TestPredicates:
    def test_superregular_boundary(self):
        assert is_superregular(("7/2", "3/2"))
        assert not is_superregular(("5/2", "3/2"))
        assert not is_superregular(("1/2",))

    def test_superregular_full_multiset(self):
        assert is_superregular(("7/2", "3/2", "-3/2", "-7/2"))

    def test_superregular_rejects_odd_closure(self):
        with pytest.raises(ArchError):
            is_superregular((1, 0, -1))

    def test_superregular_implies_distinct(self):
        vals = ("11/2", "7/2", "3/2")
        assert is_superregular(vals)
        closed = [Fraction(v) for v in vals] + [-Fraction(v) for v in vals]
        assert len(set(closed)) == len(closed)

    def test_disjoint(self):
        assert is_disjoint(("3/2", "-3/2"), ("0",))
        assert not is_disjoint(("1/2", "-1/2"), ("1",))
        assert is_disjoint(("1/2",), ())

    def test_so_regular(self):
        assert is_SO_regular((2, 0, 0, -2))
        assert is_SO_regular((2, 1, -1, -2))
        assert not is_SO_regular((2, 2, -2, -2))
        with pytest.raises(ArchError):
            is_SO_regular((1, 0, -1))

    def test_induced_regular(self):
        assert not induced_regular(("3/2", "-3/2"), ("1", "0", "-1"))
        assert induced_regular(("5/2", "-5/2"), ("1", "0", "-1"))
        assert induced_regular(("1/2", "-1/2"), ())  # 0 twice is allowed

    def test_gap_check(self):
        assert strictly_gapped(("5/2", "1/2"))
        assert not strictly_gapped(("3/2", "1/2"))

    def test_algebraicity_required(self):
        assert algebraicity_required(1, 2) == "algebraic"
        assert algebraicity_required(1, 1) == "half_algebraic"
        assert algebraicity_required(2, 0) == "half_algebraic"

    def test_selfdual_closure_stability(self):
        # closing a positive half under negation does not change the verdicts
        pos = ("9/2", "3/2")
        closed = pos + ("-3/2", "-9/2")
        assert is_superregular(pos) == is_superregular(closed)
        q = ("6", "0", "-6")
        assert is_disjoint(pos, q) == is_disjoint(closed, q)


class TestEpsArch:
    def test_displayed_values(self):
        assert str(eps_arch("real_induced", "1/2")) == "-1"
        assert str(eps_arch("complex", 1, 0)) == "i"
        assert str(eps_arch("restriction", "1/2")) == "-1"

    @pytest.mark.parametrize("a", ("1/2", "1", "3/2", "2"))
    def test_fourth_roots(self, a):
        v = eps_arch("real_induced", a)
        assert (v * v * v * v) == I4(0)
        assert (v * v) == I4(2 * (int(2 * Fraction(a)) + 1))

    def test_rejects_negative(self):
        with pytest.raises(ArchError):
            eps_arch("real_induced", "-1/2")


class TestRootNumber:
    def test_single_positive_pair(self):
        emb = emb_real("r1")
        p = InfChar((("r1", ("1/2", "-1/2")),))
        q = InfChar((("r1", ("0",)),))
        sign, cert = root_number_selfdual(emb, p, q, 2, 1)
        assert sign == -1
        assert cert["invariant"]

    def test_empty_partner(self):
        emb = emb_real("r1")
        p = InfChar((("r1", ("1/2", "-1/2")),))
        q = InfChar((("r1", ()),))
        sign, _ = root_number_selfdual(emb, p, q, 2, 0)
        assert sign == 1

    def test_all_permutations_fix_sign(self):
        emb = emb_real("r1", "r2", "r3")
        p = InfChar(
            (
                ("r1", ("3/2", "-3/2")),
                ("r2", ("5/2", "-5/2")),
                ("r3", ("9/2", "-9/2")),
            )
        )
        q = InfChar((("r1", ("1", "0", "-1")), ("r2", ("2", "0", "-2")), ("r3", ("3", "0", "-3"))))
        base, _ = root_number_selfdual(emb, p, q, 2, 3)
        for images in itertools.permutations(emb.labels):
            perm = AutOnEmbeddings(tuple(zip(emb.labels, images)))
            sign, _ = root_number_selfdual(emb, p.permuted(perm), q.permuted(perm), 2, 3)
            assert sign == base

    def test_requires_half_integral_pairs(self):
        emb = emb_real("r1")
        p = InfChar((("r1", ("1", "-1")),))
        q = InfChar((("r1", ("2",)),))
        with pytest.raises(ArchError):
            root_number_selfdual(emb, p, q, 2, 1)

    def test_requires_even_complex_product(self):
        emb = EmbeddingSet.build(complex_pairs=(("c1", "c1b"),))
        p = InfChar((("c1", ("1/2", "-1/2")), ("c1b", ("1/2", "-1/2"))))
        q = InfChar((("c1", ("0",)), ("c1b", ("0",))))
        with pytest.raises(ArchError):
            root_number_selfdual(emb, p, q, 1, 1)  # c·r·t = 1 odd


def test_invariance_ratio():
    assert invariance_ratio_conjdual(2, 3, 1) == 1  # rt even
    assert invariance_ratio_conjdual(1, 1, 1, discriminant_consistency=True) == 1
    assert (
        invariance_ratio_conjdual(
            1, 1, 1, eps_sqrt_disc=-1, eps_i=1, discriminant_consistency=False
        )
        == -1
    )
    assert (
        invariance_ratio_conjdual(
            1, 3, 2, eps_sqrt_disc=-1, eps_i=-1, discriminant_consistency=False
        )
        == -1
    )


def test_parity_of_order():
    assert parity_of_order(1) == "even"
    assert parity_of_order(-1) == "odd"
    with pytest.raises(ArchError):
        parity_of_order(0)


def test_symmetric_configuration_composes_to_even():
    # equal infinitesimal characters at two real embeddings: the per-embedding
    # contributions square away and the composed parity is even
    emb = emb_real("r1", "r2")
    p = InfChar((("r1", ("3/2", "-3/2")), ("r2", ("3/2", "-3/2"))))
    q = InfChar((("r1", ("0",)), ("r2", ("0",))))
    sign, _ = root_number_selfdual(emb, p, q, 2, 1)
    assert parity_of_order(sign) == "even"


def test_infchar_missing_label_is_domain_error():
    ic = InfChar((("r1", ("1", "-1")),))
    with pytest.raises(ArchError, match="no entries"):
        ic.at("r2")


def _fraction_root_number_oracle(emb, p, q, r, t):
    """The Fraction pair loop that `root_number_selfdual` replaced, verbatim."""
    c = emb.d_C
    if (c * r * t) % 2:
        raise ArchError("hypothesis violated: complex-place count times degrees must be even")
    half = Fraction(1, 2)
    sign = -1 if ((c * r * t // 2) % 2) else 1
    for label in emb.real_labels:
        for pi in p.at(label):
            for qj in q.at(label):
                s = pi + qj
                if s > 0:
                    if (s + half).denominator != 1:
                        raise ArchError("hypothesis violated: pair weights must be half-integral")
                    sign *= (-1) ** (int(s + half) % 2)
    for a, _ in emb.complex_pairs:
        for pi in p.at(a):
            for qj in q.at(a):
                s = pi + qj
                if s > 0:
                    if (2 * s).denominator != 1:
                        raise ArchError("hypothesis violated: pair weights must be half-integral")
                    sign *= (-1) ** (int(2 * s) % 2)
    return sign


def _root_number_outcome(fn, *args):
    try:
        out = fn(*args)
    except ArchError as exc:
        return f"ArchError: {exc}"
    return out[0] if isinstance(out, tuple) else out


def test_root_number_agrees_with_fraction_oracle():
    """2,400 seeded pairs over real and complex embeddings, degrees 1-6,
    with integral and half-odd entries mixed so that some pair weights are
    not half-odd at a real embedding."""
    import random

    rng = random.Random(7)
    outcomes = {}
    for _ in range(2400):
        d_r, d_c = rng.choice([(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1)])
        emb = EmbeddingSet.build(
            real=tuple(f"r{i}" for i in range(d_r)),
            complex_pairs=tuple((f"c{i}", f"c{i}b") for i in range(d_c)),
        )
        deg_p, deg_q = rng.randint(1, 6), rng.randint(1, 6)
        # integral entries only: every pair weight is an integer, none half-odd
        step = 2 if rng.random() < 0.3 else 1

        def entries(deg):
            return tuple(Fraction(rng.randrange(-12, 13, step), 2) for _ in range(deg))

        p = InfChar(tuple((label, entries(deg_p)) for label in emb.labels))
        q = InfChar(tuple((label, entries(deg_q)) for label in emb.labels))
        r, t = rng.choice([(deg_p, deg_q), (rng.randint(1, 6), rng.randint(1, 6))])
        got = _root_number_outcome(root_number_selfdual, emb, p, q, r, t)
        assert got == _root_number_outcome(_fraction_root_number_oracle, emb, p, q, r, t)
        outcomes[got] = outcomes.get(got, 0) + 1
    assert set(outcomes) == {
        1,
        -1,
        "ArchError: hypothesis violated: pair weights must be half-integral",
        "ArchError: hypothesis violated: complex-place count times degrees must be even",
    }
    assert min(outcomes.values()) > 100, outcomes
