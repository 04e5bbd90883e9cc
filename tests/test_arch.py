import itertools
import random
from fractions import Fraction

import pytest

from langkit.arch import (
    ArchError,
    EmbeddingSet,
    InfChar,
    _symmetrize,
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
    strictly_decreasing,
    strictly_gapped,
)
from langkit.rationals import rat


def emb_real(*labels):
    return EmbeddingSet(real=labels)


class TestEmbeddings:
    def test_counts(self):
        emb = EmbeddingSet(real=("r1",), complex_pairs=(("c1", "c1b"),))
        assert emb.labels == ("r1", "c1", "c1b")
        assert len(emb.real) == 1 and emb.d_C == 1 and emb.degree == 3

    @pytest.mark.parametrize(
        "real,pairs",
        [
            (("r1", "r1"), ()),
            ((), (("c1", "c1"),)),
            ((), (("c1", "c2"), ("c2", "c3"))),
            (("r1",), (("c1", "r1"),)),
        ],
    )
    def test_labels_must_be_distinct(self, real, pairs):
        with pytest.raises(ArchError, match="embedding labels must be distinct"):
            EmbeddingSet(real, pairs)


class TestPurity:
    def test_symmetric_real(self):
        emb = emb_real("r1")
        p = InfChar((("r1", (1, -1)),))
        assert purity_weight(p, emb, 2) == 0

    def test_complex_weight_one(self):
        emb = EmbeddingSet(complex_pairs=(("c1", "c1b"),))
        p = InfChar((("c1", (3, 1)), ("c1b", (-5, -3))))
        assert purity_weight(p, emb, 2) == 1

    def test_inconsistent_pairing(self):
        emb = EmbeddingSet(complex_pairs=(("c1", "c1b"),))
        p = InfChar((("c1", (2, 0)), ("c1b", (0, -4))))
        with pytest.raises(ArchError):
            purity_weight(p, emb, 2)

    def test_global_sum_identity_holds_exactly(self):
        emb = EmbeddingSet(real=("r1",), complex_pairs=(("c1", "c1b"),))
        p = InfChar(
            (
                ("r1", (3, -3)),
                ("c1", (5, 1)),
                ("c1b", (-1, -5)),
            )
        )
        w = purity_weight(p, emb, 2)
        assert w == 0
        total2 = sum(sum(p.at(label)) for label in emb.labels)  # doubled entries
        assert total2 == -emb.degree * 2 * w


class TestPredicates:
    def test_superregular_boundary(self):
        assert is_superregular((7, 3))
        assert not is_superregular((5, 3))
        assert not is_superregular((1,))

    def test_superregular_full_multiset(self):
        assert is_superregular((7, 3, -3, -7))

    def test_superregular_implies_distinct(self):
        vals = (11, 7, 3)
        assert is_superregular(vals)
        closed = list(vals) + [-v for v in vals]
        assert len(set(closed)) == len(closed)

    def test_disjoint(self):
        assert is_disjoint((3, -3), (0,))
        assert not is_disjoint((1, -1), (2,))
        assert is_disjoint((1,), ())

    def test_so_regular(self):
        assert is_SO_regular((4, 0, 0, -4))
        assert is_SO_regular((4, 2, -2, -4))
        assert not is_SO_regular((4, 4, -4, -4))

    def test_induced_regular(self):
        assert not induced_regular((3, -3), (2, 0, -2))
        assert induced_regular((5, -5), (2, 0, -2))
        assert induced_regular((1, -1), ())  # 0 twice is allowed

    def test_gap_check(self):
        assert strictly_gapped((5, 1))
        assert not strictly_gapped((3, 1))

    def test_algebraicity_required(self):
        assert algebraicity_required(1, 2) == "algebraic"
        assert algebraicity_required(1, 1) == "half_algebraic"
        assert algebraicity_required(2, 0) == "half_algebraic"

    def test_selfdual_closure_stability(self):
        # closing a positive half under negation does not change the verdicts
        pos = (9, 3)
        closed = pos + (-3, -9)
        assert is_superregular(pos) == is_superregular(closed)
        q = (12, 0, -12)
        assert is_disjoint(pos, q) == is_disjoint(closed, q)


class TestEpsArch:
    def test_displayed_values(self):
        assert eps_arch("real_induced", "1/2") == 2  # i^2 = -1
        assert eps_arch("complex", 1, 0) == 1  # i
        assert eps_arch("restriction", "1/2") == 2

    @pytest.mark.parametrize("a", ("1/2", "1", "3/2", "2"))
    def test_fourth_roots(self, a):
        k = eps_arch("real_induced", a)
        assert k == (int(2 * Fraction(a)) + 1) % 4  # i^{2a+1}

    def test_rejects_negative(self):
        with pytest.raises(ArchError):
            eps_arch("real_induced", "-1/2")


class TestRootNumber:
    def test_single_positive_pair(self):
        emb = emb_real("r1")
        p = InfChar((("r1", (1, -1)),))
        q = InfChar((("r1", (0,)),))
        sign, cert = root_number_selfdual(emb, p, q, 2, 1)
        assert sign == -1
        assert cert["invariant"]

    def test_empty_partner(self):
        emb = emb_real("r1")
        p = InfChar((("r1", (1, -1)),))
        q = InfChar((("r1", ()),))
        sign, _ = root_number_selfdual(emb, p, q, 2, 0)
        assert sign == 1

    def test_all_permutations_fix_sign(self):
        emb = emb_real("r1", "r2", "r3")
        p = InfChar(
            (
                ("r1", (3, -3)),
                ("r2", (5, -5)),
                ("r3", (9, -9)),
            )
        )
        q = InfChar((("r1", (2, 0, -2)), ("r2", (4, 0, -4)), ("r3", (6, 0, -6))))
        base, _ = root_number_selfdual(emb, p, q, 2, 3)
        for images in itertools.permutations(emb.labels):
            perm = tuple(zip(emb.labels, images))
            sign, _ = root_number_selfdual(emb, p.permuted(perm), q.permuted(perm), 2, 3)
            assert sign == base

    def test_requires_half_integral_pairs(self):
        emb = emb_real("r1")
        p = InfChar((("r1", (2, -2)),))
        q = InfChar((("r1", (4,)),))
        with pytest.raises(ArchError):
            root_number_selfdual(emb, p, q, 2, 1)


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


def test_symmetric_configuration_composes_to_even():
    # equal infinitesimal characters at two real embeddings: the per-embedding
    # contributions square away and the composed parity is even
    emb = emb_real("r1", "r2")
    p = InfChar((("r1", (3, -3)), ("r2", (3, -3))))
    q = InfChar((("r1", (0,)), ("r2", (0,))))
    sign, _ = root_number_selfdual(emb, p, q, 2, 1)
    assert parity_of_order(sign) == "even"


def test_infchar_missing_label_is_domain_error():
    ic = InfChar((("r1", (2, -2)),))
    with pytest.raises(ArchError, match="no entries"):
        ic.at("r2")


class _Halves:
    """The Fraction form an `InfChar` held before its entries were doubled:
    the entries v, not the ints 2v, for the Fraction oracles below."""

    def __init__(self, ic: InfChar):
        self.data = tuple((label, tuple(Fraction(v, 2) for v in vals)) for label, vals in ic.data)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.data)

    def at(self, label: str) -> tuple:
        return dict(self.data)[label]


def _fraction_root_number_oracle(emb, p, q, r, t):
    """The Fraction pair loop that `root_number_selfdual` replaced, verbatim."""
    c = emb.d_C
    if (c * r * t) % 2:
        raise ArchError("hypothesis violated: complex-place count times degrees must be even")
    half = Fraction(1, 2)
    sign = -1 if ((c * r * t // 2) % 2) else 1
    for label in emb.real:
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
    """Seeded pairs over real and complex embeddings, degrees 1-6, with
    integral and half-odd entries mixed so that some pair weights are not
    half-odd at a real embedding.  Of 2,400 draws only those with c·r·t
    even are compared: the function's domain, since target D pairs a
    symplectic record, of even degree, with an orthogonal one."""
    import random

    rng = random.Random(7)
    outcomes = {}
    for _ in range(2400):
        d_r, d_c = rng.choice([(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1)])
        emb = EmbeddingSet(
            real=tuple(f"r{i}" for i in range(d_r)),
            complex_pairs=tuple((f"c{i}", f"c{i}b") for i in range(d_c)),
        )
        deg_p, deg_q = rng.randint(1, 6), rng.randint(1, 6)
        # integral entries only: every pair weight is an integer, none half-odd
        step = 2 if rng.random() < 0.3 else 1

        def entries(deg):
            return tuple(rng.randrange(-12, 13, step) for _ in range(deg))

        p = InfChar(tuple((label, entries(deg_p)) for label in emb.labels))
        q = InfChar(tuple((label, entries(deg_q)) for label in emb.labels))
        r, t = rng.choice([(deg_p, deg_q), (rng.randint(1, 6), rng.randint(1, 6))])
        if (d_c * r * t) % 2:
            continue
        got = _root_number_outcome(root_number_selfdual, emb, p, q, r, t)
        want = _root_number_outcome(_fraction_root_number_oracle, emb, _Halves(p), _Halves(q), r, t)
        assert got == want
        outcomes[got] = outcomes.get(got, 0) + 1
    assert set(outcomes) == {
        1,
        -1,
        "ArchError: hypothesis violated: pair weights must be half-integral",
    }
    assert min(outcomes.values()) > 100, outcomes


# ---------------------------------------------------------------------------
# the Fraction predicates and purity weight that the doubled-int ones
# replaced, verbatim: oracles on their Fraction inputs v, not 2v


def _frac_purity_weight(p, emb: EmbeddingSet, degree: int) -> Fraction:
    """The unique weight w with paired entries summing to -w at every
    embedding and total sum -[F:Q]·degree·w/... consistency; raises when no
    single w fits."""
    if set(p.labels) != set(emb.labels):
        raise ArchError("infinitesimal character does not match the embeddings")
    candidates = set()
    for label in emb.real:
        vals = p.at(label)
        if len(vals) != degree:
            raise ArchError("degree mismatch")
        sums = {vals[i] + vals[degree - 1 - i] for i in range(degree)}
        if len(sums) != 1:
            raise ArchError(f"inconsistent pairing at real embedding {label}")
        candidates.add(-sums.pop())
    for a, b in emb.complex_pairs:
        va = p.at(a)
        vb_asc = tuple(sorted(p.at(b)))
        sums = {va[i] + vb_asc[i] for i in range(degree)}
        if len(sums) != 1:
            raise ArchError(f"inconsistent pairing at complex pair ({a}, {b})")
        candidates.add(-sums.pop())
    if len(candidates) != 1:
        raise ArchError(f"no single weight fits: {sorted(candidates)}")
    w = candidates.pop()
    # doubled sum over embeddings equals -[F:Q]·N·w
    doubled = 2 * sum(sum(p.at(label)) for label in emb.labels)
    if doubled != Fraction(-emb.degree * degree) * w:
        raise ArchError("global sum does not match the paired weight")
    return w


def _frac_symmetrize(values) -> tuple:
    vals = sorted((rat(v) for v in values), reverse=True)
    if vals == sorted((-v for v in vals), reverse=True):
        return tuple(vals)
    vals = vals + [-v for v in vals]
    return tuple(sorted(vals, reverse=True))


def _frac_is_superregular(values) -> bool:
    """Positive entries strictly spaced by at least 2 with smallest ≥ 3/2,
    after closing the multiset under negation.  Odd closures are rejected."""
    closed = _frac_symmetrize(values)
    if len(closed) % 2:
        raise ArchError("superregularity needs an even symmetric multiset")
    m = len(closed) // 2
    pos = closed[:m]
    if any(pos[i] != -closed[-1 - i] for i in range(m)):
        raise ArchError("multiset is not symmetric under negation")
    for i in range(m - 1):
        if pos[i] < pos[i + 1] + 2:
            return False
    return pos[-1] >= Fraction(3, 2)


def _frac_is_disjoint(p, q) -> bool:
    """No entry of p shifted by ±1/2 meets an entry of q."""
    half = Fraction(1, 2)
    qs = {rat(x) for x in q}
    return all(rat(x) + s not in qs for x in p for s in (half, -half))


def _frac_strictly_gapped(values, gap=2) -> bool:
    """Entries strictly decreasing with consecutive differences ≥ gap.

    The asymmetric variant of superregularity used for conjugate-self-dual
    data, where the multiset need not be negation-closed.
    """
    vals = sorted((rat(v) for v in values), reverse=True)
    g = rat(gap)
    return all(vals[i] - vals[i + 1] >= g for i in range(len(vals) - 1))


def _frac_strictly_decreasing(values) -> bool:
    vals = [rat(v) for v in values]
    return all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def _frac_is_SO_regular(values) -> bool:
    """Shape p_1 > ... > p_n ≥ -p_n > ... > -p_1: strictly decreasing and
    symmetric, with equality allowed only at the middle."""
    vals = tuple(sorted((rat(v) for v in values), reverse=True))
    if len(vals) % 2:
        raise ArchError("even cardinality required")
    n = len(vals) // 2
    if any(vals[i] != -vals[-1 - i] for i in range(len(vals))):
        return False
    for i in range(len(vals) - 1):
        if i == n - 1:
            if vals[i] < vals[i + 1]:
                return False
        elif vals[i] <= vals[i + 1]:
            return False
    return True


def _frac_induced_regular(p, q) -> bool:
    """The merged multiset {p_i ± 1/2} ∪ {q_j} has no repeated entry, with
    the single exception of 0 at multiplicity ≤ 2."""
    half = Fraction(1, 2)
    merged = [rat(x) + s for x in p for s in (half, -half)] + [rat(x) for x in q]
    counts: dict = {}
    for v in merged:
        counts[v] = counts.get(v, 0) + 1
    for v, c in counts.items():
        if c > 2 or (c == 2 and v != 0):
            return False
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArchError as exc:
        return f"ArchError: {exc}"


def _halves(vals) -> tuple:
    return tuple(Fraction(v, 2) for v in vals)


# boundary multisets, doubled: 3/2 alone and closed, gap exactly 2 and just
# under, 0 twice after the ±1/2 shift, a repeated middle 0
BOUNDARY = (
    (3,), (3, -3), (1,), (1, -1), (7, 3), (7, 3, -3, -7), (5, 3), (5, 1), (6, 2),
    (0,), (0, 0), (4, 0, 0, -4), (2, 0, -2),
)


def _multisets(rng, count):
    """Seeded doubled multisets of degree 1-6: symmetric (closed under
    negation, with or without a middle 0) and asymmetric, half-odd,
    integral or mixed, in random order."""
    for _ in range(count):
        deg = rng.randint(1, 6)
        pool = rng.choice((range(1, 14, 2), range(2, 14, 2), range(1, 14)))
        if rng.random() < 0.5:
            top = [rng.choice(pool) for _ in range(deg // 2)]
            vals = top + [-v for v in top] + [0] * (deg % 2)
        else:
            vals = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(deg)]
        rng.shuffle(vals)
        yield tuple(vals)


# the predicates that take only a nonempty multiset of even size, as the
# entries of a purity-checked character of even degree are
EVEN_SIZE_ONLY = (is_superregular, is_SO_regular)


def test_predicates_agree_with_fraction_oracles():
    """The six predicates and `_symmetrize` on doubled entries against the
    Fraction originals on the same multisets of their domain, on result or
    on message."""
    rng = random.Random(23)
    sets = list(BOUNDARY) + list(_multisets(rng, 1500))
    seen = set()
    for vals in sets:
        fr = _halves(vals)
        assert _halves(_symmetrize(vals)) == _frac_symmetrize(fr)
        for new, old in (
            (is_superregular, _frac_is_superregular),
            (strictly_gapped, _frac_strictly_gapped),
            (strictly_decreasing, _frac_strictly_decreasing),
            (is_SO_regular, _frac_is_SO_regular),
        ):
            if new in EVEN_SIZE_ONLY and (not vals or len(vals) % 2):
                continue
            got = _outcome(new, vals)
            assert got == _outcome(old, fr), (new.__name__, vals)
            seen.add((new.__name__, got))
    pairs = [(p, q) for p in BOUNDARY for q in BOUNDARY + ((),)]
    pairs += [(rng.choice(sets), rng.choice(sets)) for _ in range(3000)]
    for p, q in pairs:
        for new, old in (
            (is_disjoint, _frac_is_disjoint),
            (induced_regular, _frac_induced_regular),
        ):
            got = new(p, q)
            assert got == old(_halves(p), _halves(q)), (new.__name__, p, q)
            seen.add((new.__name__, got))
    # every predicate both holds and fails on the grid, and none raises
    for name in ("is_superregular", "strictly_gapped", "strictly_decreasing", "is_SO_regular",
                 "is_disjoint", "induced_regular"):
        assert {(name, True), (name, False)} <= seen, name
    assert {got for _, got in seen} == {True, False}


def _random_infchar(rng, emb: EmbeddingSet, degree: int) -> InfChar:
    """A doubled infinitesimal character: pure of a random weight, or pure
    with one entry moved, or random."""
    s2 = rng.randint(-4, 4) * 2 if degree % 2 else rng.randint(-8, 8)  # doubled pair sum
    mode = rng.choice(("pure", "moved", "random"))
    data = {}
    for label in emb.real:
        top = sorted(rng.sample(range(-12, 13), degree // 2), reverse=True)
        mid = [s2 // 2] if degree % 2 else []
        data[label] = top + mid + [s2 - v for v in reversed(top)]
    for a, b in emb.complex_pairs:
        va = [rng.randint(-12, 12) for _ in range(degree)]
        data[a], data[b] = va, [s2 - v for v in va]
    if mode == "moved":
        label = rng.choice(emb.labels)
        data[label][rng.randrange(degree)] += rng.choice((-2, -1, 1, 2))
    elif mode == "random":
        data = {label: [rng.randint(-12, 12) for _ in range(degree)] for label in emb.labels}
    return InfChar(tuple((label, tuple(vals)) for label, vals in data.items()))


def test_purity_weight_agrees_with_fraction_oracle():
    rng = random.Random(29)
    seen = set()
    for _ in range(2000):
        d_r, d_c = rng.choice([(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1)])
        emb = EmbeddingSet(
            real=tuple(f"r{i}" for i in range(d_r)),
            complex_pairs=tuple((f"c{i}", f"c{i}b") for i in range(d_c)),
        )
        degree = rng.randint(1, 6)
        p = _random_infchar(rng, emb, degree)
        # a wrong declared degree is caught at a real embedding before any complex one
        claimed = degree + 1 if d_r and rng.random() < 0.05 else degree
        got = _outcome(purity_weight, p, emb, claimed)
        assert got == _outcome(_frac_purity_weight, _Halves(p), emb, claimed), (p, claimed)
        seen.add(got if isinstance(got, str) else "weight")
    assert "weight" in seen
    assert "ArchError: degree mismatch" in seen
    assert any(s.startswith("ArchError: inconsistent pairing at real") for s in seen)
    assert any(s.startswith("ArchError: inconsistent pairing at complex") for s in seen)
    assert any(s.startswith("ArchError: no single weight fits") for s in seen)


def test_infchar_reads_generator_arguments_once():
    """The argument used to be iterated twice, so a generator gave an empty
    record; the entries may be generators too."""
    expected = InfChar((("c1", (3, 1)), ("c1b", (-5, -3))))
    pairs = (("c1b", (-3, -5)), ("c1", (1, 3)))
    assert InfChar(pair for pair in pairs) == expected
    assert InfChar((label, (v for v in vals)) for label, vals in pairs) == expected
    assert expected.serialize() == {"c1": ["3/2", "1/2"], "c1b": ["-3/2", "-5/2"]}


@pytest.mark.parametrize("entries", [((1,), (-3,)), ((5, 3, 1), (-7, -5, -3))])
def test_purity_weight_checks_the_degree_at_complex_pairs(entries):
    """A complex pair with fewer entries than the degree used to raise
    IndexError, and one with more was read only up to the degree."""
    emb = EmbeddingSet(complex_pairs=(("c1", "c1b"),))
    p = InfChar((("c1", entries[0]), ("c1b", entries[1])))
    with pytest.raises(ArchError, match="degree mismatch"):
        purity_weight(p, emb, 2)
