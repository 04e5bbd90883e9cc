import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langkit.weyl import (
    ParabolicShape,
    RootDatum,
    SignedPerm,
    Weight,
    WeylError,
    _POSITIVE_ROOT_COUNTS,
    _simple_windows,
    _then,
    all_signed_perms,
    bfs_lengths,
    kostant_reps,
    kostant_weights,
    length_additive,
    simple_reflections,
)


# ---------------------------------------------------------------------------
# oracle helpers over the root data: the Weyl group by enumeration, lengths
# by counting roots, and the Cartan matrix in Fraction arithmetic


def inverse(w: SignedPerm) -> SignedPerm:
    inv = [0] * w.rank
    for i, v in enumerate(w.images, start=1):
        inv[abs(v) - 1] = i if v > 0 else -i
    return SignedPerm(tuple(inv))


def act_coords(w: SignedPerm, coords) -> tuple:
    """Action on a coordinate vector: e_i ↦ e_{w(i)} (e_{-k} = -e_k)."""
    assert len(coords) == w.rank, "rank mismatch in action"
    out = [0] * w.rank
    for i, x in enumerate(coords, start=1):
        v = w(i)
        out[abs(v) - 1] = x if v > 0 else -x
    return tuple(out)


def cartan_entry(alpha, beta) -> Fraction:
    """⟨β, α̌⟩ = 2(β,α)/(α,α) in the standard inner product."""
    aa = sum(a * a for a in alpha)
    ab = sum(a * b for a, b in zip(alpha, beta))
    return Fraction(2 * ab) / aa


def validate(datum):
    """Cartan-matrix fingerprint and positive-root count for the family."""
    simples = datum.simple_roots()
    n = len(simples)
    assert n == datum.rank, "simple root count does not match the rank"
    cartan = [[cartan_entry(simples[i], simples[j]) for j in range(n)] for i in range(n)]
    assert all(cartan[i][i] == 2 for i in range(n)), "bad Cartan diagonal"
    expected = _POSITIVE_ROOT_COUNTS[datum.family](datum.rank)
    assert len(datum.positive_roots()) == expected, "positive root count does not match"
    return cartan


def weyl_elements(datum):
    """Enumerate the Weyl group as (signed) coordinate permutations."""
    n = datum.dim
    if datum.family == "A":
        for perm in itertools.permutations(range(1, n + 1)):
            yield SignedPerm(perm)
    elif datum.family in "BC":
        yield from all_signed_perms(n)
    else:  # D: even number of sign changes
        for w in all_signed_perms(n):
            if sum(1 for v in w.images if v < 0) % 2 == 0:
                yield w


def length_of(datum, w) -> int:
    """Number of positive roots of the datum sent to negative roots."""
    count = 0
    for root in datum.positive_roots():
        img = act_coords(w, root)
        first = next(x for x in img if x != 0)
        if first < 0:
            count += 1
    return count


def shuffle_word(t, u):
    return SignedPerm(tuple([u + i for i in range(1, t + 1)] + list(range(1, u + 1))))


def flip_word(t, u):
    return SignedPerm(
        tuple([t + i for i in range(1, u + 1)] + [-(t + 1 - i) for i in range(1, t + 1)])
    )


def full_word(t, u):
    return SignedPerm(
        tuple([-(t + 1 - i) for i in range(1, t + 1)] + [t + i for i in range(1, u + 1)])
    )


class TestLength:
    def test_identity_is_zero(self):
        assert SignedPerm.identity(3).length() == 0

    @pytest.mark.parametrize("t,u", [(t, u) for t in range(1, 5) for u in range(0, 5)])
    def test_block_words(self, t, u):
        assert shuffle_word(t, u).length() == t * u
        assert flip_word(t, u).length() == t * u + t * (t - 1) // 2 + t
        assert full_word(t, u).length() == t * (t - 1) // 2 + 2 * t * u + t

    def test_full_flip_no_pairs(self):
        # u = 0: reversal with all signs flipped
        for t in range(1, 5):
            w = full_word(t, 0)
            assert w.length() == t * (t - 1) // 2 + t

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matches_word_search(self, t):
        table = bfs_lengths(t)
        assert len(table) == 2**t * math.factorial(t)
        for w in all_signed_perms(t):
            assert w.length() == table[w.images]


class TestAdditivity:
    def test_identity_always_additive(self):
        for w in all_signed_perms(2):
            assert length_additive(SignedPerm.identity(2), w)
            assert length_additive(w, SignedPerm.identity(2))

    def test_block_decomposition(self):
        assert length_additive(shuffle_word(2, 1), flip_word(2, 1))
        assert shuffle_word(2, 1).then(flip_word(2, 1)) == full_word(2, 1)

    def test_square_of_reflection_fails(self):
        for s in simple_reflections(3):
            assert not length_additive(s, s)

    def test_rank_mismatch(self):
        with pytest.raises(WeylError):
            length_additive(SignedPerm.identity(2), SignedPerm.identity(3))


@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_has_same_length(t, data):
    perms = list(all_signed_perms(t))
    w = data.draw(st.sampled_from(perms))
    assert w.length() == inverse(w).length()
    assert w.then(inverse(w)).is_identity()


@pytest.mark.parametrize(
    "cls,args",
    [
        pytest.param(SignedPerm, ((2.9, 1),), id="perm-float"),
        pytest.param(SignedPerm, ((2.0, 1),), id="perm-integral-float"),
        pytest.param(SignedPerm, ((True, 2),), id="perm-bool"),
        pytest.param(ParabolicShape, ((2.7,), 2, RootDatum("C", 4)), id="shape-float-block"),
        pytest.param(ParabolicShape, ((True,), 3, RootDatum("C", 4)), id="shape-bool-block"),
        pytest.param(ParabolicShape, ((2,), 2.0, RootDatum("C", 4)), id="shape-float-core"),
        pytest.param(RootDatum, ("C", 4.5), id="datum-float-rank"),
        pytest.param(RootDatum, ("C", True), id="datum-bool-rank"),
        pytest.param(RootDatum, ("", 3), id="datum-empty-family"),
        pytest.param(RootDatum, ("BC", 3), id="datum-two-families"),
    ],
)
def test_constructors_refuse_non_integer_input(cls, args):
    with pytest.raises(WeylError):
        cls(*args)


class TestRootData:
    @pytest.mark.parametrize(
        "family,rank,count",
        [("A", 3, 6), ("B", 3, 9), ("C", 3, 9), ("D", 4, 12)],
    )
    def test_positive_root_counts(self, family, rank, count):
        datum = RootDatum(family, rank)
        validate(datum)
        assert len(datum.positive_roots()) == count

    def test_rho_type_c(self):
        assert RootDatum("C", 3).twice_rho() == (6, 4, 2)

    def test_weyl_orders(self):
        assert sum(1 for _ in weyl_elements(RootDatum("C", 3))) == 48
        assert sum(1 for _ in weyl_elements(RootDatum("D", 3))) == 24
        assert sum(1 for _ in weyl_elements(RootDatum("A", 2))) == 6


class TestKostant:
    def test_rank_one_borel(self):
        datum = RootDatum("A", 1)
        shape = ParabolicShape((1, 1), 0, datum)
        reps = kostant_reps(datum, shape)
        assert [l for _, l in reps] == [0, 1]

    def test_siegel_type(self):
        datum = RootDatum("C", 2)
        reps = kostant_reps(datum, ParabolicShape((2,), 0, datum))
        assert [l for _, l in reps] == [0, 1, 2, 3]

    def test_block_plus_core(self):
        datum = RootDatum("C", 3)
        reps = kostant_reps(datum, ParabolicShape((1,), 2, datum))
        assert len(reps) == 48 // 8

    def test_longest_has_nilradical_length(self):
        datum = RootDatum("C", 2)
        shape = ParabolicShape((2,), 0, datum)
        reps = kostant_reps(datum, shape)
        nilradical = len(datum.positive_roots()) - 1  # Levi GL_2 has one positive root
        assert reps[-1][1] == nilradical
        assert len({w.images for w, _ in reps}) == len(reps)

    @pytest.mark.parametrize(
        "family,rank,blocks,core,levi_roots",
        [
            ("C", 3, (1,), 2, 4),
            ("C", 3, (2,), 1, 2),
            ("B", 3, (2,), 1, 2),
            ("D", 3, (1,), 2, 2),
            ("A", 3, (2, 2), 0, 2),
        ],
    )
    def test_longest_general(self, family, rank, blocks, core, levi_roots):
        datum = RootDatum(family, rank)
        shape = ParabolicShape(blocks, core, datum)
        reps = kostant_reps(datum, shape)
        lengths = [l for _, l in reps]
        nilradical = len(datum.positive_roots()) - levi_roots
        assert lengths[-1] == nilradical
        assert lengths.count(nilradical) == 1
        assert len({w.images for w, _ in reps}) == len(reps)

    def test_borel_shape_gives_whole_group(self):
        datum = RootDatum("C", 2)
        shape = ParabolicShape((1, 1), 0, datum)
        reps = kostant_reps(datum, shape)
        assert len(reps) == datum.order()
        assert sorted(l for _, l in reps) == sorted(
            length_of(datum, w) for w in weyl_elements(datum)
        )

    def test_weights_rank_one(self):
        datum = RootDatum("A", 1)
        shape = ParabolicShape((1, 1), 0, datum)
        out = kostant_weights(Weight((0, 0)), datum, shape)
        assert out[0] == (0, Weight((0, 0)))
        assert out[1] == (1, Weight((-1, 1)))  # the negative simple root

    def test_weights_siegel(self):
        datum = RootDatum("C", 2)
        out = kostant_weights(Weight((0, 0)), datum, ParabolicShape((2,), 0, datum))
        assert [d for d, _ in out] == [0, 1, 2, 3]
        weights = [wt.coords for _, wt in out]
        assert len(set(weights)) == 4

    def test_identity_representative_returns_weight(self):
        datum = RootDatum("C", 2)
        lam = Weight((3, 1))
        out = kostant_weights(lam, datum, ParabolicShape((), 2, datum))
        assert out == [(0, lam)]

    def test_distinct_for_regular(self):
        datum = RootDatum("B", 2)
        out = kostant_weights(Weight((2, 1)), datum, ParabolicShape((2,), 0, datum))
        assert len({wt.coords for _, wt in out}) == len(out)

    def test_rejects_non_dominant(self):
        datum = RootDatum("C", 2)
        with pytest.raises(WeylError):
            kostant_weights(Weight((1, 3)), datum, ParabolicShape((2,), 0, datum))

    def test_rejects_incompatible_shape(self):
        datum = RootDatum("C", 3)
        with pytest.raises(WeylError):
            ParabolicShape((3,), 2, datum)


# ---------------------------------------------------------------------------
# an independent dimension oracle for the shifted weights


def levi_positive_roots(shape):
    """Positive roots of the Levi: within-block differences plus the core
    subsystem."""
    datum = shape.ambient
    n = datum.dim
    block_of = {}
    offset = 0
    for b_idx, size in enumerate(shape.gl_block_sizes):
        for i in range(offset, offset + size):
            block_of[i] = b_idx
        offset += size
    core = set(range(offset, n))
    roots = []
    for alpha in datum.positive_roots():
        support = [i for i, c in enumerate(alpha) if c != 0]
        values = sorted(alpha[i] for i in support)
        if len(support) == 2 and values == [Fraction(-1), Fraction(1)]:
            i, j = support
            same_block = block_of.get(i) is not None and block_of.get(i) == block_of.get(j)
            if same_block or (i in core and j in core):
                roots.append(alpha)
        else:
            # e_i + e_j, e_i or 2e_i: only in the core subsystem
            if all(i in core for i in support):
                roots.append(alpha)
    return roots


def levi_dim(shape, weight):
    """Weyl dimension formula over the Levi subsystem."""
    roots = levi_positive_roots(shape)
    rho_m = [Fraction(sum(r[i] for r in roots), 2) for i in range(shape.ambient.dim)]
    dim = Fraction(1)
    for alpha in roots:
        num = sum((w + r) * a for w, r, a in zip(weight.coords, rho_m, alpha))
        den = sum(r * a for r, a in zip(rho_m, alpha))
        dim *= Fraction(num, den)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


@pytest.mark.parametrize(
    "family,rank,blocks,core,lam",
    [
        ("C", 2, (2,), 0, (0, 0)),
        ("C", 2, (1,), 1, (2, 1)),
        ("C", 3, (1,), 2, (0, 0, 0)),
        ("C", 3, (3,), 0, (1, 1, 0)),
        ("B", 2, (2,), 0, (1, 0)),
        ("B", 3, (2,), 1, (2, 1, 0)),
        ("D", 3, (1,), 2, (1, 1, 0)),
        ("A", 3, (2, 2), 0, (1, 1, 0, 0)),
    ],
)
def test_shifted_weights_have_zero_euler_characteristic(family, rank, blocks, core, lam):
    # the alternating sum over degrees of the Levi dimensions vanishes
    # whenever the radical is nonzero
    datum = RootDatum(family, rank)
    shape = ParabolicShape(blocks, core, datum)
    out = kostant_weights(Weight(tuple(map(Fraction, lam))), datum, shape)
    assert len(out) > 1
    euler = sum((-1) ** d * levi_dim(shape, wt) for d, wt in out)
    assert euler == 0


@pytest.mark.parametrize(
    "family,rank,blocks,nil_dim",
    [
        ("C", 2, (2,), 3),  # abelian radical: e_i+e_j with i <= j
        ("C", 3, (3,), 6),
        ("A", 3, (2, 2), 4),  # abelian radical: the off-diagonal block
    ],
)
def test_abelian_radical_dimensions_are_binomial(family, rank, blocks, nil_dim):
    # with an abelian radical and trivial coefficients the degree-k piece is
    # the k-th exterior power, so the Levi dimensions sum to binomials
    import math

    datum = RootDatum(family, rank)
    shape = ParabolicShape(blocks, 0, datum)
    zero = Weight(tuple(Fraction(0) for _ in range(datum.dim)))
    by_degree = {}
    for d, wt in kostant_weights(zero, datum, shape):
        by_degree[d] = by_degree.get(d, 0) + levi_dim(shape, wt)
    assert by_degree == {k: math.comb(nil_dim, k) for k in range(nil_dim + 1)}


# ---------------------------------------------------------------------------
# the level search against the whole-group filter, and beyond its reach


def brute_force_reps(datum, shape):
    """The whole-group filter: every w whose inverse sends each Levi simple
    root to a positive root, with its length counted over the positive
    roots, sorted by (length, window)."""
    positive = set(datum.positive_roots())
    levi_simples = shape.levi_simple_roots()
    reps = []
    for w in weyl_elements(datum):
        winv = inverse(w)
        if all(act_coords(winv, a) in positive for a in levi_simples):
            reps.append((w.images, length_of(datum, w)))
    return sorted(reps, key=lambda pair: (pair[1], pair[0]))


def compositions(n):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in compositions(n - k)]


def all_shapes(family, rank):
    datum = RootDatum(family, rank)
    if family == "A":
        return [ParabolicShape(b, 0, datum) for b in compositions(datum.dim)]
    return [
        ParabolicShape(b, core, datum)
        for core in range(rank + 1)
        for b in compositions(rank - core)
    ]


SMALL_SHAPES = [
    shape
    for family, ranks in (
        ("A", range(1, 5)), ("B", range(1, 5)), ("C", range(1, 5)), ("D", (2, 3, 4))
    )
    for rank in ranks
    for shape in all_shapes(family, rank)
] + [
    ParabolicShape(blocks, core, RootDatum(family, rank))
    for family, rank, blocks, core in (
        ("C", 5, (2,), 3),
        ("B", 5, (2,), 3),
        ("D", 5, (2,), 3),
        ("D", 5, (4,), 1),
        ("A", 5, (3, 3), 0),
    )
]


def shape_id(shape) -> str:
    return f"{shape.ambient.family}{shape.ambient.rank}-{shape.gl_block_sizes}-{shape.core_rank}"


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
def test_level_search_matches_whole_group_filter(shape):
    datum = shape.ambient
    got = [(w.images, ell) for w, ell in kostant_reps(datum, shape)]
    assert got == brute_force_reps(datum, shape)


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
def test_deodhar_dichotomy(shape):
    """For u minimal in W_M·u and s simple with ℓ(us) = ℓ(u) + 1, counted
    over the positive roots, us is minimal iff u(α_s) is not a simple root
    of the Levi: the step the level search takes."""
    datum = shape.ambient
    reps = {images for images, _ in brute_force_reps(datum, shape)}
    levi = set(shape.levi_simple_roots())
    gens = [SignedPerm(s) for s in _simple_windows(datum.family, datum.dim)]
    for u in map(SignedPerm, reps):
        for s, alpha in zip(gens, datum.simple_roots()):
            us = s.then(u)
            if length_of(datum, us) == length_of(datum, u) + 1:
                assert (us.images in reps) == (act_coords(u, alpha) not in levi), (u, s)


def _sparse(root) -> tuple:
    return tuple((i, c) for i, c in enumerate(root) if c)


def _image(window, root) -> tuple:
    """The sparse root w(α), sorted by index: e_i ↦ ±e_{|w(i)|}."""
    return tuple(sorted([(abs(window[i]) - 1, c if window[i] > 0 else -c) for i, c in root]))


def generic_level_search(datum, shape):
    """The level search with the generic Deodhar step the inlined one
    replaced, kept as an oracle: the sorted image root u(α_s) over every
    simple root, `_then` over the whole window, and a set that drops the
    windows reached from several parents."""
    levi = frozenset(map(_sparse, shape.levi_simple_roots()))
    gens = list(zip(_simple_windows(datum.family, datum.dim), map(_sparse, datum.simple_roots())))
    level, found, ell = [tuple(range(1, datum.dim + 1))], [], 0
    while level:
        found.extend((w, ell) for w in sorted(level))
        nxt = set()
        for u in level:
            for s, alpha in gens:
                image = _image(u, alpha)
                if image[0][1] > 0 and image not in levi:
                    nxt.add(_then(s, u))
        level, ell = nxt, ell + 1
    return found


ORACLE_SHAPES = [
    shape
    for family, ranks in (
        ("A", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)), ("D", range(2, 7))
    )
    for rank in ranks
    for shape in all_shapes(family, rank)
]


@pytest.mark.parametrize(
    "family,rank", sorted({(s.ambient.family, s.ambient.rank) for s in ORACLE_SHAPES})
)
def test_inlined_step_matches_the_generic_step(family, rank):
    """Every shape of A1–A6, B1–B6, C1–C6 and D2–D6."""
    for shape in ORACLE_SHAPES:
        if (shape.ambient.family, shape.ambient.rank) == (family, rank):
            got = [(w.images, ell) for w, ell in kostant_reps(shape.ambient, shape)]
            assert got == generic_level_search(shape.ambient, shape), shape


def weyl_degrees(family, rank):
    """Degrees of the basic invariants of the Weyl group of the given type."""
    if family == "A":
        return list(range(2, rank + 2))
    if family in "BC":
        return [2 * i for i in range(1, rank + 1)]
    if rank == 1:  # D1 is trivial
        return []
    return [2 * i for i in range(1, rank)] + [rank]


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_div(p, q):
    """Exact quotient p / q of integer polynomials with q monic."""
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for i in reversed(range(len(out))):
        out[i] = p[i + len(q) - 1]
        for j, b in enumerate(q):
            p[i + j] -= out[i] * b
    assert not any(p)
    return out


def poincare_quotient(family, rank, blocks, core):
    """Coefficients of ∏[d_i]_t / ∏[d_j^M]_t over the degrees of W and W_M."""
    num, den = [1], [1]
    for d in weyl_degrees(family, rank):
        num = poly_mul(num, [1] * d)
    for fam, r in [("A", b - 1) for b in blocks if b > 1] + ([(family, core)] if core else []):
        for d in weyl_degrees(fam, r):
            den = poly_mul(den, [1] * d)
    return poly_div(num, den)


@pytest.mark.parametrize(
    "family,rank,blocks,core",
    [
        ("C", 7, (3,), 4),
        ("C", 10, (3,), 7),
        ("D", 10, (3,), 7),
        ("A", 8, (3, 3, 3), 0),
        ("C", 10, (5,), 5),
        ("D", 10, (5,), 5),
    ],
)
def test_length_distribution_beyond_brute_force(family, rank, blocks, core):
    datum = RootDatum(family, rank)
    reps = kostant_reps(datum, ParabolicShape(blocks, core, datum))
    dist = poincare_quotient(family, rank, blocks, core)
    got = [0] * len(dist)
    for _, ell in reps:
        got[ell] += 1
    assert got == dist
    assert len({w.images for w, _ in reps}) == len(reps)


SYMPY_TYPES = [
    (family, rank)
    for family, ranks in (
        ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(3, 9)), ("D", range(4, 9))
    )
    for rank in ranks
]


@pytest.mark.parametrize("family,rank", SYMPY_TYPES, ids=lambda v: str(v))
def test_root_datum_matches_sympy(family, rank):
    sympy_root_system = pytest.importorskip("sympy.liealgebras.root_system")
    sympy_cartan_type = pytest.importorskip("sympy.liealgebras.cartan_type")
    name = f"{family}{rank}"
    system = sympy_root_system.RootSystem(name)
    datum = RootDatum(family, rank)

    simples = system.simple_roots()
    assert datum.simple_roots() == [
        tuple(Fraction(int(c)) for c in simples[i]) for i in range(1, rank + 1)
    ]

    positive = sympy_cartan_type.CartanType(name).positive_roots().values()
    positive = sorted(tuple(Fraction(int(c)) for c in r) for r in positive)
    assert sorted(datum.positive_roots()) == positive

    # sympy's entry (i, j) is <α_i, α_j^∨>; RootDatum's is <α_j, α_i^∨>.
    # sympy fails to build the 1×1 matrix of A1, which is (2).
    if rank == 1:
        assert validate(datum) == [[2]]
    else:
        cartan = system.cartan_matrix()
        assert validate(datum) == [[int(cartan[j, i]) for j in range(rank)] for i in range(rank)]

    rho = tuple(sum(r[i] for r in positive) / 2 for i in range(datum.dim))
    assert datum.twice_rho() == tuple(2 * x for x in rho)


# ---------------------------------------------------------------------------
# the Fraction root builders, Levi roots, length and dominance test that the
# integer kernel replaced, kept verbatim as oracles


def fraction_positive_roots(self) -> list:
    n, fam = self.dim, self.family
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            roots.append(tuple(map(Fraction, v)))
    if fam == "A":
        return roots
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i] = v[j] = 1
            roots.append(tuple(map(Fraction, v)))
    if fam == "B":
        for i in range(n):
            v = [0] * n
            v[i] = 1
            roots.append(tuple(map(Fraction, v)))
    elif fam == "C":
        for i in range(n):
            v = [0] * n
            v[i] = 2
            roots.append(tuple(map(Fraction, v)))
    return roots


def fraction_simple_roots(self) -> list:
    n, fam = self.dim, self.family
    simples = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simples.append(tuple(map(Fraction, v)))
    if fam == "B":
        v = [0] * n
        v[n - 1] = 1
        simples.append(tuple(map(Fraction, v)))
    elif fam == "C":
        v = [0] * n
        v[n - 1] = 2
        simples.append(tuple(map(Fraction, v)))
    elif fam == "D":
        v = [0] * n
        v[n - 2] = v[n - 1] = 1
        simples.append(tuple(map(Fraction, v)))
    return simples


def fraction_rho(self) -> Weight:
    half = Fraction(1, 2)
    roots = fraction_positive_roots(self)
    coords = [half * sum(r[i] for r in roots) for i in range(self.dim)]
    return Weight(tuple(coords))


def fraction_levi_simple_roots(self) -> list:
    """Simple roots of the Levi inside the ambient coordinates."""
    n = self.ambient.dim
    simples = []
    offset = 0
    for b in self.gl_block_sizes:
        for i in range(offset, offset + b - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(map(Fraction, v)))
        offset += b
    m = self.core_rank
    if m:
        fam = self.ambient.family
        for i in range(offset, offset + m - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(map(Fraction, v)))
        v = [0] * n
        if fam == "B":
            v[n - 1] = 1
            simples.append(tuple(map(Fraction, v)))
        elif fam == "C":
            v[n - 1] = 2
            simples.append(tuple(map(Fraction, v)))
        elif fam == "D":
            if m >= 2:
                v[n - 2] = v[n - 1] = 1
                simples.append(tuple(map(Fraction, v)))
    return simples


def two_branch_length(self) -> int:
    w = self.images
    t = self.rank
    total = sum(1 for v in w if v < 0)
    for i in range(t):
        for j in range(i + 1, t):
            a, b = w[i], w[j]
            # e_{i+1} - e_{j+1}  maps to  e_a - e_b
            if abs(a) < abs(b):
                if a < 0:
                    total += 1
            else:
                if b > 0:
                    total += 1
            # e_{i+1} + e_{j+1}  maps to  e_a + e_b
            if abs(a) < abs(b):
                if a < 0:
                    total += 1
            else:
                if b < 0:
                    total += 1
    return total


def cartan_is_dominant(self, weight: Weight) -> bool:
    return all(cartan_entry(a, weight.coords) >= 0 for a in fraction_simple_roots(self))


ORACLE_DATA = [
    RootDatum(family, rank)
    for family, ranks in (
        ("A", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)), ("D", range(2, 7))
    )
    for rank in ranks
]


def _all_ints(roots) -> bool:
    return all(type(c) is int for root in roots for c in root)


@pytest.mark.parametrize("datum", ORACLE_DATA, ids=lambda d: f"{d.family}{d.rank}")
def test_integer_roots_match_the_fraction_builders(datum):
    positive, simples = datum.positive_roots(), datum.simple_roots()
    assert positive == fraction_positive_roots(datum) and _all_ints(positive)
    assert simples == fraction_simple_roots(datum) and _all_ints(simples)
    assert tuple(Fraction(x, 2) for x in datum.twice_rho()) == fraction_rho(datum).coords
    n = len(simples)
    fractions = fraction_simple_roots(datum)
    assert validate(datum) == [
        [cartan_entry(fractions[i], fractions[j]) for j in range(n)] for i in range(n)
    ]


@pytest.mark.parametrize("datum", ORACLE_DATA, ids=lambda d: f"{d.family}{d.rank}")
def test_levi_simple_roots_are_the_fraction_ones(datum):
    """Every block composition × core rank, D with core rank 1 included."""
    for shape in all_shapes(datum.family, datum.rank):
        levi = shape.levi_simple_roots()
        assert levi == fraction_levi_simple_roots(shape), shape
        assert _all_ints(levi)
        assert set(levi) <= set(datum.simple_roots())


@pytest.mark.parametrize("t", range(1, 6))
def test_length_matches_the_two_branch_count(t):
    for w in all_signed_perms(t):
        assert w.length() == two_branch_length(w), w


def test_is_dominant_matches_the_cartan_test():
    rng = random.Random(1018)
    seen = set()
    for datum in ORACLE_DATA:
        for _ in range(120):
            coords = [Fraction(rng.randint(-6, 6), 2) for _ in range(datum.dim)]
            if rng.random() < 0.5:
                coords.sort(reverse=True)
            weight = Weight(tuple(coords))
            got = datum.is_dominant(weight.twice)
            assert got == cartan_is_dominant(datum, weight), (datum, weight)
            seen.add((datum.family, got))
    assert seen == {(f, b) for f in "ABCD" for b in (True, False)}


@pytest.mark.parametrize(
    "datum", [d for d in ORACLE_DATA if d.rank <= 4], ids=lambda d: f"{d.family}{d.rank}"
)
def test_kostant_weights_match_fraction_arithmetic(datum):
    """w(λ+ρ)-ρ in Fractions, over the representatives, for a seeded dominant λ."""
    rng = random.Random(datum.dim * 10 + "ABCD".index(datum.family))
    rho = fraction_rho(datum).coords
    for shape in all_shapes(datum.family, datum.rank):
        half = rng.randint(0, 1)
        coords = sorted((Fraction(2 * rng.randint(0, 3) + half, 2) for _ in rho), reverse=True)
        lam = Weight(tuple(coords))
        assert cartan_is_dominant(datum, lam)
        shifted = tuple(x + r for x, r in zip(lam.coords, rho))
        expected = [
            (ell, Weight(tuple(x - r for x, r in zip(act_coords(w, shifted), rho))))
            for w, ell in kostant_reps(datum, shape)
        ]
        assert kostant_weights(lam, datum, shape) == expected


KOSTANT_CASES = [
    ("C", 4, (2,), 2),
    ("C", 5, (2,), 3),
    ("C", 6, (3,), 3),
    ("B", 5, (2,), 3),
    ("D", 5, (2,), 3),
    ("A", 6, (3, 4), 0),
    ("C", 10, (5,), 5),
]


@pytest.mark.parametrize("family,rank,blocks,core", KOSTANT_CASES)
def test_kostant_weights_are_plain_weights(family, rank, blocks, core):
    """The weights skip `Weight.__init__` but are indistinguishable from
    `Weight(coords)`: they hold int tuples and give `Fraction`s back."""
    datum = RootDatum(family, rank)
    shape = ParabolicShape(blocks, core, datum)
    half_odd = tuple(Fraction(2 * k + 1, 2) for k in reversed(range(datum.dim)))
    for lam in ((0,) * datum.dim, half_odd):
        out = kostant_weights(Weight(lam), datum, shape)
        assert len(out) == datum.order() // shape.levi_order()
        for _, w in out:
            ref = Weight(w.coords)
            assert type(w) is Weight and set(vars(w)) == {"twice"}
            assert w == ref and hash(w) == hash(ref) and repr(w) == repr(ref)
            assert type(w.twice) is tuple and all(type(x) is int for x in w.twice)
            assert all(type(c) is Fraction for c in w.coords)


INTEGER_KERNEL = {
    "RootDatum.positive_roots",
    "RootDatum.simple_roots",
    "RootDatum.twice_rho",
    "ParabolicShape.levi_simple_roots",
    "SignedPerm.length",
    "_root",
    "_terms",
    "_pairs_nonnegative",
    "_signed_key",
    "_positive",
    "_kostant_windows",
    "_twice_lambda",
    "_shifted_weights",
    "kostant_reps",
    "RootDatum.is_dominant",
}


def test_integer_kernel_names_no_fraction():
    """Between a weight's input and its output the kernel is integer-only."""
    source = Path(__file__).resolve().parents[1] / "src" / "langkit" / "weyl.py"
    functions = {}
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    functions[f"{node.name}.{fn.name}"] = fn
    for name in sorted(INTEGER_KERNEL):
        used = set()
        for n in ast.walk(functions[name]):
            used.add(n.id if isinstance(n, ast.Name) else getattr(n, "attr", None))
        assert not used & {"Fraction", "rat", "HALF"}, name
