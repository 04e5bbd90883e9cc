"""Root data for the classical families and signed-permutation Weyl groups.

The Weyl group of type B/C in rank t is realized as the group W_t of
permutations w of {±1, ..., ±t} with w(-i) = -w(i).  Its Coxeter length is
taken for the generating set consisting of the adjacent transpositions
s_1, ..., s_{t-1} together with the sign change on position t; length is
computed exactly as the number of positive roots made negative, which is a
closed O(t²) count.

`kostant_reps` returns the minimal-length representatives of W_M\\W for a
standard parabolic with Levi M, and `kostant_weights` the associated
degree-graded dominant-shifted weights w(λ+ρ)-ρ.  The representatives form
a lower ideal of the weak order (Kostant 1961; Björner–Brenti,
*Combinatorics of Coxeter Groups*, §2.4–2.5), so they are found by a level
search upward from the identity on integer windows: the cost follows the
|W|/|W_M| outputs, not the order of W.  Each step u → us is tested by
Deodhar's lemma (Deodhar, Invent. Math. 39, 1977; Björner–Brenti, §2.5):
when u is minimal in W_M·u and u(α_s) > 0, us is minimal in its coset
unless u(α_s) is a simple root of the Levi, so one image root and one set
lookup decide it.

The kernel is integer-only.  Roots are int vectors, built by one helper;
the Levi's simple roots are selected from the datum's, and the roots of
the unipotent radical by an integer pairing; 2ρ is the int sum of the
positive roots; and `kostant_weights` doubles λ once, computes the shifted
weights 2(w(λ+ρ)-ρ) on ints and reads dominance off the sign of an integer
pairing.  `Weight.coords` stay `Fraction`s at the interface.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction
from operator import mul

from .rationals import doubled, rat, rat_str
from .record import Record


class WeylError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weights


class Weight(Record):
    """A coordinate vector of exact half-integers with a rank tag.

    ``context`` is a free-form tag ("C3", "ambient", ...) used only for
    error messages and serialization.
    """

    _fields = ("coords", "context")

    def __init__(self, coords: tuple, context: str = ""):
        coords = tuple(rat(c) for c in coords)
        for c in coords:
            if doubled(c) is None:
                raise WeylError(f"weight coordinate {c} is not half-integral")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "context", context)

    def __len__(self):
        return len(self.coords)

    def __str__(self):
        return "(" + ", ".join(rat_str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# signed permutations


def _then(first: tuple, second: tuple) -> tuple:
    """Window of the composite that applies ``first``, then ``second``."""
    return tuple(second[j - 1] if j > 0 else -second[-j - 1] for j in first)


class SignedPerm(Record):
    """A permutation w of {±1, ..., ±t} with w(-i) = -w(i).

    Stored through the window (w(1), ..., w(t)).  The product convention
    follows word composition left to right: ``u.then(v)`` applies u first.
    """

    _fields = ("images",)

    def __init__(self, images: tuple):
        object.__setattr__(self, "images", tuple(images))
        self.__post_init__()

    def __post_init__(self):
        """Check the window: ints (not bools) whose absolute values are 1..t.
        Every construction runs it, looked up on the class, so the benchmark
        tracer can count constructions by patching it."""
        images = self.images
        seen = sorted(abs(v) if type(v) is int else 0 for v in images)
        if seen != list(range(1, len(images) + 1)):
            raise WeylError(f"not a signed permutation window: {images}")

    @classmethod
    def identity(cls, t: int) -> "SignedPerm":
        return cls(tuple(range(1, t + 1)))

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if i == 0 or abs(i) > self.rank:
            raise WeylError(f"index {i} out of range for rank {self.rank}")
        v = self.images[abs(i) - 1]
        return v if i > 0 else -v

    def then(self, other: "SignedPerm") -> "SignedPerm":
        """The composite word: apply self first, then ``other``."""
        if self.rank != other.rank:
            raise WeylError("rank mismatch in composition")
        return SignedPerm(_then(self.images, other.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.rank + 1))

    def trace(self) -> int:
        """Trace of the signed permutation matrix: the signs at the fixed points."""
        return sum(1 if v > 0 else -1 for i, v in enumerate(self.images, start=1) if abs(v) == i)

    def length(self) -> int:
        """Coxeter length for the generators (1 2), ..., (t-1 t), sign flip at t.

        Counted as the number of positive roots e_i ± e_j (i<j), 2e_i sent
        to negative roots; a root is negative iff its lowest-index nonzero
        coordinate is negative.  For i < j with images a, b, the pair
        e_i ± e_j maps to e_a ± e_b: when |a| < |b| both images have the
        sign of a, and when |a| > |b| exactly one of them is negative.
        """
        w = self.images
        total = sum(1 for v in w if v < 0)
        for i, a in enumerate(w):
            for b in w[i + 1:]:
                if abs(a) > abs(b):
                    total += 1
                elif a < 0:
                    total += 2
        return total

    def __str__(self):
        return "[" + " ".join(str(v) for v in self.images) + "]"


def length_additive(w1: SignedPerm, w2: SignedPerm) -> bool:
    """True iff the lengths add along the product w1·w2 (w1 applied first)."""
    if w1.rank != w2.rank:
        raise WeylError("rank mismatch")
    return w1.then(w2).length() == w1.length() + w2.length()


def _simple_windows(family: str, n: int) -> list:
    """Windows of the simple reflections on n coordinates, in the order of
    `RootDatum.simple_roots`: s_1..s_{n-1}, then the flip at n for B and C,
    or (n-1, n) ↦ (-n, -(n-1)) for D."""
    gens = []
    for i in range(1, n):
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        gens.append(tuple(img))
    img = list(range(1, n + 1))
    if family in "BC":
        img[n - 1] = -n
        gens.append(tuple(img))
    elif family == "D":
        img[n - 2], img[n - 1] = -n, -(n - 1)
        gens.append(tuple(img))
    return gens


def simple_reflections(t: int) -> list:
    """Generators used by the length function: s_1..s_{t-1} and the flip at t."""
    return [SignedPerm(w) for w in _simple_windows("C", t)]


def bfs_length(w: SignedPerm) -> int:
    """Shortest word length over `simple_reflections` by breadth-first search.

    Exponential in the rank; meant as an independent check for rank ≤ 3.
    """
    gens = simple_reflections(w.rank)
    start = SignedPerm.identity(w.rank)
    if w == start:
        return 0
    frontier = {start.images}
    seen = {start.images}
    depth = 0
    while frontier:
        depth += 1
        nxt = set()
        for images in frontier:
            u = SignedPerm(images)
            for s in gens:
                v = u.then(s)
                if v.images == w.images:
                    return depth
                if v.images not in seen:
                    seen.add(v.images)
                    nxt.add(v.images)
        frontier = nxt
    raise WeylError("element not generated")


def all_signed_perms(t: int) -> Iterator[SignedPerm]:
    for perm in itertools.permutations(range(1, t + 1)):
        for signs in itertools.product((1, -1), repeat=t):
            yield SignedPerm(tuple(s * v for s, v in zip(signs, perm)))


# ---------------------------------------------------------------------------
# root data


def _root(n: int, *entries) -> tuple:
    """The integer vector on n coordinates with the given (index, value)
    entries and zeros elsewhere."""
    v = [0] * n
    for i, c in entries:
        v[i] = c
    return tuple(v)


_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
}


class RootDatum(Record):
    """Classical root datum: family A/B/C/D at a given rank.

    Type A_n is realized on n+1 coordinates (roots e_i - e_j), the other
    families on `rank` coordinates with their usual root sets.
    """

    _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in ("A", "B", "C", "D"):
            raise WeylError(f"unknown family {family!r}")
        if type(rank) is not int:
            raise WeylError(f"rank must be an int, not {rank!r}")
        if rank < 1:
            raise WeylError("rank must be positive")
        if family == "D" and rank < 2:
            raise WeylError("family D needs rank ≥ 2")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @property
    def dim(self) -> int:
        """Number of coordinates the Weyl group permutes."""
        return self.rank + 1 if self.family == "A" else self.rank

    def positive_roots(self) -> list:
        """e_i - e_j (i<j), then e_i + e_j (i<j) and e_i (B) or 2e_i (C)."""
        n, fam = self.dim, self.family
        pairs = list(itertools.combinations(range(n), 2))
        roots = [_root(n, (i, 1), (j, -1)) for i, j in pairs]
        if fam != "A":
            roots += [_root(n, (i, 1), (j, 1)) for i, j in pairs]
        if fam in "BC":
            roots += [_root(n, (i, 1 if fam == "B" else 2)) for i in range(n)]
        return roots

    def simple_roots(self) -> list:
        """e_i - e_{i+1}, then e_n (B), 2e_n (C) or e_{n-1} + e_n (D)."""
        n, fam = self.dim, self.family
        simples = [_root(n, (i, 1), (i + 1, -1)) for i in range(n - 1)]
        if fam in "BC":
            simples.append(_root(n, (n - 1, 1 if fam == "B" else 2)))
        elif fam == "D":
            simples.append(_root(n, (n - 2, 1), (n - 1, 1)))
        return simples

    def twice_rho(self) -> tuple:
        """2ρ, the sum of the positive roots."""
        return tuple(map(sum, zip(*self.positive_roots())))

    def order(self) -> int:
        n = self.rank
        if self.family == "A":
            return math.factorial(n + 1)
        if self.family in "BC":
            return 2**n * math.factorial(n)
        return 2 ** (n - 1) * math.factorial(n)

    def is_dominant(self, weight: Weight) -> bool:
        twice = [doubled(c) for c in weight.coords]
        return _pairs_nonnegative(map(_sparse, self.simple_roots()), twice)


class ParabolicShape(Record):
    """Standard-parabolic shape: GL block sizes followed by a core of the
    ambient family.  For type A the blocks partition all coordinates and
    the core is empty."""

    _fields = ("gl_block_sizes", "core_rank", "ambient")

    def __init__(self, gl_block_sizes: tuple, core_rank: int, ambient: RootDatum):
        gl_block_sizes = tuple(gl_block_sizes)
        if any(type(b) is not int for b in gl_block_sizes + (core_rank,)):
            raise WeylError(f"block sizes {gl_block_sizes} and core {core_rank!r} must be ints")
        if any(b < 1 for b in gl_block_sizes):
            raise WeylError("block sizes must be positive")
        if core_rank < 0:
            raise WeylError("core rank must be ≥ 0")
        total = sum(gl_block_sizes) + core_rank
        if ambient.family == "A":
            if core_rank != 0:
                raise WeylError("type A shapes have no core")
            if total != ambient.dim:
                raise WeylError(
                    f"blocks {gl_block_sizes} do not fill {ambient.dim} coordinates"
                )
        else:
            if total != ambient.rank:
                raise WeylError(
                    f"blocks+core {total} do not match ambient rank {ambient.rank}"
                )
        object.__setattr__(self, "gl_block_sizes", gl_block_sizes)
        object.__setattr__(self, "core_rank", core_rank)
        object.__setattr__(self, "ambient", ambient)

    def levi_simple_roots(self) -> list:
        """The ambient simple roots that lie in the Levi: each e_i - e_{i+1}
        that joins no two blocks and no block to the core, then the family's
        last root when the core carries it (core rank ≥ 1 for B and C, ≥ 2
        for D; type A has no core)."""
        ambient = self.ambient
        simples = ambient.simple_roots()
        cuts = set(itertools.accumulate(self.gl_block_sizes))
        levi = [a for i, a in enumerate(simples[: ambient.dim - 1]) if i + 1 not in cuts]
        if self.core_rank >= (2 if ambient.family == "D" else 1):
            levi.append(simples[-1])
        return levi

    def radical_roots(self) -> list:
        """The positive roots of the unipotent radical: those that pair
        positively with the grading element in which block k of b (counted
        from 0) gets b - k on each of its coordinates and the core gets 0."""
        b = len(self.gl_block_sizes)
        h = [b - k for k, size in enumerate(self.gl_block_sizes) for _ in range(size)]
        h += [0] * self.core_rank
        return [root for root in self.ambient.positive_roots() if sum(map(mul, root, h)) > 0]

    def levi_order(self) -> int:
        order = 1
        for b in self.gl_block_sizes:
            order *= math.factorial(b)
        m = self.core_rank
        if m:
            fam = self.ambient.family
            if fam in "BC":
                order *= 2**m * math.factorial(m)
            elif fam == "D":
                order *= 2 ** (m - 1) * math.factorial(m)
        return order


def _sparse(root) -> tuple:
    """A root as the (0-based index, integer coefficient) pairs of its
    nonzero coordinates."""
    return tuple((i, c) for i, c in enumerate(root) if c)


def _pairs_nonnegative(roots, twice) -> bool:
    """Whether the doubled weight ``twice`` pairs non-negatively with each
    sparse root α, which is the sign of ⟨weight, α̌⟩ since (α, α) > 0."""
    return all(sum(c * twice[i] for i, c in root) >= 0 for root in roots)


def _image(window, root) -> tuple:
    """The sparse root w(α) for the signed permutation with this window and
    the sparse root α, sorted by index: e_i ↦ ±e_{|w(i)|}.  It is positive
    iff its first coefficient is."""
    return tuple(sorted([(abs(window[i]) - 1, c if window[i] > 0 else -c) for i, c in root]))


def kostant_reps(datum: RootDatum, shape: ParabolicShape) -> list:
    """Minimal-length coset representatives for the parabolic, with lengths.

    The elements minimal in their coset W_M·w form a lower ideal of the
    weak order (Björner–Brenti, §2.4–2.5), so they are enumerated level by
    level from the identity: level k+1 collects the v = s.then(u) = us
    with u in level k and s simple such that u(α_s) > 0, so the length
    goes up by one.  By Deodhar's lemma (Deodhar, Invent. Math. 39, 1977;
    Björner–Brenti, §2.5) such a v is minimal in its coset unless u(α_s)
    is a simple root of the Levi, in which case us = s'u for the Levi
    reflection s' of that root: one image root and one set lookup decide
    each step.  The level number is the length.  Windows stay plain
    integer tuples; a `SignedPerm` is built only for each returned
    representative.  Result is sorted by (length, window) and its size
    equals |W| / |W_M|.
    """
    if shape.ambient != datum:
        raise WeylError("shape does not belong to this datum")
    levi = frozenset(map(_sparse, shape.levi_simple_roots()))
    gens = list(zip(_simple_windows(datum.family, datum.dim), map(_sparse, datum.simple_roots())))
    top = _POSITIVE_ROOT_COUNTS[datum.family](datum.rank)
    level = [tuple(range(1, datum.dim + 1))]
    found = []
    ell = 0
    while level:
        if ell > top:
            raise WeylError(f"level {ell} exceeds the {top} positive roots")
        found.extend((w, ell) for w in sorted(level))
        nxt = set()
        for u in level:
            for s, alpha in gens:
                image = _image(u, alpha)
                if image[0][1] > 0 and image not in levi:
                    nxt.add(_then(s, u))
        level = nxt
        ell += 1
    expected = datum.order() // shape.levi_order()
    if len(found) != expected:
        raise WeylError(f"found {len(found)} representatives, expected {expected}")
    return [(SignedPerm(w), ell) for w, ell in found]


def kostant_weights(lam: Weight, datum: RootDatum, shape: ParabolicShape) -> list:
    """Degree-graded weights w(λ+ρ)-ρ over the minimal coset representatives.

    λ must be dominant; every returned weight is dominant for the Levi and
    the degree of each entry is the length of its representative.  λ is
    doubled once and the weights are computed doubled, on integers: each
    representative's window acts on 2(λ+ρ) directly, and dominance is read
    off the sign of the integer pairing; a `Fraction` is built again only
    for the returned coordinates.
    """
    if len(lam) != datum.dim:
        raise WeylError("weight rank does not match the datum")
    if not datum.is_dominant(lam):
        raise WeylError(f"weight {lam} is not dominant")
    twice_lam = [doubled(c) for c in lam.coords]
    twice_rho = datum.twice_rho()
    twice_shift = [x + r for x, r in zip(twice_lam, twice_rho)]
    levi = list(map(_sparse, shape.levi_simple_roots()))
    out = []
    for w, ell in kostant_reps(datum, shape):
        acted = [0] * datum.dim
        for x, v in zip(twice_shift, w.images):
            acted[abs(v) - 1] = x if v > 0 else -x
        shifted = [x - r for x, r in zip(acted, twice_rho)]
        if not _pairs_nonnegative(levi, shifted):
            raise WeylError("shifted weight is not Levi-dominant")
        out.append((ell, Weight(tuple(Fraction(x, 2) for x in shifted), lam.context)))
    return out
