"""Root data for the classical families and signed-permutation Weyl groups.

The Weyl group of type B/C in rank t is realized as the group W_t of
permutations w of {±1, ..., ±t} with w(-i) = -w(i).  Its Coxeter length is
taken for the generating set consisting of the adjacent transpositions
s_1, ..., s_{t-1} together with the sign change on position t; length is
computed exactly as the number of positive roots made negative, which is a
closed O(t²) count.  Its oracle, `bfs_lengths`, is one breadth-first search
per rank: a table of the word length of every element.

`kostant_reps` returns the minimal-length representatives of W_M\\W for a
standard parabolic with Levi M, and `kostant_weights` the associated
degree-graded dominant-shifted weights w(λ+ρ)-ρ.  The representatives form
a lower ideal of the weak order (Kostant 1961; Björner–Brenti,
*Combinatorics of Coxeter Groups*, §2.4–2.5), so they are found by a level
search upward from the identity on integer windows: the cost follows the
|W|/|W_M| outputs, not the order of W.  Each step u → us is tested by
Deodhar's lemma (Deodhar, Invent. Math. 39, 1977; Björner–Brenti, §2.5):
when u is minimal in W_M·u and u(α_s) > 0, us is minimal in its coset
unless u(α_s) is a simple root of the Levi.  A simple root lies on one or
two adjacent coordinates, so the step reads two window entries: one sign
comparison settles a descent, and only an ascent builds the image root's
key for one set lookup and rewrites one or two entries.  Each
representative is built once, from the parent reached through its first
descent.

The kernel is integer-only.  Roots are int vectors, built by one helper;
the Levi's simple roots are selected from the datum's, and the roots of
the unipotent radical by an integer pairing; 2ρ is the int sum of the
positive roots.  The search runs once per `ParabolicShape` object, the
first time its windows are read, and the shape keeps them as a cached
attribute, `_windows`, which is not a field.  `_kostant_windows` checks
that the shape belongs to the datum and hands out the kept windows to
`kostant_reps`, which wraps them in `SignedPerm`s on every call, and to
`kostant_weights` (and the `kostant` command), which act with the raw
windows: the shifted weights 2(w(λ+ρ)-ρ) are computed on ints, each
window reading its entries from one table per call that holds, for each
position and window value, the entry 2(λ+ρ) sends there less 2ρ, and
dominance is read off the sign of an integer pairing.  A `Weight` holds
its coordinates doubled, so no `Fraction` is built between
`Weight(coords)` and the rendered output; `Weight.coords` derives them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from fractions import Fraction
from operator import mul

from .rationals import doubled, half_str, rat
from .record import Record


class WeylError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weights


class Weight(Record):
    """A coordinate vector of exact half-integers x, held as the ints 2x in
    ``twice``; it is built from the coordinates themselves."""

    _fields = ("twice",)

    def __init__(self, coords: tuple):
        twice = []
        for c in map(rat, coords):
            x = doubled(c)
            if x is None:
                raise WeylError(f"weight coordinate {c} is not half-integral")
            twice.append(x)
        object.__setattr__(self, "twice", tuple(twice))

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(x, 2) for x in self.twice)


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


def length_additive(w1: SignedPerm, w2: SignedPerm) -> bool:
    """True iff the lengths add along the product w1·w2 (w1 applied first)."""
    if w1.rank != w2.rank:
        raise WeylError("rank mismatch")
    return w1.then(w2).length() == w1.length() + w2.length()


def simple_reflections(t: int) -> list:
    """Generators used by the length function: s_1..s_{t-1} and the flip at t."""
    ident = tuple(range(1, t + 1))
    swaps = [ident[:i - 1] + (i + 1, i) + ident[i + 1:] for i in range(1, t)]
    return [SignedPerm(w) for w in swaps + [ident[:-1] + (-t,)]]


def bfs_lengths(t: int) -> dict:
    """Shortest word length over `simple_reflections` of every element of
    W_t, keyed by window: one breadth-first search from the identity.

    Linear in |W_t| = 2^t·t!; meant as an independent check on
    `SignedPerm.length` at small rank.
    """
    gens = simple_reflections(t)
    start = SignedPerm.identity(t)
    depths = {start.images: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for s in gens:
                v = u.then(s)
                if v.images not in depths:
                    depths[v.images] = depth
                    nxt.append(v)
        frontier = nxt
    return depths


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

    def is_dominant(self, twice: tuple) -> bool:
        """Whether the weight with doubled coordinates ``twice`` is dominant."""
        return _pairs_nonnegative(map(_terms, self.simple_roots()), twice)


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

    @functools.cached_property
    def _windows(self) -> tuple:
        """The level search behind `_kostant_windows`: ((window, length), ...)
        with int-tuple windows, sorted by (length, window).  It runs the
        first time a shape's windows are read and the shape keeps them: a
        cached attribute is not a field, so equality, hash and repr do not
        see it, and a search that raises stores nothing.

        The simple roots, in the order of `RootDatum.simple_roots`, are
        α_i = e_i - e_{i+1} (0-based, i < n-1), then the last root: e_{n-1} for
        B, 2e_{n-1} for C, e_{n-2} + e_{n-1} for D.  For a window u, u(α_i) is
        keyed (`_signed_key`) by a = u[i] and -b = -u[i+1], and us swaps those
        two entries; the last root's image is keyed by u[n-1] (B, C) or by
        u[n-2] and u[n-1] (D), and us negates the one entry or swaps and
        negates the two.  The image is positive iff the entry of smaller
        absolute value is (a for |a| < |b|, else -b), so a descent costs one
        comparison; only for an ascent is the key built and looked up in the
        Levi.

        Each v is built once, from the u = vs where s is v's first descent in
        that order: us is kept only when (us)(α_j) > 0 for each simple root
        α_j before α_s.  For α_j orthogonal to α_s that is u(α_j) > 0, so the
        scan over s stops two places after u's first descent; for the one α_j
        joined to α_s in the Dynkin diagram it is read off two entries of u.
        """
        datum = self.ambient
        n, family = datum.dim, datum.family
        levi = frozenset(map(_signed_key, self.levi_simple_roots()))
        top = _POSITIVE_ROOT_COUNTS[family](datum.rank)
        steps = [(i, i + 1, i + 2) for i in range(n - 1)]
        level = [tuple(range(1, n + 1))]
        found = []
        ell = 0
        while level:
            if ell > top:
                raise WeylError(f"level {ell} exceeds the {top} positive roots")
            level.sort()
            found += [(u, ell) for u in level]
            nxt = []
            add = nxt.append
            for u in level:
                first = n  # u's first descent among the α_i seen so far
                for i, j, k in steps:
                    if first < i - 1:
                        break
                    a = u[i]
                    b = u[j]
                    if a < 0 if abs(a) < abs(b) else b > 0:
                        if first == n:
                            first = i
                    # an ascent: u(α_i) not a Levi root, and (us)(α_{i-1}) > 0,
                    # the root keyed (u[i-1], -b)
                    elif ((a, -b) if abs(a) < abs(b) else (-b, a)) not in levi and (
                        i == 0 or (u[i - 1] > 0 if abs(u[i - 1]) < abs(b) else b < 0)
                    ):
                        add(u[:i] + (b, a) + u[k:])
                if family == "D" and first >= n - 3:
                    # α_{n-2} is orthogonal to the last root, α_{n-3} joined to it
                    a, b = u[-2], u[-1]
                    key = (a, b) if abs(a) < abs(b) else (b, a)
                    if (key[0] > 0 and key not in levi
                            and (a > 0 if abs(a) < abs(b) else b < 0)
                            and (n == 2 or (u[-3] > 0 if abs(u[-3]) < abs(b) else b > 0))):
                        add(u[:-2] + (-b, -a))
                elif family in "BC" and first >= n - 2:
                    c = u[-1]
                    if c > 0 and c not in levi and (n == 1 or u[-2] > 0 or abs(u[-2]) > c):
                        add(u[:-1] + (-c,))
            level = nxt
            ell += 1
        expected = datum.order() // self.levi_order()
        if len(found) != expected:
            raise WeylError(f"found {len(found)} representatives, expected {expected}")
        return tuple(found)


def _terms(root) -> tuple:
    """A root on one or two coordinates as (a, i, b, j), so that its pairing
    with a vector x is a·x[i] + b·x[j] (b = 0 on one coordinate)."""
    (i, a), *rest = ((i, c) for i, c in enumerate(root) if c)
    j, b = rest[0] if rest else (i, 0)
    return a, i, b, j


def _pairs_nonnegative(terms, twice) -> bool:
    """Whether the doubled weight ``twice`` pairs non-negatively with each
    root given by its `_terms`, which is the sign of ⟨weight, α̌⟩ since
    (α, α) > 0."""
    return all(a * twice[i] + b * twice[j] >= 0 for a, i, b, j in terms)


def _signed_key(root):
    """A root as signed 1-based coordinate indices: ±(i+1) for each nonzero
    coordinate i, with the sign of its coefficient.  A root on two
    coordinates (coefficients ±1) is the pair in index order, a root on one
    coordinate the bare int.  For a window w, w(α) is keyed by the same
    rule from the window's entries, and it is positive iff its first entry
    is, the one of smaller absolute value."""
    key = tuple(i + 1 if c > 0 else -i - 1 for i, c in enumerate(root) if c)
    return key if len(key) == 2 else key[0]


def _kostant_windows(datum: RootDatum, shape: ParabolicShape) -> tuple:
    """The minimal coset windows of ``shape``: ((window, length), ...) with
    int-tuple windows, sorted by (length, window).  The shape must belong to
    ``datum``, which is checked on every call.  The level search itself
    (`ParabolicShape._windows`) runs once per shape object, the first time
    its windows are read, and the shape keeps them: `kostant_reps` and
    `kostant_weights` on one shape search once between them.
    """
    if shape.ambient != datum:
        raise WeylError("shape does not belong to this datum")
    return shape._windows


def kostant_reps(datum: RootDatum, shape: ParabolicShape) -> list:
    """Minimal-length coset representatives for the parabolic, with lengths.

    The elements minimal in their coset W_M·w form a lower ideal of the
    weak order (Björner–Brenti, §2.4–2.5), so they are enumerated level by
    level from the identity: level k+1 collects the v = s.then(u) = us
    with u in level k and s simple such that u(α_s) > 0, so the length
    goes up by one.  By Deodhar's lemma (Deodhar, Invent. Math. 39, 1977;
    Björner–Brenti, §2.5) such a v is minimal in its coset unless u(α_s)
    is a simple root of the Levi, in which case us = s'u for the Levi
    reflection s' of that root: two window entries and one set lookup
    decide each step, and each v is reached from one parent only
    (`ParabolicShape._windows`).  The level number is the length.  The
    search runs once per shape object, which keeps its windows, so a
    later `kostant_weights` on the same shape does not search again; a
    `SignedPerm` is built for each returned representative on every call.
    Result is sorted by (length, window) and its size equals |W| / |W_M|.
    """
    return [(SignedPerm(w), ell) for w, ell in _kostant_windows(datum, shape)]


def _twice_lambda(twice_lam: tuple, datum: RootDatum) -> tuple:
    """2λ, the int tuple ``twice_lam``, once λ is checked to be a dominant
    weight of the datum."""
    if len(twice_lam) != datum.dim:
        raise WeylError("weight rank does not match the datum")
    if not datum.is_dominant(twice_lam):
        raise WeylError(f"weight ({', '.join(map(half_str, twice_lam))}) is not dominant")
    return twice_lam


def _shifted_weights(twice_lam: tuple, datum: RootDatum, shape: ParabolicShape, windows) -> list:
    """The step behind `kostant_weights`: [(length, w(λ+ρ)-ρ)] over the
    (window, length) pairs of `_kostant_windows`, for 2λ = ``twice_lam``.

    A window w sends coordinate j of 2(λ+ρ) to coordinate |w[j]|-1 with the
    sign of w[j], so one table per call serves every window: ``rows[j][v]``
    is the doubled entry that the value v at position j writes there, 2ρ
    already subtracted (a negative v reads from the end of the row).
    """
    twice_rho = datum.twice_rho()
    n = len(twice_rho)
    rows = []
    for x, r in zip(twice_lam, twice_rho):
        row = [0] * (2 * n + 1)
        for c, rc in enumerate(twice_rho, start=1):
            row[c] = x + r - rc
            row[-c] = -x - r - rc
        rows.append(row)
    levi = list(map(_terms, shape.levi_simple_roots()))
    new = Weight.__new__
    out = []
    for w, ell in windows:
        shifted = [0] * n
        for row, v in zip(rows, w):
            shifted[abs(v) - 1] = row[v]
        for a, i, b, j in levi:
            if a * shifted[i] + b * shifted[j] < 0:
                raise WeylError("shifted weight is not Levi-dominant")
        weight = new(Weight)  # already doubled: nothing to convert
        object.__setattr__(weight, "twice", tuple(shifted))
        out.append((ell, weight))
    return out


def kostant_weights(lam: Weight, datum: RootDatum, shape: ParabolicShape) -> list:
    """Degree-graded weights w(λ+ρ)-ρ over the minimal coset representatives.

    λ must be dominant; every returned weight is dominant for the Levi and
    the degree of each entry is the length of its representative.  Both
    are checked on every call.  The windows are the ones the shape keeps
    (`_kostant_windows`): a shape already asked for `kostant_reps` is not
    searched again.  The weights are computed doubled, on integers: each
    window reads its entries of 2(w(λ+ρ)-ρ) from one table built per call
    (`_shifted_weights`), dominance is read off the sign of the integer
    pairing, and each returned `Weight` keeps the doubled coordinates.
    """
    twice_lam = _twice_lambda(lam.twice, datum)
    return _shifted_weights(twice_lam, datum, shape, _kostant_windows(datum, shape))
