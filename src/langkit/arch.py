"""Infinitesimal-character arithmetic and archimedean sign formulas.

Infinitesimal characters are per-embedding multisets of half-integers v,
each held doubled as the int 2v, so the predicates and the sign loop work
on ints; a `Fraction` appears only in `serialize` and in the weight that
`purity_weight` returns.  The predicates (superregularity, disjointness,
regularity of the induced character, the even-orthogonal regularity shape)
gate the pole pipeline; the sign formulas compute the archimedean part of
the functional-equation sign and its invariance certificate.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .rationals import doubled, rat, rat_str
from .record import Record


class ArchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# embeddings and infinitesimal characters


class EmbeddingSet(Record):
    """Embedding labels with the conjugation involution; fixed points are
    the real embeddings, the rest pair up into complex places."""

    _fields = ("labels", "involution")

    def __init__(self, labels: tuple, involution: tuple):
        """``involution`` is ((label, partner), ...) covering all labels."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ArchError("embedding labels must be distinct")
        inv = dict(involution)
        if set(inv) != set(labels):
            raise ArchError("involution must cover exactly the labels")
        for a, b in inv.items():
            if inv.get(b) != a:
                raise ArchError("involution must be its own inverse")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "involution", tuple(sorted(inv.items())))

    @classmethod
    def build(cls, real: Iterable[str] = (), complex_pairs: Iterable[tuple] = ()):
        labels = list(real)
        inv = {x: x for x in real}
        for a, b in complex_pairs:
            labels += [a, b]
            inv[a], inv[b] = b, a
        return cls(tuple(labels), tuple(sorted(inv.items())))

    def partner(self, label: str) -> str:
        return dict(self.involution)[label]

    @property
    def real_labels(self) -> tuple:
        return tuple(x for x in self.labels if self.partner(x) == x)

    @property
    def complex_pairs(self) -> tuple:
        seen, pairs = set(), []
        for x in self.labels:
            y = self.partner(x)
            if y != x and x not in seen:
                pairs.append((x, y))
                seen.update((x, y))
        return tuple(pairs)

    @property
    def d_R(self) -> int:
        return len(self.real_labels)

    @property
    def d_C(self) -> int:
        return len(self.complex_pairs)

    @property
    def degree(self) -> int:
        return self.d_R + 2 * self.d_C


class InfChar(Record):
    """Per-embedding multisets of half-integers v, each given and held as
    the int 2v (never a bool, str or Fraction)."""

    _fields = ("data",)

    def __init__(self, data: tuple):
        """``data`` is ((label, ints 2v), ...), held sorted with each
        multiset in descending order."""
        data = tuple((label, tuple(values)) for label, values in data)
        for label, values in data:
            if any(type(v) is not int for v in values):
                raise ArchError(f"entries at {label} must be ints 2v, not {values!r}")
        data = tuple(sorted((label, tuple(sorted(v, reverse=True))) for label, v in data))
        if len({len(vals) for _, vals in data}) > 1:
            raise ArchError("all embeddings must carry the same number of entries")
        object.__setattr__(self, "data", data)

    def at(self, label: str) -> tuple:
        table = dict(self.data)
        if label not in table:
            raise ArchError(f"no entries at embedding {label!r}")
        return table[label]

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.data)

    def permuted(self, perm: "AutOnEmbeddings") -> "InfChar":
        """Relabel: the new value at ι is the old value at perm⁻¹(ι)."""
        inv = {b: a for a, b in perm.mapping}
        return InfChar(tuple((label, dict(self.data)[inv[label]]) for label in self.labels))

    def serialize(self) -> dict:
        return {label: [rat_str(Fraction(v, 2)) for v in vals] for label, vals in self.data}


class AutOnEmbeddings(Record):
    """A bijection of embedding labels."""

    _fields = ("mapping",)

    def __init__(self, mapping: tuple):
        """``mapping`` is ((label, image), ...)."""
        pairs = tuple(sorted(dict(mapping).items()))
        src = [a for a, _ in pairs]
        dst = [b for _, b in pairs]
        if sorted(src) != sorted(dst):
            raise ArchError("embedding action must be a bijection")
        object.__setattr__(self, "mapping", pairs)

    @classmethod
    def identity(cls, labels: Iterable[str]):
        return cls(tuple((x, x) for x in labels))

    def inverse(self) -> "AutOnEmbeddings":
        return AutOnEmbeddings(tuple((b, a) for a, b in self.mapping))


# ---------------------------------------------------------------------------
# purity


def purity_weight(p: InfChar, emb: EmbeddingSet, degree: int) -> Fraction:
    """The unique weight w with paired entries summing to -w at every
    embedding, checked against the total: the entries over all embeddings
    sum to -[F:Q]·degree·w/2.  Raises when no single w fits."""
    if set(p.labels) != set(emb.labels):
        raise ArchError("infinitesimal character does not match the embeddings")
    candidates = set()
    for label in emb.real_labels:
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
        if len(va) != degree:
            raise ArchError("degree mismatch")
        sums = {va[i] + vb_asc[i] for i in range(degree)}
        if len(sums) != 1:
            raise ArchError(f"inconsistent pairing at complex pair ({a}, {b})")
        candidates.add(-sums.pop())
    if len(candidates) != 1:
        raise ArchError(f"no single weight fits: {sorted(Fraction(c, 2) for c in candidates)}")
    w2 = candidates.pop()
    # the entries sum to -[F:Q]·N·w/2, so their doubles sum to -[F:Q]·N·w2/2
    if 2 * sum(sum(p.at(label)) for label in emb.labels) != -emb.degree * degree * w2:
        raise ArchError("global sum does not match the paired weight")
    return Fraction(w2, 2)


# ---------------------------------------------------------------------------
# regularity predicates, on the doubled entries 2v of an infinitesimal character


def _symmetrize(values) -> tuple:
    vals = sorted(values, reverse=True)
    if vals == sorted((-v for v in vals), reverse=True):
        return tuple(vals)
    return tuple(sorted(vals + [-v for v in vals], reverse=True))


def is_superregular(values) -> bool:
    """Positive entries strictly spaced by at least 2 with smallest ≥ 3/2,
    after closing the multiset under negation.  Odd closures are rejected."""
    closed = _symmetrize(values)
    if not closed:
        raise ArchError("superregularity needs a nonempty multiset")
    if len(closed) % 2:
        raise ArchError("superregularity needs an even symmetric multiset")
    m = len(closed) // 2
    pos = closed[:m]
    if any(pos[i] != -closed[-1 - i] for i in range(m)):
        raise ArchError("multiset is not symmetric under negation")
    for i in range(m - 1):
        if pos[i] < pos[i + 1] + 4:
            return False
    return pos[-1] >= 3


def is_disjoint(p, q) -> bool:
    """No entry of p shifted by ±1/2 meets an entry of q."""
    qs = set(q)
    return all(x + s not in qs for x in p for s in (1, -1))


def strictly_gapped(values) -> bool:
    """Entries strictly decreasing with consecutive differences ≥ 2.

    The asymmetric variant of superregularity used for conjugate-self-dual
    data, where the multiset need not be negation-closed.
    """
    vals = sorted(values, reverse=True)
    return all(vals[i] - vals[i + 1] >= 4 for i in range(len(vals) - 1))


def strictly_decreasing(values) -> bool:
    return all(values[i] > values[i + 1] for i in range(len(values) - 1))


def is_SO_regular(values) -> bool:
    """Shape p_1 > ... > p_n ≥ -p_n > ... > -p_1: strictly decreasing and
    symmetric, with equality allowed only at the middle."""
    vals = tuple(sorted(values, reverse=True))
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


def induced_regular(p, q) -> bool:
    """The merged multiset {p_i ± 1/2} ∪ {q_j} has no repeated entry, with
    the single exception of 0 at multiplicity ≤ 2."""
    merged = [x + s for x in p for s in (1, -1)] + list(q)
    counts: dict = {}
    for v in merged:
        counts[v] = counts.get(v, 0) + 1
    for v, c in counts.items():
        if c > 2 or (c == 2 and v != 0):
            return False
    return True


def algebraicity_required(n: int, r: int) -> str:
    """Algebraicity class the parity of n+r forces on the degree-n factor."""
    return "algebraic" if (n + r) % 2 == 1 else "half_algebraic"


# ---------------------------------------------------------------------------
# fourth roots of unity and archimedean signs


class I4(Record):
    """Exact fourth root of unity i^k."""

    _fields = ("k",)

    def __init__(self, k: int):
        object.__setattr__(self, "k", k % 4)

    def __str__(self):
        return ("1", "i", "-1", "-i")[self.k]


def eps_arch(kind: str, a, b=None) -> I4:
    """Local archimedean epsilon value.

    kind="real_induced": i^{2a+1} for the two-dimensional induced
    parameter with exponent a ∈ (1/2)Z≥0.  kind="complex": i^{|a-b|} for
    the character z ↦ z^a z̄^b (a-b integral).  kind="restriction":
    (-1)^{2a} for the restriction of the induced parameter.
    """
    if kind == "real_induced":
        a2 = doubled(rat(a))
        if a2 is None or a2 < 0:
            raise ArchError("need a ∈ (1/2)Z≥0")
        return I4(a2 + 1)
    if kind == "complex":
        a, b = rat(a), rat(b)
        if (a - b).denominator != 1:
            raise ArchError("character exponents must differ by an integer")
        return I4(int(abs(a - b)))
    if kind == "restriction":
        a2 = doubled(rat(a))
        if a2 is None:
            raise ArchError("need a half-integral")
        return I4(2 * a2)
    raise ArchError(f"unknown kind {kind!r}")


def root_number_selfdual(
    emb: EmbeddingSet,
    p: InfChar,
    q: InfChar,
    r: int,
    t: int,
):
    """Archimedean sign of the pair at the center, with its invariance
    certificate.

    Real embeddings contribute (-1)^{p_i+q_j+1/2} over pairs with positive
    sum; complex places contribute (-1)^{2p_i+2q_j} over the same pairs;
    the complex-place count enters through (-1)^{c·r·t/2}, which requires
    c·r·t even.  The entries are held doubled, so a pair sum is the int
    s2 = 2p_i + 2q_j and the sign is (-1) to the sum of the exponents.  The
    certificate records that the formula depends only on the multiset of
    per-embedding data, hence is fixed by every relabeling.
    """
    c = emb.d_C
    if (c * r * t) % 2:
        raise ArchError("hypothesis violated: complex-place count times degrees must be even")
    exponent = c * r * t // 2
    for label in emb.real_labels:
        q2 = q.at(label)
        for a in p.at(label):
            for b in q2:
                s2 = a + b
                if s2 > 0:
                    if s2 % 2 == 0:
                        raise ArchError("hypothesis violated: pair weights must be half-integral")
                    exponent += (s2 + 1) // 2
    for label, _ in emb.complex_pairs:
        q2 = q.at(label)
        for a in p.at(label):
            for b in q2:
                s2 = a + b
                if s2 > 0:
                    exponent += s2
    certificate = {
        "invariant": True,
        "reason": "depends only on the multiset of per-embedding exponent pairs",
        "rule": "arch-sign-multiset-invariance",
    }
    return (-1) ** (exponent % 2), certificate


def invariance_ratio_conjdual(
    r: int,
    t: int,
    d_C: int,
    eps_sqrt_disc: int = 1,
    eps_i: int = 1,
    discriminant_consistency: bool = True,
) -> int:
    """Product of the two transport-ratio contributions for a conjugate
    self-dual pair: (a(√d)/√d)^{rt} from the finite places and
    (a(i)/i)^{d_C·r·t} from the complex ones.

    With the discriminant-sign relation imposed (sign of the discriminant
    equals (-1)^{d_C}) the combined ratio collapses to 1; without the flag
    the raw product is returned.
    """
    for s in (eps_sqrt_disc, eps_i):
        if s not in (1, -1):
            raise ArchError("ratio inputs are signs")
    if (r * t) % 2 == 0:
        return 1
    if discriminant_consistency:
        return 1
    return (eps_sqrt_disc ** (r * t % 2)) * (eps_i ** ((d_C * r * t) % 2))


def parity_of_order(eps: int) -> str:
    """Central vanishing-order parity forced by the functional-equation
    sign."""
    if eps == 1:
        return "even"
    if eps == -1:
        return "odd"
    raise ArchError("sign must be ±1")
