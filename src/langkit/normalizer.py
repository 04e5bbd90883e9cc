"""Quasi-tempered decompositions and the normalization-factor engine.

A quasi-tempered linear-group representation is a product of discrete
blocks twisted by exponents of absolute value < 1/2; the self-dual side
splits into untwisted discrete parts and inverse pairs with exponents in
(0, 1/2).  `factor_normalization` expands the normalization factor into
the four elementary ratio families; `classify_holomorphy` certifies every
factor on the region Re(s) ≥ 1/2 except the minus-twist pair factors,
which it returns as the pole candidates (a ratio's status is its family);
`intertwining_word` checks the block-word decomposition and reports its
lengths; and `holomorphy_verdict` assembles the full certificate via the
rank-one bounds.
"""

from __future__ import annotations

from fractions import Fraction

from . import rules
from .eisenstein import LFactorRef, refuse_open_choices
from .rationals import HALF, rat, rat_str
from .record import Record
from .weyl import SignedPerm, length_additive


class NormalizerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# decompositions


class DiscreteSegment(Record):
    """Discrete block datum: a label and its twist a.

    The block itself (cuspidal support, size m, ladder height h) stays
    opaque; every bound below uses only the twist exponent.
    """

    _fields = ("label", "a")

    def __init__(self, label: str, a: Fraction = Fraction(0)):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "a", rat(a))


class QuasiTemperedGL(Record):
    """Product of discrete blocks (at least one) with exponents |a_i| < 1/2,
    sorted descending."""

    _fields = ("segments",)

    def __init__(self, segments: tuple):
        segs = tuple(
            sorted(segments, key=lambda s: (-s.a, s.label))
        )
        if not segs:
            raise NormalizerError("need at least one discrete block")
        for s in segs:
            if not (abs(s.a) < HALF):
                raise NormalizerError(
                    f"not quasi-tempered: block {s.label} has exponent {rat_str(s.a)}"
                )
        object.__setattr__(self, "segments", segs)


class QuasiTemperedSelfdual(Record):
    """Untwisted discrete parts (at least one) plus inverse pairs with
    exponents strictly inside (0, 1/2)."""

    _fields = ("selfdual_parts", "paired_parts")

    def __init__(self, selfdual_parts: tuple, paired_parts: tuple):
        """``selfdual_parts`` are labels, ``paired_parts`` ((label, b), ...)."""
        selfdual_parts = tuple(selfdual_parts)
        pairs = tuple((label, rat(b)) for label, b in paired_parts)
        if not selfdual_parts:
            raise NormalizerError("need at least one untwisted discrete part")
        for label, b in pairs:
            if not (0 < b < HALF):
                raise NormalizerError(
                    f"not quasi-tempered: pair {label} has exponent {rat_str(b)}"
                )
        object.__setattr__(self, "selfdual_parts", selfdual_parts)
        object.__setattr__(self, "paired_parts", pairs)


# ---------------------------------------------------------------------------
# elementary ratios


class Ratio(LFactorRef):
    """L(arg, kind)/L(arg+1, kind) for the factor L(arg, kind) of one of the
    families "i", "ii-", "ii+", "iii", "iv"."""

    _fields = ("family", "kind", "alpha", "beta")

    def __init__(self, family: str, kind: tuple, alpha: int, beta: Fraction):
        super().__init__(kind, alpha, beta)
        object.__setattr__(self, "family", family)


# the scenario's names for the auxiliary square -> the kind prefix of its factor
AUX_KINDS = {
    "wedge2": ("wedge2",),
    "sym2": ("sym2",),
    "asai+": ("asai", 1),
    "asai-": ("asai", -1),
}


def factor_normalization(
    pi: QuasiTemperedGL, rho: QuasiTemperedSelfdual, aux_kind: str = "wedge2"
) -> list:
    """The four elementary ratio families of the normalization factor;
    ``aux_kind`` is a key of `AUX_KINDS`, as the scenario reader checks it.

    (i)   pair of each block with the untwisted discrete part, at s+a_i;
    (ii)  pairs with each inverse pair at s+a_i∓b_j (the minus twist is the
          only normalization-relevant family);
    (iii) cross pairs of blocks at 2s+a_i+a_j, i<j;
    (iv)  the auxiliary square of each block at 2s+2a_i.
    """
    out = []
    rho_label = "+".join(rho.selfdual_parts)
    for seg in pi.segments:
        out.append(Ratio("i", ("rankin", seg.label, rho_label), 1, seg.a))
    for seg in pi.segments:
        for lab, b in rho.paired_parts:
            out.append(Ratio("ii-", ("rankin", seg.label, f"{lab}^"), 1, seg.a - b))
            out.append(Ratio("ii+", ("rankin", seg.label, lab), 1, seg.a + b))
    segs = pi.segments
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            out.append(
                Ratio("iii", ("rankin", segs[i].label, segs[j].label), 2, segs[i].a + segs[j].a)
            )
    for seg in pi.segments:
        out.append(Ratio("iv", AUX_KINDS[aux_kind] + (seg.label,), 2, 2 * seg.a))
    return out


def square_expansion(pi: QuasiTemperedGL) -> list:
    """Direct expansion of the alternating square of the product: squares
    of the blocks plus the pairwise tensor factors."""
    out = []
    segs = pi.segments
    for seg in segs:
        out.append(Ratio("iv", AUX_KINDS["wedge2"] + (seg.label,), 2, 2 * seg.a))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            out.append(
                Ratio("iii", ("rankin", segs[i].label, segs[j].label), 2, segs[i].a + segs[j].a)
            )
    return out


def verify_wedge_expansion(pi: QuasiTemperedGL) -> bool:
    """Families (iii)+(iv) of the normalization factor coincide, as a
    multiset of (kind, argument) pairs, with the square expansion."""
    rho = QuasiTemperedSelfdual(("1",), ())
    got = [
        (r.kind, r.alpha, r.beta)
        for r in factor_normalization(pi, rho, "wedge2")
        if r.family in ("iii", "iv")
    ]
    want = [(r.kind, r.alpha, r.beta) for r in square_expansion(pi)]
    return sorted(got) == sorted(want)


def classify_holomorphy(ratios) -> list:
    """The pole candidates on Re(s) ≥ 1/2: the minus-twist ratios, in order.

    All numerators have argument real part ≥ alpha/2 + beta; with
    tempered inducing data a positive bound certifies holomorphic nonzero.
    The minus-twist family is the only one whose bound can be ≤ 0; any
    other ratio with a bound ≤ 0 is refused.  Denominators sit one unit
    further right and are never candidates.
    """
    candidates = []
    for ratio in ratios:
        if ratio.family == "ii-":
            candidates.append(ratio)
        elif ratio.alpha * HALF + ratio.beta <= 0:
            raise NormalizerError(f"unbounded argument: {ratio.serialize()}")
    return candidates


# ---------------------------------------------------------------------------
# block words


def block_shuffle_word(t: int, u: int) -> SignedPerm:
    """Move the t twisted blocks past the u pair blocks."""
    images = [u + i for i in range(1, t + 1)] + list(range(1, u + 1))
    return SignedPerm(tuple(images))


def flip_word(t: int, u: int) -> SignedPerm:
    """Send the pair blocks forward and flip the t twisted blocks in
    reverse order."""
    images = [t + i for i in range(1, u + 1)] + [-(t + 1 - i) for i in range(1, t + 1)]
    return SignedPerm(tuple(images))


def full_word(t: int, u: int) -> SignedPerm:
    """Reverse and flip the twisted blocks, fixing the pair blocks."""
    images = [-(t + 1 - i) for i in range(1, t + 1)] + [t + i for i in range(1, u + 1)]
    return SignedPerm(tuple(images))


def intertwining_word(t: int, u: int) -> dict:
    """The length report {shuffle, flip, full} of the block shuffle, the
    flip and the full word.

    Lengths are tu, tu + t(t-1)/2 + t and t(t-1)/2 + 2tu + t; the product
    of the factors (first applied first) is the full word and the lengths
    add, or `NormalizerError` is raised.  ``t`` ≥ 1 and ``u`` ≥ 0, as its
    callers pass them: a `QuasiTemperedGL` holds at least one block.
    """
    w1, w2, w = block_shuffle_word(t, u), flip_word(t, u), full_word(t, u)
    lengths = (w1.length(), w2.length(), w.length())
    expected = (
        t * u,
        t * u + t * (t - 1) // 2 + t,
        t * (t - 1) // 2 + 2 * t * u + t,
    )
    if lengths != expected:
        raise NormalizerError(f"length report {lengths} does not match {expected}")
    if w1.then(w2) != w or not length_additive(w1, w2):
        raise NormalizerError("block word does not decompose additively")
    return {"shuffle": lengths[0], "flip": lengths[1], "full": lengths[2]}


# ---------------------------------------------------------------------------
# the verdict


def holomorphy_verdict(
    pi: QuasiTemperedGL,
    rho: QuasiTemperedSelfdual,
    aux_kind: str,
    strict: bool,
) -> dict:
    """The normalized operator is holomorphic on Re(s) ≥ 1/2 and not
    identically zero on Re(s) = 1/2; returns the report payload.
    ``aux_kind`` is a key of `AUX_KINDS`; ``strict`` refuses open choices.

    Certificate parts: the normalization ratio divided by the minus-twist
    pair ratios is holomorphic nonzero on the region; the normalized
    rank-one operators against the pairs have argument real part inside
    (-1/2, 1) at the critical line, hence are invertible there; the
    remaining rank-one operators have positive-real-part arguments.
    """
    warnings = ["word-length-additivity"]
    refuse_open_choices(warnings, strict)
    ratios = factor_normalization(pi, rho, aux_kind)
    candidates = classify_holomorphy(ratios)
    cert = [
        rules.cited(
            f"{len(ratios) - len(candidates)} ratio factors are holomorphic nonzero on the "
            "region; only the minus-twist pair factors remain",
            "ratio-bound-positive",
            part="normalization-ratio",
        )
    ]
    t, u = len(pi.segments), len(rho.paired_parts)
    lengths = intertwining_word(t, u)
    if u:
        windows = []
        for seg in pi.segments:
            for lab, b in rho.paired_parts:
                value = seg.a + HALF - b  # Re of the argument at Re(s) = 1/2
                if not (Fraction(-1, 2) < value < 1):
                    raise NormalizerError("rank-one window violated")
                windows.append(
                    f"{seg.label} vs {lab}: Re(arg) = {rat_str(value)} in (-1/2, 1)"
                )
        cert.append(
            rules.cited(
                "normalized rank-one operators against the pairs are holomorphic for "
                "Re(s) ≥ 1/2 and invertible on Re(s) = 1/2: " + "; ".join(windows),
                "gl-block-window",
                part="gl-blocks",
            )
        )
    positives = [f"{seg.label}: Re(a+s) ≥ {rat_str(seg.a + HALF)} > 0" for seg in pi.segments]
    cert.append(
        rules.cited(
            "remaining rank-one operators have positive argument real part: "
            + "; ".join(positives),
            "positivity-holomorphy",
            part="non-normalized",
        )
    )
    return {
        "statement": "holomorphic on Re(s) >= 1/2; not identically zero on Re(s) = 1/2",
        "certificate": cert,
        "word_lengths": lengths,
        "warnings": warnings,
    }
