"""Quasi-tempered decompositions and the normalization-factor engine.

A quasi-tempered linear-group representation is a product of discrete
blocks twisted by exponents of absolute value < 1/2; the self-dual side
splits into untwisted discrete parts and inverse pairs with exponents in
(0, 1/2).  `factor_normalization` expands the normalization factor into
the four elementary ratio families; `classify_holomorphy` certifies every
factor on the region Re(s) ≥ 1/2 except the minus-twist pair factors; and
`holomorphy_verdict` assembles the full certificate via the rank-one
bounds and the block-word decomposition.
"""

from __future__ import annotations

from fractions import Fraction

from . import rules
from .rationals import HALF, rat, rat_str
from .record import Record
from .weyl import SignedPerm, length_additive


class NormalizerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# decompositions


class DiscreteSegment(Record):
    """Discrete block datum: cuspidal size m, ladder height h, twist a.

    The cuspidal support itself stays opaque; every bound below uses only
    the twist exponent.
    """

    _fields = ("label", "m", "h", "a")

    def __init__(self, label: str, m: int, h: int, a: Fraction = Fraction(0)):
        a = rat(a)
        if m < 1 or h < 1:
            raise NormalizerError("segment sizes are positive")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "a", a)


class QuasiTemperedGL(Record):
    """Product of discrete blocks with exponents |a_i| < 1/2, sorted
    descending."""

    _fields = ("segments",)

    def __init__(self, segments: tuple):
        segs = tuple(
            sorted(segments, key=lambda s: (-s.a, s.label))
        )
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


class Ratio(Record):
    """L(arg, kind)/L(arg+1, kind) with arg = slope·s + offset."""

    _fields = ("family", "kind", "slope", "offset")

    def __init__(self, family: str, kind: tuple, slope: int, offset: Fraction):
        """``family`` is one of "i", "ii-", "ii+", "iii", "iv"."""
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "offset", rat(offset))

    def arg_str(self) -> str:
        base = f"{self.slope}s" if self.slope != 1 else "s"
        if self.offset:
            base += f"+{rat_str(self.offset)}" if self.offset > 0 else rat_str(self.offset)
        return base

    def serialize(self) -> dict:
        return {
            "family": self.family,
            "numerator": f"L({self.arg_str()}, {self._body()})",
            "denominator": f"L({self.arg_str()}+1, {self._body()})",
        }

    def _body(self) -> str:
        k = self.kind
        if k[0] == "pair":
            return f"{k[1]} x {k[2]}"
        return f"{k[1]}, {k[0]}"


AUX_KINDS = ("wedge2", "sym2", "asai+", "asai-")


def factor_normalization(
    pi: QuasiTemperedGL, rho: QuasiTemperedSelfdual, aux_kind: str = "wedge2"
) -> list:
    """The four elementary ratio families of the normalization factor.

    (i)   pair of each block with the untwisted discrete part, at s+a_i;
    (ii)  pairs with each inverse pair at s+a_i∓b_j (the minus twist is the
          only normalization-relevant family);
    (iii) cross pairs of blocks at 2s+a_i+a_j, i<j;
    (iv)  the auxiliary square of each block at 2s+2a_i.
    """
    if aux_kind not in AUX_KINDS:
        raise NormalizerError(f"auxiliary kind must be one of {AUX_KINDS}")
    out = []
    rho_label = "+".join(rho.selfdual_parts)
    for seg in pi.segments:
        out.append(Ratio("i", ("pair", seg.label, rho_label), 1, seg.a))
    for seg in pi.segments:
        for lab, b in rho.paired_parts:
            out.append(Ratio("ii-", ("pair", seg.label, f"{lab}^"), 1, seg.a - b))
            out.append(Ratio("ii+", ("pair", seg.label, lab), 1, seg.a + b))
    segs = pi.segments
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            out.append(
                Ratio("iii", ("pair", segs[i].label, segs[j].label), 2, segs[i].a + segs[j].a)
            )
    for seg in pi.segments:
        out.append(Ratio("iv", (aux_kind, seg.label), 2, 2 * seg.a))
    return out


def square_expansion(pi: QuasiTemperedGL, aux_kind: str = "wedge2") -> list:
    """Direct expansion of the auxiliary square of the product: squares of
    the blocks plus the pairwise tensor factors."""
    out = []
    segs = pi.segments
    for seg in segs:
        out.append(Ratio("iv", (aux_kind, seg.label), 2, 2 * seg.a))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            out.append(
                Ratio("iii", ("pair", segs[i].label, segs[j].label), 2, segs[i].a + segs[j].a)
            )
    return out


def verify_wedge_expansion(pi: QuasiTemperedGL, aux_kind: str = "wedge2") -> bool:
    """Families (iii)+(iv) of the normalization factor coincide, as a
    multiset of (kind, argument) pairs, with the square expansion."""
    rho = QuasiTemperedSelfdual(("1",), ())
    got = [
        (r.kind, r.slope, r.offset)
        for r in factor_normalization(pi, rho, aux_kind)
        if r.family in ("iii", "iv")
    ]
    want = [(r.kind, r.slope, r.offset) for r in square_expansion(pi, aux_kind)]
    return sorted(got) == sorted(want)


class FactorClassification(Record):
    _fields = ("ratio", "status", "bound", "rule")

    def __init__(self, ratio: Ratio, status: str, bound: Fraction, rule: str):
        """``status`` is holo_nonzero or pole_candidate; ``bound`` is a
        strict lower bound for Re(argument) on the region."""
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "rule", rule)

    def serialize(self) -> dict:
        out = self.ratio.serialize()
        out["status"] = self.status
        out["bound"] = rat_str(self.bound)
        out["rule"] = self.rule
        return out


def classify_holomorphy(ratios) -> list:
    """Status of every ratio on Re(s) ≥ 1/2.

    All numerators have argument real part ≥ slope/2 + offset; with
    tempered inducing data a positive bound certifies holomorphic nonzero.
    The minus-twist family is the only one whose bound can be ≤ 0 and is
    flagged as the pole candidate.  Denominators sit one unit further
    right and are never flagged.
    """
    out = []
    for ratio in ratios:
        bound = ratio.slope * HALF + ratio.offset
        if ratio.family == "ii-":
            status, rule = "pole_candidate", rules.cite("ratio-pole-candidate")
        else:
            if bound <= 0:
                raise NormalizerError(
                    f"unbounded argument: {ratio.serialize()['numerator']}"
                )
            status, rule = "holo_nonzero", rules.cite("ratio-bound-positive")
        out.append(FactorClassification(ratio, status, bound, rule))
    return out


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


def intertwining_word(t: int, u: int):
    """The full word and its two factors, with the length report.

    Lengths are tu, tu + t(t-1)/2 + t and t(t-1)/2 + 2tu + t; the product
    of the factors (first applied first) is the full word and the lengths
    add.
    """
    if t < 1 or u < 0:
        raise NormalizerError("need t ≥ 1, u ≥ 0")
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
    return w, w1, w2, {"shuffle": lengths[0], "flip": lengths[1], "full": lengths[2]}


# ---------------------------------------------------------------------------
# the verdict


class HolomorphyVerdict(Record):
    _fields = ("statement", "certificate", "word_lengths", "warnings")
    __hash__ = None

    def __init__(self, statement: str, certificate: list, word_lengths: dict, warnings: list):
        """``certificate`` is a list of {"part", "claim", "citation", ...}."""
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "word_lengths", word_lengths)
        object.__setattr__(self, "warnings", warnings)

    def serialize(self) -> dict:
        return {
            "statement": self.statement,
            "certificate": self.certificate,
            "word_lengths": self.word_lengths,
            "warnings": sorted(self.warnings),
        }


def holomorphy_verdict(
    pi: QuasiTemperedGL,
    rho: QuasiTemperedSelfdual,
    aux_kind: str = "wedge2",
    strict: bool = False,
) -> HolomorphyVerdict:
    """The normalized operator is holomorphic on Re(s) ≥ 1/2 and not
    identically zero on Re(s) = 1/2.

    Certificate parts: the normalization ratio divided by the minus-twist
    pair ratios is holomorphic nonzero on the region; the normalized
    rank-one operators against the pairs have argument real part inside
    (-1/2, 1) at the critical line, hence are invertible there; the
    remaining rank-one operators have positive-real-part arguments.
    """
    warnings = ["word-length-additivity"]
    if strict:
        raise NormalizerError(
            "strict mode: open-question choices relied upon: word-length-additivity"
        )
    ratios = factor_normalization(pi, rho, aux_kind)
    classified = classify_holomorphy(ratios)
    cert = []
    n_candidates = sum(1 for c in classified if c.status == "pole_candidate")
    cert.append(
        {
            "part": "normalization-ratio",
            "claim": (
                f"{len(classified) - n_candidates} ratio factors are holomorphic "
                "nonzero on the region; only the minus-twist pair factors remain"
            ),
            "citation": rules.cite("ratio-bound-positive"),
        }
    )
    t, u = len(pi.segments), len(rho.paired_parts)
    w, w1, w2, lengths = intertwining_word(t, u)
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
            {
                "part": "gl-blocks",
                "claim": (
                    "normalized rank-one operators against the pairs are "
                    "holomorphic for Re(s) ≥ 1/2 and invertible on Re(s) = 1/2: "
                    + "; ".join(windows)
                ),
                "citation": rules.cite("gl-block-window"),
            }
        )
    positives = []
    for seg in pi.segments:
        positives.append(f"{seg.label}: Re(a+s) ≥ {rat_str(seg.a + HALF)} > 0")
    cert.append(
        {
            "part": "non-normalized",
            "claim": (
                "remaining rank-one operators have positive argument real part: "
                + "; ".join(positives)
            ),
            "citation": rules.cite("positivity-holomorphy"),
        }
    )
    return HolomorphyVerdict(
        "holomorphic on Re(s) >= 1/2; not identically zero on Re(s) = 1/2",
        cert,
        lengths,
        warnings,
    )
