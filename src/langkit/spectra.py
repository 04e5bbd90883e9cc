"""Formal cuspidal records and discrete-spectrum parameters.

A parameter is a multiplicity-one multiset of (cuspidal record, ladder
length) pairs; its expansion lists the half-integral twist ladder of each
pair.  `reconstruct` inverts the expansion by one walk over the sorted
terms, and hands the sums that walk cannot read (nested ladders, twin
records, stray or missing shifts) to greedy ladder stripping.
`classify_levi_support` decides which induction data can carry a
given two-term parameter, by the cuspidal count plus multiset matching;
`classify_support` runs it over the whole candidate family.  Every shift,
in a ladder or in an induction datum, is held doubled as the int 2·shift.
`duality_preserved` transports a record along a `satake.AutModel`, whose
embedding map relabels the infinitesimal character.
"""

from __future__ import annotations

from fractions import Fraction

from .arch import ArchError, InfChar, purity_weight
from .rationals import half_str, rat, rat_str
from .record import Record
from .satake import AutModel

SELFDUAL_SYMPLECTIC = "symplectic"
SELFDUAL_ORTHOGONAL = "orthogonal"
CONJ_SELFDUAL = "conj_selfdual"
NO_DUALITY = "none"

_DUALITIES = (SELFDUAL_SYMPLECTIC, SELFDUAL_ORTHOGONAL, CONJ_SELFDUAL, NO_DUALITY)


class SpectraError(ValueError):
    pass


class CuspidalRecord(Record):
    """Formal descriptor of a cuspidal representation.

    ``eta`` is the parity sign of a conjugate-self-dual record (which of
    the two twisted-tensor factors has the pole).  ``weight`` is the
    unitary-normalization twist; ``algebraicity`` the regularity class.
    """

    _fields = ("label", "degree", "base", "duality", "eta", "weight", "algebraicity", "infchar")

    def __init__(
        self,
        label: str,
        degree: int,
        base: str = "F",
        duality: str = NO_DUALITY,
        eta: int = 0,
        weight: Fraction = Fraction(0),
        algebraicity: str = "none",
        infchar: InfChar | None = None,
    ):
        weight = rat(weight)
        if degree < 1:
            raise SpectraError("degree must be ≥ 1")
        if duality not in _DUALITIES:
            raise SpectraError(f"unknown duality {duality!r}")
        if duality == CONJ_SELFDUAL:
            if eta not in (1, -1):
                raise SpectraError("conjugate-self-dual records carry a parity sign")
        elif eta:
            raise SpectraError("only conjugate-self-dual records carry eta")
        if duality == SELFDUAL_SYMPLECTIC and degree % 2:
            raise SpectraError("symplectic records have even degree")
        if algebraicity not in ("algebraic", "half_algebraic", "none"):
            raise SpectraError(f"unknown algebraicity {algebraicity!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "duality", duality)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "algebraicity", algebraicity)
        object.__setattr__(self, "infchar", infchar)

    @property
    def is_trivial(self) -> bool:
        return self.label == "1" and self.degree == 1

    def serialize(self) -> dict:
        out = {
            "label": self.label,
            "degree": self.degree,
            "base": self.base,
            "duality": self.duality,
            "weight": rat_str(self.weight),
            "algebraicity": self.algebraicity,
        }
        if self.duality == CONJ_SELFDUAL:
            out["eta"] = self.eta
        if self.infchar is not None:
            out["infchar"] = self.infchar.serialize()
        return out


TRIVIAL = CuspidalRecord("1", 1, duality=SELFDUAL_ORTHOGONAL)


class ArthurParameter(Record):
    """Multiplicity-one multiset of (record, ladder length) summands."""

    _fields = ("summands",)

    def __init__(self, summands: tuple):
        """``summands`` is ((CuspidalRecord, d), ...)."""
        pairs = tuple(
            sorted(summands, key=lambda s: (s[0].label, s[0].degree, s[1]))
        )
        prev = None  # sorted, so a repeated key follows its first copy
        for record, d in pairs:
            if d < 1:
                raise SpectraError("ladder lengths are positive")
            key = (record.label, record.degree, d)
            if key == prev:
                raise SpectraError(f"summand {key} repeats")
            prev = key
        object.__setattr__(self, "summands", pairs)

    @property
    def cuspidal_count(self) -> int:
        return sum(d for _, d in self.summands)

    def serialize(self) -> list:
        return [{"record": rec.serialize(), "sp": d} for rec, d in self.summands]


class CuspidalSum(Record):
    """Multiset of (record, j) terms, where j = 2·shift is an int.

    Shifts are half-integers, so the ladder kernel (`expand`, `reconstruct`)
    holds them doubled and builds no `Fraction`.
    Terms are kept sorted by (label, degree, j).
    """

    _fields = ("terms",)

    def __init__(self, terms: tuple):
        """``terms`` is ((CuspidalRecord, j), ...)."""
        terms = tuple(sorted(_doubled_shifts(terms), key=lambda t: (t[0].label, t[0].degree, t[1])))
        object.__setattr__(self, "terms", terms)


def _doubled_shifts(pairs) -> tuple:
    """The (record, j) pairs as a tuple, once each doubled shift j is an int."""
    pairs = tuple(pairs)
    for _, j in pairs:
        if type(j) is not int:
            raise SpectraError(f"doubled shift must be an int, not {j!r}")
    return pairs


def expand(p: ArthurParameter) -> CuspidalSum:
    """Each (record, d) contributes the shifts -(d-1)/2, ..., (d-3)/2, (d-1)/2,
    held doubled as j = 1-d, 3-d, ..., d-1.

    They are listed in ascending order, so each ladder is already a sorted
    run for `CuspidalSum`.
    """
    return CuspidalSum([(rec, j) for rec, d in p.summands for j in range(1 - d, d, 2)])


def reconstruct(s: CuspidalSum) -> ArthurParameter:
    """Invert `expand`: one walk over the sorted terms, else greedy stripping.

    The walk reads the terms in order.  At each position the term (rec, j)
    opens a ladder of length d = 1-j, which is taken when j ≤ 0, the next
    d terms are exactly (rec, j), (rec, j+2), ..., (rec, -j) and its
    (label, degree) differs from the previous ladder's.  Since
    `CuspidalSum` keeps the terms sorted, this accepts exactly the sums
    in which every (label, degree) holds one whole ladder of one record,
    which is what `expand` makes of a parameter with one ladder per
    record.  Any other sum (nested ladders of one record, twin records
    sharing a (label, degree), stray or missing shifts) goes whole to
    `_strip_ladders`, which finds the same summands where the walk
    succeeds and alone names what is wrong where no parameter fits.
    A walked parameter is built without `ArthurParameter`'s sort and
    repeat check, which the walk has already made true.
    """
    terms = s.terms
    summands = []
    key = None
    i, n = 0, len(terms)
    while i < n:
        rec, j = terms[i]
        d = 1 - j
        if (
            j > 0
            or (rec.label, rec.degree) == key
            or terms[i:i + d] != tuple((rec, k) for k in range(j, d, 2))
        ):
            return _strip_ladders(terms)
        key = (rec.label, rec.degree)
        summands.append((rec, d))
        i += d
    # the walk yields positive lengths in strictly ascending (label, degree)
    # order, which is the sorted, repeat-free form `ArthurParameter` checks for
    p = ArthurParameter.__new__(ArthurParameter)
    object.__setattr__(p, "summands", tuple(summands))
    return p


def _strip_ladders(terms: tuple) -> ArthurParameter:
    """Invert `expand` by greedy ladder stripping.

    The sorted terms are grouped once by (label, degree), so the groups
    come in ascending key order and each group in ascending shift order.
    While a group is non-empty, its first record `rec` and its largest
    doubled shift `top` = d-1 fix a ladder of length d, and the rungs d-1,
    d-3, ..., 1-d of `rec` are struck from the group, each as its first
    matching entry.  A negative `top` is a stray shift; a missing rung
    fails the ladder.
    """
    groups: dict = {}
    for rec, j in terms:
        groups.setdefault((rec.label, rec.degree), []).append((j, rec))
    summands = []
    for group in groups.values():
        while group:
            rec = group[0][1]
            top = group[-1][0]
            if top < 0:
                raise SpectraError(
                    f"not a parameter sum: stray shift {half_str(top)} for {rec.label}"
                )
            for step in range(top, -top - 1, -2):
                for i, (j, r) in enumerate(group):
                    if j == step and (r is rec or r == rec):
                        del group[i]
                        break
                else:
                    raise SpectraError(
                        "not a parameter sum: ladder of "
                        f"{rec.label} misses shift {half_str(step)}"
                    )
            summands.append((rec, top + 1))
    return ArthurParameter(tuple(summands))


# ---------------------------------------------------------------------------
# Levi-support classification


class LeviCandidate(Record):
    """Induction datum: GL blocks with twist exponents plus a core parameter."""

    _fields = ("blocks", "core")

    def __init__(self, blocks: tuple, core: ArthurParameter):
        """``blocks`` is ((CuspidalRecord, j), ...), j = 2·shift an int."""
        object.__setattr__(self, "blocks", _doubled_shifts(blocks))
        object.__setattr__(self, "core", core)


class Verdict(Record):
    _fields = ("accepted", "reason", "block")

    def __init__(self, accepted: bool, reason: str, block: tuple | None = None):
        """``block`` is the (record, j) of the accepted block, j = 2·shift an int."""
        if block is not None:
            _doubled_shifts((block,))
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "block", block)

    def serialize(self) -> dict:
        out = {"accepted": self.accepted, "reason": self.reason}
        if self.block is not None:
            rec, j = self.block
            out["block"] = {"label": rec.label, "shift": half_str(j)}
        return out


def _blocks_str(pairs) -> str:
    """(label, j) pairs as "label@shift", comma-separated."""
    return ", ".join(f"{label}@{half_str(j)}" for label, j in pairs)


def classify_levi_support(target: ArthurParameter, candidate: LeviCandidate) -> Verdict:
    """Decide whether induction data can produce the two-term parameter.

    The target must be (record ⊗ ladder 2) ⊕ (record ⊗ ladder 1); its
    expansion has three cuspidal terms, so a candidate with I blocks and
    core ladder count m must satisfy 2I + m = 3.  I = 0 contradicts
    non-cuspidality; I = 1 forces, by multiset matching of (label, j)
    pairs, the block to be the ladder-2 record at shift ±1/2 (j = ±1) and
    the core to match the remaining record.  Trivial-record blocks must
    carry shift 0 (their central character kills any twist) and are
    rejected.
    """
    lad = sorted(d for _, d in target.summands)
    if lad != [1, 2]:
        raise SpectraError("target must be a ladder-2 plus ladder-1 parameter")
    rho = next(rec for rec, d in target.summands if d == 1)

    I = len(candidate.blocks)
    core_count = candidate.core.cuspidal_count
    if 2 * I + core_count != 3:
        return Verdict(False, f"cuspidal count 2·{I}+{core_count} ≠ 3")
    if I == 0:
        return Verdict(False, "cuspidal case, contradicts non-cuspidality")
    # here I == 1 and the core is a single ladder-1 record
    (block_rec, j1), = candidate.blocks
    if block_rec.is_trivial:
        if j1 != 0:
            return Verdict(False, "trivial block must carry shift 0")
        return Verdict(False, "{1,1,core} mismatch")
    got = sorted(
        [(block_rec.label, j1), (block_rec.label, -j1), (candidate.core.summands[0][0].label, 0)]
    )
    want = sorted((rec.label, j) for rec, j in expand(target).terms)
    if got != want:
        return Verdict(False, f"multiset mismatch: {_blocks_str(got)} vs {_blocks_str(want)}")
    return Verdict(
        True,
        f"block {block_rec.label} at shift {half_str(abs(j1))}, core {rho.label}",
        block=(block_rec, abs(j1)),
    )


_CANDIDATE_SHIFTS = (0, 1, -1, 2)  # doubled: 0, 1/2, -1/2, 1


def candidate_family(target: ArthurParameter) -> list:
    """Exhaustive small family of candidates for the uniqueness check:
    every way to pick 0, 1 or 2 blocks from the target's records (and the
    trivial record) with small shifts, core from the leftover records."""
    records = [rec for rec, _ in target.summands]
    pool = records + ([TRIVIAL] if all(not r.is_trivial for r in records) else [])
    out = []
    for core_rec in records:
        core = ArthurParameter(((core_rec, 1),))
        for rec in pool:
            for j in _CANDIDATE_SHIFTS:
                out.append(LeviCandidate(((rec, j),), core))
    # the no-block candidate: everything in the core
    pi = next(rec for rec, d in target.summands if d == 2)
    rho = next(rec for rec, d in target.summands if d == 1)
    out.append(LeviCandidate((), ArthurParameter(((pi, 2), (rho, 1)))))
    # a two-block candidate for the count check
    out.append(LeviCandidate(((pi, 1), (rho, 0)), ArthurParameter(((rho, 1),))))
    return out


def classify_support(target: ArthurParameter) -> tuple:
    """(verdicts, accepted): the verdict on each candidate of
    `candidate_family`, in order, and the set of accepted (label, j) blocks."""
    verdicts = [classify_levi_support(target, cand) for cand in candidate_family(target)]
    return verdicts, {(v.block[0].label, v.block[1]) for v in verdicts if v.accepted}


# ---------------------------------------------------------------------------
# purity and transport of records


def purity_consistent(record: CuspidalRecord, emb) -> bool:
    """Whether the record's declared weight matches the pairing weight of
    its infinitesimal character (vacuously true without one)."""
    if record.infchar is None:
        return True
    try:
        w = purity_weight(record.infchar, emb, record.degree)
    except ArchError:
        return False
    return w == record.weight


def duality_preserved(record: CuspidalRecord, aut: AutModel) -> CuspidalRecord:
    """Transport a record along a coefficient automorphism: identical
    weight, duality type, parity sign and algebraicity class, infinitesimal
    character relabeled by its ``embedding_map``.

    Records without a regularity class cannot be transported.
    """
    if record.algebraicity == "none":
        raise SpectraError(f"record {record.label} lacks regularity flags")
    infchar = None if record.infchar is None else record.infchar.permuted(aut.embedding_map)
    return CuspidalRecord(
        f"a({record.label})",
        record.degree,
        record.base,
        record.duality,
        record.eta,
        record.weight,
        record.algebraicity,
        infchar,
    )
