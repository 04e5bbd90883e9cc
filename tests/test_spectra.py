import ast
import itertools
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langkit.arch import InfChar
from langkit.satake import AutModel
from langkit.spectra import (
    CONJ_SELFDUAL,
    SELFDUAL_ORTHOGONAL,
    SELFDUAL_SYMPLECTIC,
    TRIVIAL,
    ArthurParameter,
    CuspidalRecord,
    CuspidalSum,
    LeviCandidate,
    SpectraError,
    Verdict,
    candidate_family,
    classify_levi_support,
    classify_support,
    duality_preserved,
    expand,
    reconstruct,
)
from langkit.rationals import half_str, rat_str

PI = CuspidalRecord("pi", 2, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
RHO = CuspidalRecord("rho", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
POOL = [
    PI,
    RHO,
    CuspidalRecord("tau", 1, duality=SELFDUAL_ORTHOGONAL),
    CuspidalRecord("ups", 4, duality=SELFDUAL_SYMPLECTIC),
    TRIVIAL,
]


def test_record_invariants():
    with pytest.raises(SpectraError):
        CuspidalRecord("x", 3, duality=SELFDUAL_SYMPLECTIC)  # odd symplectic
    with pytest.raises(SpectraError):
        CuspidalRecord("x", 2, duality=CONJ_SELFDUAL)  # missing parity sign
    with pytest.raises(SpectraError):
        CuspidalRecord("x", 2, eta=1)  # parity sign without conjugate duality


class TestExpand:
    def test_ladder_two(self):
        out = expand(ArthurParameter(((PI, 2),)))
        assert [j for _, j in out.terms] == [-1, 1]

    def test_trivial(self):
        out = expand(ArthurParameter(((TRIVIAL, 1),)))
        assert out.terms == ((TRIVIAL, 0),)

    def test_two_summands(self):
        out = expand(ArthurParameter(((PI, 2), (RHO, 1))))
        assert len(out.terms) == 3

    def test_size_is_ladder_total(self):
        p = ArthurParameter(((PI, 3), (RHO, 4)))
        assert len(expand(p).terms) == 7


class TestReconstruct:
    def test_ladder_two(self):
        s = CuspidalSum(((PI, 1), (PI, -1)))
        assert reconstruct(s) == ArthurParameter(((PI, 2),))

    def test_singleton(self):
        assert reconstruct(CuspidalSum(((PI, 0),))) == ArthurParameter(((PI, 1),))

    def test_incomplete_ladder(self):
        with pytest.raises(SpectraError):
            reconstruct(CuspidalSum(((PI, 1),)))

    def test_nested_ladders(self):
        """A valid parameter sum that the walk does not read: two ladders
        of one record are refused where the second begins."""
        p = ArthurParameter(((PI, 4), (PI, 2)))
        with pytest.raises(SpectraError):
            # same record twice is not multiplicity-one... build differently
            ArthurParameter(((PI, 2), (PI, 2)))
        with pytest.raises(SpectraError, match=r"^not one ladder per \(label, degree\): "
                           r"the walk stops at pi shift -3/2$"):
            reconstruct(expand(p))

    def test_exhaustive_round_trip(self):
        count = 0
        for k in range(1, 6):
            for chosen in itertools.combinations(POOL, k):
                for ds in itertools.product(range(1, 5), repeat=k):
                    p = ArthurParameter(tuple(zip(chosen, ds)))
                    assert reconstruct(expand(p)) == p
                    count += 1
        assert count == 3124


def _greedy_reconstruct_oracle(s: CuspidalSum) -> ArthurParameter:
    """The quadratic greedy ladder stripping that `reconstruct` replaced."""
    remaining = [(rec, Fraction(j, 2)) for rec, j in s.terms]
    summands = []
    while remaining:
        by_record: dict = {}
        for rec, shift in remaining:
            by_record.setdefault((rec.label, rec.degree), (rec, []))[1].append(shift)
        # deterministic choice: smallest record key
        key = sorted(by_record)[0]
        rec, shifts = by_record[key]
        top = max(shifts)
        d = int(2 * top) + 1
        if Fraction(d - 1, 2) != top or d < 1:
            raise SpectraError(f"not a parameter sum: stray shift {top} for {rec.label}")
        ladder = [Fraction(d - 1, 2) - j for j in range(d)]
        for step in ladder:
            entry = (rec, step)
            if entry not in remaining:
                raise SpectraError(
                    f"not a parameter sum: ladder of {rec.label} misses shift {rat_str(step)}"
                )
            remaining.remove(entry)
        summands.append((rec, d))
    return ArthurParameter(tuple(summands))


def _outcome(fn, terms):
    try:
        return fn(CuspidalSum(tuple(terms)))
    except SpectraError as exc:
        return f"SpectraError: {exc}"


REFUSAL = re.compile(
    r"SpectraError: not one ladder per \(label, degree\): the walk stops at (\S+) shift (\S+)"
)


def _check_against_oracle(terms) -> bool:
    """`reconstruct` returns the oracle's parameter, and refuses exactly when
    the oracle does or the oracle's parameter has several ladders on one
    (label, degree); the refusal names a term of the sum.  True on refusal."""
    got = _outcome(reconstruct, terms)
    want = _outcome(_greedy_reconstruct_oracle, terms)
    read = isinstance(want, ArthurParameter) and len(
        {(rec.label, rec.degree) for rec, _ in want.summands}
    ) == len(want.summands)
    if read:
        assert got == want, terms
        return False
    match = REFUSAL.fullmatch(got)
    assert match, (terms, got)
    assert match.groups() in {(rec.label, half_str(j)) for rec, j in terms}, (terms, got)
    return True


def _corruptions(terms):
    """Every single-term corruption of a term list of doubled shifts."""
    for i, (rec, j) in enumerate(terms):
        rest = terms[:i] + terms[i + 1:]
        yield rest
        yield terms + [(rec, j)]
        yield rest + [(rec, j + 1)]
        yield rest + [(rec, j - 1)]
        yield terms + [(rec, -1)]
        yield [(rec, -1)]


def _ladder(rec, d):
    return [(rec, j) for j in range(1 - d, d, 2)]


def test_cuspidal_sum_reads_a_generator_argument_once():
    """The argument used to be iterated twice, so a generator gave an empty sum."""
    terms = ((PI, 1), (PI, -1))
    assert CuspidalSum(t for t in terms) == CuspidalSum(terms)
    assert len(CuspidalSum(t for t in terms).terms) == 2


# distinct records that share (label, degree) and differ in duality or weight
TWINS = [
    CuspidalRecord("x", 2, duality=SELFDUAL_SYMPLECTIC),
    CuspidalRecord("x", 2, duality=SELFDUAL_ORTHOGONAL),
    CuspidalRecord("x", 2, duality=SELFDUAL_ORTHOGONAL, weight="1/2"),
]


class TestReconstructAgainstGreedyOracle:
    GRID = [
        ArthurParameter(tuple(zip(chosen, ds)))
        for k in range(1, 6)
        for chosen in itertools.combinations(POOL, k)
        for ds in itertools.product(range(1, 5), repeat=k)
    ]

    def test_grid(self):
        assert len(self.GRID) == 3124
        for p in self.GRID:
            terms = list(expand(p).terms)
            assert _outcome(reconstruct, terms) == _outcome(_greedy_reconstruct_oracle, terms) == p

    def test_single_term_corruptions(self):
        outcomes = Counter(
            _check_against_oracle(bad)
            for p in self.GRID[::29]
            for bad in _corruptions(list(expand(p).terms))
        )
        assert outcomes[True] > 1000 and outcomes[False] > 0  # both outcomes occur

    def test_twin_records(self):
        outcomes = set()
        for a, b in itertools.permutations(TWINS, 2):
            for da, db in itertools.product(range(1, 5), repeat=2):
                for terms in (_ladder(a, da) + _ladder(b, db), _ladder(b, db) + _ladder(a, da)):
                    for bad in [terms, *_corruptions(terms)]:
                        outcomes.add(_check_against_oracle(bad))
        assert outcomes == {True, False}

    def test_several_ladders_per_record_are_refused(self):
        grid = list(_several_ladders_per_record())
        assert len(grid) > 2000
        for p in grid:
            terms = list(expand(p).terms)
            assert _greedy_reconstruct_oracle(CuspidalSum(tuple(terms))) == p
            assert _check_against_oracle(terms)


def _several_ladders_per_record():
    """One or two records of POOL and TWINS, each with two or three distinct
    ladder lengths from 1..4; twins whose lengths overlap repeat a summand
    and are left out."""
    lengths = [ds for k in (2, 3) for ds in itertools.combinations(range(1, 5), k)]
    for k in (1, 2):
        for chosen in itertools.combinations(POOL + TWINS, k):
            for dss in itertools.product(lengths, repeat=k):
                summands = [(rec, d) for rec, ds in zip(chosen, dss) for d in ds]
                if len({(rec.label, rec.degree, d) for rec, d in summands}) == len(summands):
                    yield ArthurParameter(tuple(summands))


@given(
    st.lists(
        st.tuples(st.sampled_from(POOL), st.integers(1, 4)),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0].label,
    )
)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(summands):
    p = ArthurParameter(tuple(summands))
    assert reconstruct(expand(p)) == p


@given(
    st.lists(
        st.tuples(st.sampled_from(POOL), st.integers(1, 4)),
        min_size=2,
        max_size=5,
        unique_by=lambda t: (t[0].label, t[1]),
    ).filter(lambda summands: len({rec.label for rec, _ in summands}) < len(summands))
)
@settings(max_examples=80, deadline=None)
def test_several_ladders_per_record_property(summands):
    with pytest.raises(SpectraError, match=r"^not one ladder per \(label, degree\)"):
        reconstruct(expand(ArthurParameter(tuple(summands))))


class TestClassification:
    TARGET = ArthurParameter(((PI, 2), (RHO, 1)))

    def test_all_in_core_is_cuspidal(self):
        cand = LeviCandidate((), ArthurParameter(((PI, 2), (RHO, 1))))
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "cuspidal" in v.reason

    def test_correct_block_accepted(self):
        cand = LeviCandidate(((PI, 1),), ArthurParameter(((RHO, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert v.accepted
        assert v.block == (PI, 1)

    def test_associate_block_accepted(self):
        cand = LeviCandidate(((PI, -1),), ArthurParameter(((RHO, 1),)))
        assert classify_levi_support(self.TARGET, cand).accepted

    def test_trivial_block_rejected(self):
        cand = LeviCandidate(((TRIVIAL, 0),), ArthurParameter(((RHO, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "mismatch" in v.reason

    def test_trivial_block_cannot_be_twisted(self):
        cand = LeviCandidate(((TRIVIAL, 1),), ArthurParameter(((RHO, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "shift 0" in v.reason

    def test_wrong_shift_rejected(self):
        cand = LeviCandidate(((PI, 2),), ArthurParameter(((RHO, 1),)))
        assert not classify_levi_support(self.TARGET, cand).accepted

    def test_count_rule(self):
        cand = LeviCandidate(
            ((PI, 1), (RHO, 0)), ArthurParameter(((RHO, 1),))
        )
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "count" in v.reason

    def test_uniqueness_over_family(self):
        accepted = set()
        for cand in candidate_family(self.TARGET):
            v = classify_levi_support(self.TARGET, cand)
            if v.accepted:
                accepted.add((v.block[0].label, v.block[1]))
        assert accepted == {("pi", 1)}
        verdicts, shared = classify_support(self.TARGET)
        assert shared == accepted
        family = candidate_family(self.TARGET)
        assert verdicts == [classify_levi_support(self.TARGET, c) for c in family]

    def test_acceptance_is_read_off_the_block(self):
        assert Verdict._fields == ("reason", "block")
        verdicts, _ = classify_support(self.TARGET)
        assert [v.accepted for v in verdicts] == [v.block is not None for v in verdicts]
        assert {v.block for v in verdicts if v.accepted} == {(PI, 1)}  # both signs of 1/2
        for v in verdicts:
            assert v.serialize()["accepted"] is v.accepted
            assert ("block" in v.serialize()) is v.accepted
        with pytest.raises(AttributeError):
            Verdict("matched", (PI, 1)).accepted = False

    def test_reasons_render_shifts_as_label_at_shift(self):
        cand = LeviCandidate(((PI, 0),), ArthurParameter(((PI, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert v.reason == "multiset mismatch: pi@0, pi@0, pi@0 vs pi@-1/2, pi@1/2, rho@0"
        cand = LeviCandidate(((PI, -1),), ArthurParameter(((RHO, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert v.reason == "block pi at shift 1/2, core rho"
        assert v.serialize()["block"] == {"label": "pi", "shift": "1/2"}


# the support classification, from a candidate's blocks to the accepted set,
# holds every shift doubled
CLASSIFICATION_PATH = {
    "_blocks_str",
    "LeviCandidate.__init__",
    "Verdict.__init__",
    "Verdict.serialize",
    "classify_levi_support",
    "candidate_family",
    "classify_support",
    "expand",
    "reconstruct",
}


def test_classification_path_names_no_fraction():
    source = Path(__file__).resolve().parents[1] / "src" / "langkit" / "spectra.py"
    functions = {}
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    functions[f"{node.name}.{fn.name}"] = fn
    for name in sorted(CLASSIFICATION_PATH):
        used = set()
        for n in ast.walk(functions[name]):
            used.add(n.id if isinstance(n, ast.Name) else getattr(n, "attr", None))
        assert not used & {"Fraction", "rat", "rat_str", "HALF"}, name


class TestTransport:
    IC = InfChar((("r1", (3, -3)), ("r2", (5, -5))))
    REC = CuspidalRecord(
        "pi", 2, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic", infchar=IC
    )

    def test_preserves_fields(self):
        moved = duality_preserved(self.REC, AutModel())
        assert moved.duality == self.REC.duality == SELFDUAL_SYMPLECTIC
        assert moved.weight == self.REC.weight
        assert moved.algebraicity == self.REC.algebraicity == "algebraic"
        assert moved.eta == self.REC.eta

    def test_permutes_infchar(self):
        aut = AutModel(embedding_map=(("r1", "r2"), ("r2", "r1")))
        moved = duality_preserved(self.REC, aut)
        assert moved.infchar.at("r1") == (5, -5)

    def test_identity_aut(self):
        aut = AutModel(embedding_map=(("r1", "r1"), ("r2", "r2")))
        moved = duality_preserved(self.REC, aut)
        assert moved.infchar == self.IC

    def test_requires_regularity_flags(self):
        with pytest.raises(SpectraError):
            duality_preserved(CuspidalRecord("x", 2), AutModel())

    def test_conj_dual_parity_kept(self):
        rec = CuspidalRecord(
            "u", 2, base="E/F", duality=CONJ_SELFDUAL, eta=-1, algebraicity="algebraic"
        )
        moved = duality_preserved(rec, AutModel())
        assert moved.eta == -1
