import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langkit.arch import AutOnEmbeddings, InfChar
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
    candidate_family,
    classify_levi_support,
    duality_preserved,
    expand,
    reconstruct,
)
from langkit.rationals import rat_str

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
        assert len(out) == 3

    def test_size_is_ladder_total(self):
        p = ArthurParameter(((PI, 3), (RHO, 4)))
        assert len(expand(p)) == 7


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
        p = ArthurParameter(((PI, 4), (PI, 2)))
        with pytest.raises(SpectraError):
            # same record twice is not multiplicity-one... build differently
            ArthurParameter(((PI, 2), (PI, 2)))
        assert reconstruct(expand(p)) == p

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


@pytest.mark.parametrize("shift", ["1/2", Fraction(1, 3), Fraction(1, 2), True, 0.5])
def test_cuspidal_sum_takes_only_int_doubled_shifts(shift):
    with pytest.raises(SpectraError, match="must be an int"):
        CuspidalSum(((PI, 1), (PI, shift)))


def test_cuspidal_sum_reads_a_generator_argument_once():
    """The argument used to be iterated twice, so a generator gave an empty sum."""
    terms = ((PI, 1), (PI, -1))
    assert CuspidalSum(t for t in terms) == CuspidalSum(terms)
    assert len(CuspidalSum(t for t in terms)) == 2
    with pytest.raises(SpectraError, match="must be an int"):
        CuspidalSum(t for t in ((PI, 1), (PI, "1/2")))


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
        errors = 0
        for p in self.GRID[::29]:
            for bad in _corruptions(list(expand(p).terms)):
                got = _outcome(reconstruct, bad)
                assert got == _outcome(_greedy_reconstruct_oracle, bad), bad
                errors += isinstance(got, str)
        assert errors > 1000  # the corruptions reach the error paths

    def test_twin_records(self):
        outcomes = set()
        for a, b in itertools.permutations(TWINS, 2):
            for da, db in itertools.product(range(1, 5), repeat=2):
                for terms in (_ladder(a, da) + _ladder(b, db), _ladder(b, db) + _ladder(a, da)):
                    for bad in [terms, *_corruptions(terms)]:
                        got = _outcome(reconstruct, bad)
                        assert got == _outcome(_greedy_reconstruct_oracle, bad), bad
                        outcomes.add(isinstance(got, str))
        assert outcomes == {True, False}


@given(
    st.lists(
        st.tuples(st.sampled_from(POOL), st.integers(1, 4)),
        min_size=1,
        max_size=5,
        unique_by=lambda t: (t[0].label, t[1]),
    )
)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(summands):
    p = ArthurParameter(tuple(summands))
    assert reconstruct(expand(p)) == p


class TestClassification:
    TARGET = ArthurParameter(((PI, 2), (RHO, 1)))

    def test_all_in_core_is_cuspidal(self):
        cand = LeviCandidate((), ArthurParameter(((PI, 2), (RHO, 1))))
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "cuspidal" in v.reason

    def test_correct_block_accepted(self):
        cand = LeviCandidate(((PI, "1/2"),), ArthurParameter(((RHO, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert v.accepted
        assert v.block == (PI, Fraction(1, 2))

    def test_associate_block_accepted(self):
        cand = LeviCandidate(((PI, "-1/2"),), ArthurParameter(((RHO, 1),)))
        assert classify_levi_support(self.TARGET, cand).accepted

    def test_trivial_block_rejected(self):
        cand = LeviCandidate(((TRIVIAL, "0"),), ArthurParameter(((RHO, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "mismatch" in v.reason

    def test_trivial_block_cannot_be_twisted(self):
        cand = LeviCandidate(((TRIVIAL, "1/2"),), ArthurParameter(((RHO, 1),)))
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "shift 0" in v.reason

    def test_wrong_shift_rejected(self):
        cand = LeviCandidate(((PI, "1"),), ArthurParameter(((RHO, 1),)))
        assert not classify_levi_support(self.TARGET, cand).accepted

    def test_count_rule(self):
        cand = LeviCandidate(
            ((PI, "1/2"), (RHO, "0")), ArthurParameter(((RHO, 1),))
        )
        v = classify_levi_support(self.TARGET, cand)
        assert not v.accepted and "count" in v.reason

    def test_uniqueness_over_family(self):
        accepted = set()
        for cand in candidate_family(self.TARGET):
            v = classify_levi_support(self.TARGET, cand)
            if v.accepted:
                accepted.add((v.block[0].label, v.block[1]))
        assert accepted == {("pi", Fraction(1, 2))}


class TestTransport:
    IC = InfChar((("r1", (3, -3)), ("r2", (5, -5))))
    REC = CuspidalRecord(
        "pi", 2, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic", infchar=IC
    )

    def test_preserves_fields(self):
        moved, assertions = duality_preserved(self.REC, None)
        assert moved.duality == SELFDUAL_SYMPLECTIC
        assert moved.weight == self.REC.weight
        assert moved.algebraicity == "algebraic"
        assert all(ok for _, ok in assertions)

    def test_permutes_infchar(self):
        perm = AutOnEmbeddings((("r1", "r2"), ("r2", "r1")))
        moved, _ = duality_preserved(self.REC, perm)
        assert moved.infchar.at("r1") == (5, -5)

    def test_identity_aut(self):
        perm = AutOnEmbeddings.identity(("r1", "r2"))
        moved, _ = duality_preserved(self.REC, perm)
        assert moved.infchar == self.IC

    def test_requires_regularity_flags(self):
        with pytest.raises(SpectraError):
            duality_preserved(CuspidalRecord("x", 2), None)

    def test_conj_dual_parity_kept(self):
        rec = CuspidalRecord(
            "u", 2, base="E/F", duality=CONJ_SELFDUAL, eta=-1, algebraicity="algebraic"
        )
        moved, _ = duality_preserved(rec, None)
        assert moved.eta == -1
