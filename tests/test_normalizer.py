from fractions import Fraction

import pytest

from langkit import normalizer
from langkit.eisenstein import HypothesisError
from langkit.rationals import HALF
from langkit.normalizer import (
    AUX_KINDS,
    DiscreteSegment,
    NormalizerError,
    QuasiTemperedGL,
    QuasiTemperedSelfdual,
    Ratio,
    block_shuffle_word,
    classify_holomorphy,
    factor_normalization,
    flip_word,
    full_word,
    holomorphy_verdict,
    intertwining_word,
    square_expansion,
    verify_wedge_expansion,
)
from langkit.weyl import SignedPerm


def make_pi(*exps):
    return QuasiTemperedGL(
        tuple(DiscreteSegment(f"p{i + 1}", e) for i, e in enumerate(exps))
    )


RHO0 = QuasiTemperedSelfdual(("r0",), ())
RHO1 = QuasiTemperedSelfdual(("r0",), (("r1", "1/4"),))


class TestDecompositions:
    def test_exponent_bounds(self):
        with pytest.raises(NormalizerError, match="not quasi-tempered"):
            QuasiTemperedGL((DiscreteSegment("p", "1/2"),))
        with pytest.raises(NormalizerError, match="not quasi-tempered"):
            QuasiTemperedSelfdual(("r0",), (("r1", "1/2"),))
        with pytest.raises(NormalizerError, match="not quasi-tempered"):
            QuasiTemperedSelfdual(("r0",), (("r1", "0"),))

    def test_needs_untwisted_part(self):
        with pytest.raises(NormalizerError):
            QuasiTemperedSelfdual((), (("r1", "1/4"),))

    def test_needs_a_discrete_block(self):
        with pytest.raises(NormalizerError, match="need at least one discrete block"):
            QuasiTemperedGL(())

    def test_segments_sorted_descending(self):
        pi = QuasiTemperedGL(
            (DiscreteSegment("a", "0"), DiscreteSegment("b", "1/4"))
        )
        assert [s.a for s in pi.segments] == [Fraction(1, 4), Fraction(0)]


class TestFactorFamilies:
    def test_single_block_no_pairs(self):
        fams = sorted(r.family for r in factor_normalization(make_pi("1/4"), RHO0))
        assert fams == ["i", "iv"]

    def test_single_block_one_pair(self):
        fams = sorted(r.family for r in factor_normalization(make_pi("1/4"), RHO1))
        assert fams == ["i", "ii+", "ii-", "iv"]

    def test_two_blocks_cross_factor(self):
        fams = sorted(r.family for r in factor_normalization(make_pi("1/4", "0"), RHO0))
        assert fams == ["i", "i", "iii", "iv", "iv"]

    def test_arguments(self):
        rs = factor_normalization(make_pi("1/4"), RHO1)
        by_family = {r.family: r for r in rs}
        assert by_family["ii-"].beta == Fraction(0)  # 1/4 - 1/4
        assert by_family["ii+"].beta == Fraction(1, 2)
        assert by_family["iv"].alpha == 2 and by_family["iv"].beta == Fraction(1, 2)

    @pytest.mark.parametrize("aux", ("wedge2", "sym2", "asai+", "asai-"))
    def test_aux_kind_is_a_parameter(self, aux):
        rs = factor_normalization(make_pi("1/4"), RHO0, aux)
        assert any(r.kind == AUX_KINDS[aux] + ("p1",) for r in rs)


class TestSquareExpansion:
    @pytest.mark.parametrize("t", range(1, 5))
    def test_families_match_expansion(self, t):
        pi = make_pi(*[Fraction(1, 4 * (i + 2)) for i in range(t)])
        assert verify_wedge_expansion(pi)

    def test_counts(self):
        pi = make_pi("1/4", "1/8", "0")
        expansion = square_expansion(pi)
        assert sum(1 for r in expansion if r.family == "iv") == 3
        assert sum(1 for r in expansion if r.family == "iii") == 3


class TestClassification:
    def test_only_minus_twists_flagged(self):
        pi = make_pi("1/4", "0")
        rho = QuasiTemperedSelfdual(("r0",), (("r1", "1/4"), ("r2", "1/3")))
        ratios = factor_normalization(pi, rho)
        flagged = classify_holomorphy(ratios)
        assert len(flagged) == 4  # one per (block, pair)
        assert flagged == [r for r in ratios if r.family == "ii-"]

    def test_denominator_style_bounds_positive(self):
        pi = make_pi("-1/4")
        ratios = factor_normalization(pi, RHO0)
        flagged = classify_holomorphy(ratios)
        for r in ratios:
            if r not in flagged:
                assert r.alpha * HALF + r.beta > 0

    def test_shifted_argument_bound(self):
        # the slope-2 factor (iv) at 2s+2a has bound 2·(1/2)+2a = 1/2 at a = -1/4
        pi = make_pi("-1/4")
        rs = [r for r in factor_normalization(pi, RHO0) if r.family == "iv"]
        assert classify_holomorphy(rs) == []
        assert rs[0].alpha * HALF + rs[0].beta == HALF

    def test_denominators_always_regular(self):
        # the denominator of every ratio sits one unit right of the numerator
        pi = make_pi("1/4", "-1/4")
        rho = QuasiTemperedSelfdual(("r0",), (("r1", "1/4"), ("r2", "2/5")))
        ratios = factor_normalization(pi, rho)
        classify_holomorphy(ratios)
        for r in ratios:
            assert r.alpha * HALF + r.beta + 1 > 0

    def test_nonpositive_bound_is_refused_outside_the_minus_twists(self):
        at_zero = Fraction(-1, 2)  # Re(s + beta) = 0 at Re(s) = 1/2
        with pytest.raises(NormalizerError, match="unbounded argument"):
            classify_holomorphy([Ratio("i", ("rankin", "p1", "r0"), 1, at_zero)])
        minus = Ratio("ii-", ("rankin", "p1", "r1^"), 1, at_zero)
        assert classify_holomorphy([minus]) == [minus]

    def test_candidates_keep_their_order_and_the_first_refusal_wins(self):
        m1 = Ratio("ii-", ("rankin", "p1", "r1^"), 1, Fraction(-1, 2))
        m2 = Ratio("ii-", ("rankin", "p2", "r1^"), 1, Fraction(1, 4))
        ok = Ratio("iv", ("wedge2", "p1"), 2, Fraction(0))
        assert classify_holomorphy([m2, ok, m1]) == [m2, m1]
        assert classify_holomorphy(iter([m1, ok, m2])) == [m1, m2]
        bad1 = Ratio("i", ("rankin", "p1", "r0"), 1, Fraction(-1, 2))
        bad2 = Ratio("iii", ("rankin", "p1", "p2"), 2, Fraction(-2))
        with pytest.raises(NormalizerError, match=r"^unbounded argument: L\(s-1/2, p1 x r0\)$"):
            classify_holomorphy([m1, bad1, bad2])


class TestWords:
    def test_minimal(self):
        lengths = intertwining_word(1, 0)
        assert lengths == {"shuffle": 0, "flip": 1, "full": 1}

    def test_displayed_values(self):
        assert intertwining_word(2, 1) == {"shuffle": 2, "flip": 5, "full": 7}
        assert intertwining_word(1, 2) == {"shuffle": 2, "flip": 3, "full": 5}

    @pytest.mark.parametrize("t", range(1, 6))
    @pytest.mark.parametrize("u", range(0, 6))
    def test_additivity_grid(self, t, u):
        w1, w2, w = block_shuffle_word(t, u), flip_word(t, u), full_word(t, u)
        lengths = intertwining_word(t, u)
        assert w1.then(w2) == w
        assert lengths == {"shuffle": w1.length(), "flip": w2.length(), "full": w.length()}
        assert lengths["shuffle"] + lengths["flip"] == lengths["full"]

    def test_a_wrong_word_is_refused(self, monkeypatch):
        monkeypatch.setattr(normalizer, "full_word", lambda t, u: SignedPerm.identity(t + u))
        with pytest.raises(NormalizerError, match=r"length report \(2, 5, 0\) does not match"):
            intertwining_word(2, 1)
        monkeypatch.undo()
        monkeypatch.setattr(normalizer, "length_additive", lambda w1, w2: False)
        with pytest.raises(NormalizerError, match="does not decompose additively"):
            intertwining_word(2, 1)


class TestVerdict:
    def test_no_pairs_two_part_certificate(self):
        pi = QuasiTemperedGL((DiscreteSegment("p1", "1/4"),))
        v = holomorphy_verdict(pi, RHO0, "wedge2", False)
        assert len(v["certificate"]) == 2
        assert v["statement"].startswith("holomorphic")

    def test_pairs_add_gl_block_part(self):
        v = holomorphy_verdict(make_pi("1/4", "0"), RHO1, "wedge2", False)
        assert [c["part"] for c in v["certificate"]] == [
            "normalization-ratio",
            "gl-blocks",
            "non-normalized",
        ]
        gl_part = v["certificate"][1]["claim"]
        assert "(-1/2, 1)" in gl_part

    def test_boundary_exponent_rejected(self):
        with pytest.raises(NormalizerError, match="not quasi-tempered"):
            holomorphy_verdict(
                make_pi("1/4"), QuasiTemperedSelfdual(("r0",), (("r1", "1/2"),)), "wedge2", False
            )

    def test_strict_mode(self):
        with pytest.raises(HypothesisError, match="strict"):
            holomorphy_verdict(make_pi("1/4"), RHO0, "wedge2", strict=True)
