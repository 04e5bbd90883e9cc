import ast
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from langkit import cli

from langkit.arch import EmbeddingSet, InfChar, invariance_ratio_conjdual
from langkit.eisenstein import (
    AnalyticLedger,
    EisensteinError,
    HypothesisError,
    LFactorRef,
    LQuotient,
    PoleDecision,
    asai_sign,
    check_kind,
    constant_term_quotient,
    default_ledger,
    pole_at_half,
    residual_parameter,
    sign_pipeline,
    theorem_pipeline,
)
from langkit.groups import SO_EVEN, SO_ODD, SP, UNITARY, GroupDescriptor
from langkit.rationals import doubled
from langkit.satake import AutModel
from langkit.spectra import (
    CONJ_SELFDUAL,
    SELFDUAL_ORTHOGONAL,
    SELFDUAL_SYMPLECTIC,
    TRIVIAL,
    CuspidalRecord,
    SpectraError,
)



def degree(psi) -> int:
    """Degree of an Arthur parameter: record degree times ladder length, summed."""
    return sum(rec.degree * d for rec, d in psi.summands)


def std_degree(group) -> int:
    """Degree of the standard representation of the dual group: SO(2n+1)
    for Sp(2n), Sp(2n) for SO(2n+1), SO(2n) for SO(2n), else the matrix size."""
    if group.family == SP:
        return 2 * group.size + 1
    if group.family in (SO_ODD, SO_EVEN):
        return 2 * group.size
    return group.size


def expected_quotient(ambient, n, rho):
    """The pair and square kinds of the quotient for a degree-n block "pi"
    over ``rho``, or the message it is refused with.  The block and the core
    must fill the standard representation of the dual group: 2n + deg rho
    is its degree, with a core of rank ≥ 1 or, for Sp, the trivial record
    over an empty core."""
    t = rho.degree
    if ambient.family == UNITARY:
        if ambient.size != 2 * n + t:
            return "degrees do not fill the unitary group"
        return ("bc_rankin", "pi", rho.label), ("asai", (-1) ** t, "pi")
    square = ("sym2" if ambient.family == SO_ODD else "wedge2", "pi")
    if ambient.family == SP and ambient.size == n and rho == TRIVIAL:
        return ("std", "pi"), square
    if ambient.size > n and std_degree(ambient) == 2 * n + t:
        return ("rankin", "pi", rho.label), square
    return f"core degree {t} does not match the ambient family"


EMB = EmbeddingSet(real=("r1",))
AUT = AutModel(eps=-1)

PI_B = CuspidalRecord(
    "pi",
    4,
    duality=SELFDUAL_SYMPLECTIC,
    algebraicity="algebraic",
    infchar=InfChar((("r1", (9, 3, -3, -9)),)),
)
RHO_B = CuspidalRecord(
    "rho",
    3,
    duality=SELFDUAL_ORTHOGONAL,
    algebraicity="algebraic",
    infchar=InfChar((("r1", (12, 0, -12)),)),
)

EMB_E = EmbeddingSet(complex_pairs=(("c1", "c1b"),))
AUT_E = AutModel(eps=-1)
PI_E = CuspidalRecord(
    "piu",
    2,
    base="E/F",
    duality=CONJ_SELFDUAL,
    eta=-1,
    algebraicity="algebraic",
    infchar=InfChar((("c1", (5, 1)), ("c1b", (-1, -5)))),
)
RHO_E = CuspidalRecord(
    "rhou",
    1,
    base="E/F",
    duality=CONJ_SELFDUAL,
    eta=1,
    algebraicity="algebraic",
    infchar=InfChar((("c1", (10,)), ("c1b", (-10,)))),
)


class TestQuotient:
    def test_standard_case(self):
        q = constant_term_quotient(GroupDescriptor(SP, 4), PI_B, TRIVIAL)
        assert q.serialize()["numerator"] == ["L(s, pi)", "L(2s, pi, wedge2)"]
        assert q.serialize()["denominator"] == ["L(s+1, pi)", "L(2s+1, pi, wedge2)"]

    def test_block_over_core(self):
        q = constant_term_quotient(GroupDescriptor(SP, 5), PI_B, RHO_B)
        assert q.serialize()["numerator"] == ["L(s, pi x rho)", "L(2s, pi, wedge2)"]

    def test_odd_orthogonal_uses_symmetric_square(self):
        pi = CuspidalRecord("pi", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
        rho = CuspidalRecord("rho", 4, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
        q = constant_term_quotient(GroupDescriptor(SO_ODD, 5), pi, rho)
        assert "sym2" in q.serialize()["numerator"][1]

    def test_unitary_sign_tracks_core_degree(self):
        q = constant_term_quotient(GroupDescriptor(UNITARY, 5), PI_E, RHO_E)
        nums = q.serialize()["numerator"]
        assert nums == ["L(s, piu x bc(rhou))", "L(2s, piu, asai-)"]
        rho2 = CuspidalRecord(
            "rho2", 2, base="E/F", duality=CONJ_SELFDUAL, eta=-1, algebraicity="algebraic"
        )
        q2 = constant_term_quotient(GroupDescriptor(UNITARY, 6), PI_E, rho2)
        assert "asai+" in q2.serialize()["numerator"][1]

    def test_layout_is_derived_from_the_two_kinds(self):
        q = LQuotient(["rankin", "pi", "rho"], ("wedge2", "pi"))
        assert (q.pair, q.square) == (("rankin", "pi", "rho"), ("wedge2", "pi"))
        assert q.numerator == (LFactorRef(q.pair, 1, 0), LFactorRef(q.square, 2, 0))
        assert q.denominator == (LFactorRef(q.pair, 1, 1), LFactorRef(q.square, 2, 1))
        with pytest.raises(EisensteinError, match='kind/0: must be one of .*, not "asai\\+"'):
            LQuotient(("std", "pi"), ("asai+", "pi"))

    def test_degree_mismatch(self):
        with pytest.raises(EisensteinError):
            constant_term_quotient(GroupDescriptor(UNITARY, 6), PI_E, RHO_E)
        with pytest.raises(EisensteinError):
            constant_term_quotient(GroupDescriptor(SP, 4), PI_B, RHO_B)

    @pytest.mark.parametrize("core", [*range(1, 14), "trivial"])
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("size", range(8))
    @pytest.mark.parametrize("family", (SP, SO_ODD, SO_EVEN, UNITARY))
    def test_factor_kinds_on_the_grid(self, family, size, n, core):
        ambient = GroupDescriptor(family, size)
        pi = CuspidalRecord("pi", n)
        rho = TRIVIAL if core == "trivial" else CuspidalRecord("rho", core)
        want = expected_quotient(ambient, n, rho)
        if isinstance(want, str):
            with pytest.raises(EisensteinError) as err:
                constant_term_quotient(ambient, pi, rho)
            assert str(err.value) == want
        else:
            assert constant_term_quotient(ambient, pi, rho) == LQuotient(*want)


class TestFactorKinds:
    @pytest.mark.parametrize(
        "kind,text",
        [
            (("std", "pi"), "L(2s-1/2, pi)"),
            (("rankin", "pi", "rho"), "L(2s-1/2, pi x rho)"),
            (("bc_rankin", "pi", "rho"), "L(2s-1/2, pi x bc(rho))"),
            (("wedge2", "pi"), "L(2s-1/2, pi, wedge2)"),
            (("sym2", "pi"), "L(2s-1/2, pi, sym2)"),
            (("asai", 1, "pi"), "L(2s-1/2, pi, asai+)"),
            (("asai", -1, "pi"), "L(2s-1/2, pi, asai-)"),
        ],
    )
    def test_every_kind_renders(self, kind, text):
        assert LFactorRef(list(kind), 2, "-1/2").kind == kind
        assert LFactorRef(kind, 2, "-1/2").serialize() == text

    @pytest.mark.parametrize(
        "kind,message",
        [
            ((), "kind: must name a factor kind"),
            (("pair", "pi", "rho"), 'kind/0: must be one of "std", .*, not "pair"'),
            (("asai+", "pi"), 'kind/0: must be one of .*, not "asai\\+"'),
            (("asai", True, "pi"), "kind/1: must be one of 1, -1, not true"),
            (("asai", "pi"), 'kind/1: must be one of 1, -1, not "pi"'),
            (("asai", 1), "kind: has length 2, not 3"),
            (("rankin", "pi", 2), "kind/2: must be a string"),
            (("std", "pi", "rho"), "kind: has length 3, not 2"),
        ],
    )
    def test_malformed_kinds_are_refused(self, kind, message):
        with pytest.raises(EisensteinError, match=message):
            LFactorRef(kind, 1, 0)
        with pytest.raises(EisensteinError, match=message.replace("kind", "/f", 1)):
            check_kind(kind, "/f")

    def test_asai_sign_is_the_parity_of_the_core_degree(self):
        assert [asai_sign(r) for r in range(6)] == [1, -1, 1, -1, 1, -1]
        q = constant_term_quotient(GroupDescriptor(UNITARY, 5), PI_E, RHO_E)
        assert q.numerator[1].kind == ("asai", asai_sign(RHO_E.degree), "piu")


class TestLedgerAndPole:
    def test_symplectic_square_pole(self):
        led = default_ledger(PI_B, RHO_B)
        assert led.order(("wedge2", "pi"), 1) == -1
        assert led.order(("sym2", "pi"), 1) == 0

    def test_conj_dual_parity_entries(self):
        led = default_ledger(PI_E, RHO_E)
        assert led.order(("asai", -1, "piu"), 1) == -1
        assert led.order(("asai", 1, "piu"), 1) == 0
        assert led.order(("asai", 1, "rhou"), 1) == -1

    def test_truth_table(self):
        q = constant_term_quotient(GroupDescriptor(SP, 5), PI_B, RHO_B)
        led = default_ledger(PI_B, RHO_B)
        assert pole_at_half(q, led, 0).has_pole
        assert not pole_at_half(q, led, 1).has_pole
        # orthogonal block in the alternating square: no pole either way
        pi_o = CuspidalRecord("pio", 2, duality=SELFDUAL_ORTHOGONAL, algebraicity="half_algebraic")
        q_o = LQuotient(("rankin", "pio", "rho"), ("wedge2", "pio"))
        led_o = default_ledger(pi_o, RHO_B)
        assert not pole_at_half(q_o, led_o, 0).has_pole
        assert not pole_at_half(q_o, led_o, 1).has_pole

    def test_monotone_in_central_order(self):
        q = constant_term_quotient(GroupDescriptor(SP, 5), PI_B, RHO_B)
        led = default_ledger(PI_B, RHO_B)
        orders = [pole_at_half(q, led, c).total_order for c in range(4)]
        assert orders == sorted(orders)
        assert all(
            not pole_at_half(q, led, c).has_pole for c in range(1, 4)
        )

    @pytest.mark.parametrize(
        "aux_order,central,nonzero",
        [(-1, 0, True), (0, 0, False), (-1, 1, False), (0, 1, False), (-2, 1, False)],
    )
    def test_contributing_factors(self, aux_order, central, nonzero):
        """The auxiliary factor contributes when it has a pole; the central
        value is listed as nonzero only when no central zero is declared and
        the quotient has a pole."""
        q = constant_term_quotient(GroupDescriptor(SP, 5), PI_B, RHO_B)
        pair, aux = q.numerator
        led = default_ledger(PI_B, RHO_B)
        led.set(aux.kind, aux.point_at(Fraction(1, 2)), aux_order, "test")
        expected = ["L(2s, pi, wedge2)"] if aux_order < 0 else []
        if nonzero:
            expected.append("central value nonzero: L(s, pi x rho)")
        decision = pole_at_half(q, led, central)
        assert decision.total_order == central + aux_order
        assert list(decision.contributing_factors) == expected

    def test_missing_ledger_point(self):
        q = constant_term_quotient(GroupDescriptor(SP, 5), PI_B, RHO_B)
        with pytest.raises(EisensteinError):
            pole_at_half(q, AnalyticLedger(), 0)

    def test_a_second_set_replaces_order_and_provenance_together(self):
        led = AnalyticLedger()
        led.set(("sym2", "pi"), 2, 0, "default:regular")
        led.set(("wedge2", "pi"), 1, -1, "default:duality")
        led.set(["wedge2", "pi"], Fraction(1), 0, "override:/ledger_overrides/0")
        assert led.entries == {
            (("sym2", "pi"), Fraction(2)): (0, "default:regular"),
            (("wedge2", "pi"), Fraction(1)): (0, "override:/ledger_overrides/0"),
        }
        assert led.order(("wedge2", "pi"), "1") == 0
        assert [e for e in led.serialize() if e["factor"] == ["wedge2", "pi"]] == [
            {
                "factor": ["wedge2", "pi"],
                "point": "1",
                "order": 0,
                "provenance": "override:/ledger_overrides/0",
            }
        ]
        assert len(led.serialize()) == 2

    @pytest.mark.parametrize("total", range(-2, 3))
    def test_has_pole_is_a_negative_total_order(self, total):
        decision = PoleDecision(total, (), ())
        assert "has_pole" not in PoleDecision._fields
        assert decision.has_pole is (total < 0)
        assert decision.serialize()["has_pole"] is (total < 0)

    def test_every_step_has_one_citation(self):
        q = constant_term_quotient(GroupDescriptor(SP, 5), PI_B, RHO_B)
        led = default_ledger(PI_B, RHO_B)
        decision = pole_at_half(q, led, 0)
        for claim, rule_id in decision.derivation:
            assert isinstance(rule_id, str) and rule_id


class TestResidualParameter:
    def test_shape(self):
        psi = residual_parameter(PI_B, RHO_B)
        assert psi.serialize()[0]["sp"] in (1, 2)
        assert degree(psi) == 2 * PI_B.degree + RHO_B.degree

    def test_standard_case(self):
        psi = residual_parameter(PI_B, TRIVIAL)
        assert degree(psi) == 2 * PI_B.degree + 1

    def test_degree_matches_dual_standard(self):
        # ambient Sp_{r+m}: dual standard degree 2(r+m)+1 = 2r + t
        psi = residual_parameter(PI_B, RHO_B)
        ambient = GroupDescriptor(SP, PI_B.degree + RHO_B.degree // 2)
        assert degree(psi) == std_degree(ambient)


class TestPipeline:
    def test_target_b_yes(self):
        res = theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, 0, default_ledger(PI_B, RHO_B), False)
        assert res["verdict"] == "nonvanishing invariant: YES"
        assert [d["step"] for d in res["derivation"]] == [1, 2, 3, 4, 5]
        assert all(d["citation"] for d in res["derivation"])

    def test_target_b_dichotomy(self):
        res = theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, 1, default_ledger(PI_B, RHO_B), False)
        assert "vanish" in res["verdict"]

    def test_target_a(self):
        ledger = default_ledger(PI_B, TRIVIAL)
        res = theorem_pipeline("A", PI_B, TRIVIAL, EMB, AUT, 0, ledger, False)
        assert res["verdict"] == "nonvanishing invariant: YES"
        assert res["details"]["ambient"] == "Sp8"

    def test_target_e(self):
        ledger = default_ledger(PI_E, RHO_E)
        res = theorem_pipeline("E", PI_E, RHO_E, EMB_E, AUT_E, 0, ledger, False)
        assert res["verdict"] == "nonvanishing invariant: YES"
        assert "satake_chain" in res["details"]

    def test_target_e_wrong_sign(self):
        bad = CuspidalRecord(
            "piu",
            2,
            base="E/F",
            duality=CONJ_SELFDUAL,
            eta=1,
            algebraicity="algebraic",
            infchar=PI_E.infchar,
        )
        with pytest.raises(HypothesisError, match="sign condition violated"):
            theorem_pipeline("E", bad, RHO_E, EMB_E, AUT_E, 0, default_ledger(bad, RHO_E), False)

    def test_superregularity_enforced(self):
        flat = CuspidalRecord(
            "pi",
            4,
            duality=SELFDUAL_SYMPLECTIC,
            algebraicity="algebraic",
            infchar=InfChar((("r1", (5, 3, -3, -5)),)),
        )
        with pytest.raises(HypothesisError, match="superregularity"):
            theorem_pipeline("B", flat, RHO_B, EMB, AUT, 0, default_ledger(flat, RHO_B), False)

    def test_disjointness_enforced(self):
        close = CuspidalRecord(
            "rho",
            3,
            duality=SELFDUAL_ORTHOGONAL,
            algebraicity="algebraic",
            infchar=InfChar((("r1", (2, 0, -2)),)),
        )
        with pytest.raises(HypothesisError, match="disjointness"):
            theorem_pipeline("B", PI_B, close, EMB, AUT, 0, default_ledger(PI_B, close), False)

    def test_purity_enforced(self):
        heavy = CuspidalRecord(
            "pi",
            4,
            duality=SELFDUAL_SYMPLECTIC,
            algebraicity="algebraic",
            weight=Fraction(2),  # declared weight contradicts the symmetric character
            infchar=PI_B.infchar,
        )
        with pytest.raises(HypothesisError, match="purity"):
            theorem_pipeline("B", heavy, RHO_B, EMB, AUT, 0, default_ledger(heavy, RHO_B), False)

    def test_involution_symmetry(self):
        res = theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, 0, default_ledger(PI_B, RHO_B), False)
        moved_pi = CuspidalRecord(
            "a(pi)", 4, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic", infchar=PI_B.infchar
        )
        moved_rho = CuspidalRecord(
            "a(rho)", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic", infchar=RHO_B.infchar
        )
        inv = AutModel(eps=-1, embedding_map=(("r1", "r1"),))  # AUT's inverse
        ledger = default_ledger(moved_pi, moved_rho)
        back = theorem_pipeline("B", moved_pi, moved_rho, EMB, inv, 0, ledger, False)
        assert back["verdict"] == res["verdict"]

    def test_strict_mode_blocks_open_choices(self):
        with pytest.raises(HypothesisError, match="strict"):
            theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, 0, default_ledger(PI_B, RHO_B), True)


class TestSignPipelines:
    def test_target_d(self):
        res = sign_pipeline("D", PI_B, RHO_B, EMB, {}, False)
        assert res["verdict"].startswith("sign ")
        assert res["details"]["sign"] in (1, -1)

    def test_target_d_needs_opposite_types(self):
        with pytest.raises(HypothesisError):
            sign_pipeline("D", PI_B, PI_B, EMB, {}, False)

    def test_target_f_consistent(self):
        res = sign_pipeline("F", PI_E, RHO_E, EMB_E, {}, False)
        assert res["verdict"] == "sign invariant: ratio 1"

    def test_target_f_raw(self):
        # odd r·t with the consistency relation left unset: the raw product
        pi1 = CuspidalRecord(
            "piu1", 1, base="E/F", duality=CONJ_SELFDUAL, eta=-1, algebraicity="algebraic"
        )
        rho1 = CuspidalRecord(
            "rhou1", 1, base="E/F", duality=CONJ_SELFDUAL, eta=1, algebraicity="algebraic"
        )
        res = sign_pipeline(
            "F",
            pi1,
            rho1,
            EMB_E,
            ratio_flags={
                "discriminant_consistency": False,
                "eps_sqrt_disc": -1,
                "eps_i": 1,
            },
            strict=False,
        )
        assert res["details"]["ratio"] == -1
        consistent = sign_pipeline("F", pi1, rho1, EMB_E, {}, False)
        assert consistent["details"]["ratio"] == 1

    @pytest.mark.parametrize(
        "emb", (None, EMB_E, EmbeddingSet(complex_pairs=(("c1", "c1b"), ("c2", "c2b"))))
    )
    def test_target_f_flags_take_the_ratio_defaults(self, emb):
        """Every subset of the flags, against the ratio with each default
        written out: d_C from the embeddings when given, else the flag, else 0."""
        pi1 = CuspidalRecord("piu1", 1, base="E/F", duality=CONJ_SELFDUAL, eta=-1)
        rho1 = CuspidalRecord("rhou1", 1, base="E/F", duality=CONJ_SELFDUAL, eta=1)
        given = {"d_C": 1, "eps_sqrt_disc": -1, "eps_i": -1, "discriminant_consistency": False}
        ratios = set()
        for k in range(len(given) + 1):
            for keys in itertools.combinations(given, k):
                flags = {key: given[key] for key in keys}
                full = {"d_C": 0, "eps_sqrt_disc": 1, "eps_i": 1, "discriminant_consistency": True}
                full.update(flags)
                if emb is not None:
                    full["d_C"] = emb.d_C
                res = sign_pipeline("F", pi1, rho1, emb, flags, False)
                ratio = invariance_ratio_conjdual(1, 1, **full)
                assert res["details"] == {"ratio": ratio, "d_C": full["d_C"]}, flags
                assert flags == {key: given[key] for key in keys}
                ratios.add(ratio)
        assert ratios == {1, -1}


class TestDegreeConsistency:
    @pytest.mark.parametrize("r", (2, 4))
    @pytest.mark.parametrize("core_rank", (1, 2, 3))
    def test_parameter_degree_matches_dual_standard(self, r, core_rank):
        from langkit.groups import ambient_with_block

        # odd orthogonal core: ambient symplectic
        t = 2 * core_rank + 1
        pi = CuspidalRecord("pi", r, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
        rho = CuspidalRecord("rho", t, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
        ambient = ambient_with_block("orthogonal", r, t)
        assert degree(residual_parameter(pi, rho)) == std_degree(ambient)
        # even orthogonal core: ambient even orthogonal
        t = 2 * core_rank
        rho_even = CuspidalRecord(
            "rho", t, duality=SELFDUAL_ORTHOGONAL, algebraicity="half_algebraic"
        )
        ambient = ambient_with_block("orthogonal", r, t)
        assert degree(residual_parameter(pi, rho_even)) == std_degree(ambient)
        # symplectic core: ambient odd orthogonal, dual symplectic
        rho_symp = CuspidalRecord("rho", t, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
        pi_orth = CuspidalRecord("pi", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
        ambient = ambient_with_block("symplectic", 3, t)
        assert degree(residual_parameter(pi_orth, rho_symp)) == std_degree(ambient)

    def test_unitary_parameter_fills_the_group(self):
        psi = residual_parameter(PI_E, RHO_E)
        assert degree(psi) == 2 * PI_E.degree + RHO_E.degree == GroupDescriptor(UNITARY, 5).size


# ---------------------------------------------------------------------------
# hypothesis refusals: the records and embeddings that thmA…thmF resolve to,
# one field changed at a time (or one infinitesimal character replaced, see
# `INFCHAR_CHANGES`), and the exact outcome of the target's pipeline (its
# verdict, or the error class and message).  A changed duality carries
# the eta it needs (only conjugate-self-dual records have one); a record the
# constructor refuses ends in its `SpectraError`.

HYPOTHESIS_GRID = {
    "HypothesisError: block record must be algebraic": [
        "thmA pi.algebraicity=half_algebraic", "thmA pi.algebraicity=none",
        "thmE pi.algebraicity=half_algebraic", "thmE pi.algebraicity=none",
    ],
    "HypothesisError: block record must be half_algebraic": [
        "thmE pi.degree=1", "thmE pi.degree=3", "thmE pi.degree=5",
    ],
    "HypothesisError: block record must be self-dual symplectic": [
        "thmA roles swapped", "thmA pi.duality=none", "thmA pi.duality=orthogonal",
        "thmA pi.duality=conj_selfdual", "thmB roles swapped",
    ],
    "HypothesisError: both records must be algebraic": [
        "thmB pi.algebraicity=half_algebraic", "thmB pi.algebraicity=none",
        "thmB rho.algebraicity=half_algebraic", "thmB rho.algebraicity=none",
    ],
    "HypothesisError: core degree must be odd and ≥ 3": [
        "thmB rho.degree=1", "thmB rho.degree=2", "thmB rho.degree=4", "thmB rho.degree=6",
    ],
    "HypothesisError: core record must be algebraic": [
        "thmE rho.algebraicity=half_algebraic", "thmE rho.algebraicity=none",
    ],
    "HypothesisError: core regularity fails at embedding c1": [
        "thmE rho.degree=3 & rho.infchar=c1:5,5,3;c1b:-3,-5,-5",
    ],
    "HypothesisError: disjointness fails at embedding c1": ["thmE rho.infchar=c1:3;c1b:-3"],
    "HypothesisError: disjointness fails at embedding r1": ["thmB rho.infchar=r1:5,0,-5"],
    "HypothesisError: even-orthogonal regularity fails at embedding r1": [
        "thmC rho.weight=-1 & rho.infchar=r1:13/2,7/2,-5/2,-11/2",
    ],
    "HypothesisError: induced regularity fails at embedding r1": ["thmC rho.infchar=r1:5,3,-3,-5"],
    "HypothesisError: orthogonal record must be algebraic": [
        "thmC rho.degree=1", "thmC rho.degree=3", "thmC rho.degree=5",
    ],
    "HypothesisError: orthogonal record must be half_algebraic": [
        "thmC rho.algebraicity=algebraic", "thmC rho.algebraicity=none",
    ],
    "HypothesisError: purity: declared weight of pi does not match its infinitesimal character": [
        "thmA pi.degree=2", "thmA pi.degree=6", "thmB pi.degree=2", "thmB pi.degree=6",
        "thmC pi.degree=2", "thmC pi.degree=6",
    ],
    "HypothesisError: purity: declared weight of piu does not match its infinitesimal character": [
        "thmE pi.degree=4", "thmE pi.degree=6",
    ],
    "HypothesisError: purity: declared weight of rho does not match its infinitesimal character": [
        "thmB rho.degree=5", "thmC rho.degree=2", "thmC rho.degree=6",
    ],
    "HypothesisError: purity: declared weight of rhou does not match its infinitesimal character": [
        "thmE rho.degree=3", "thmE rho.degree=5",
    ],
    "HypothesisError: ratio target needs conjugate-self-dual records": [
        "thmF pi.duality=none", "thmF pi.duality=symplectic", "thmF pi.duality=orthogonal",
        "thmF rho.duality=none", "thmF rho.duality=orthogonal",
    ],
    "HypothesisError: records must be self-dual of opposite types": [
        "thmB pi.duality=none", "thmB pi.duality=orthogonal", "thmB pi.duality=conj_selfdual",
        "thmB rho.duality=none", "thmB rho.duality=conj_selfdual", "thmC pi.duality=none",
        "thmC pi.duality=orthogonal", "thmC pi.duality=conj_selfdual", "thmC rho.duality=none",
        "thmC rho.duality=symplectic", "thmC rho.duality=conj_selfdual",
    ],
    "HypothesisError: regularity: core record lacks an infinitesimal character": [
        "thmB rho.infchar dropped", "thmC rho.infchar dropped", "thmE rho.infchar dropped",
    ],
    "HypothesisError: regularity: no embeddings supplied": [
        "thmA embeddings dropped", "thmB embeddings dropped", "thmC embeddings dropped",
        "thmE embeddings dropped",
    ],
    "HypothesisError: regularity: record pi lacks an infinitesimal character": [
        "thmA pi.infchar dropped", "thmB pi.infchar dropped", "thmC pi.infchar dropped",
    ],
    "HypothesisError: regularity: record piu lacks an infinitesimal character": [
        "thmE pi.infchar dropped",
    ],
    "HypothesisError: sign condition violated: block parity must be (-1)^r": [
        "thmE pi.eta=1", "thmE rho.degree=2", "thmE rho.degree=4", "thmE rho.degree=6",
    ],
    "HypothesisError: sign condition violated: core parity must be (-1)^(r-1)": [
        "thmE rho.eta=-1",
    ],
    "HypothesisError: sign target needs infinitesimal characters": [
        "thmD embeddings dropped", "thmD pi.infchar dropped", "thmD rho.infchar dropped",
    ],
    "HypothesisError: sign target needs one record of each self-dual type": [
        "thmD pi.duality=none", "thmD pi.duality=orthogonal", "thmD pi.duality=conj_selfdual",
        "thmD rho.duality=none", "thmD rho.duality=conj_selfdual",
    ],
    "HypothesisError: superregularity fails at embedding c1": [
        "thmE pi.infchar=c1:3/2,1/2;c1b:-1/2,-3/2",
    ],
    "HypothesisError: superregularity fails at embedding r1": [
        "thmA pi.infchar=r1:9/2,1/2,-1/2,-9/2", "thmB pi.infchar=r1:5/2,3/2,-3/2,-5/2",
    ],
    "HypothesisError: standard target needs the trivial core record": [
        "thmA rho.degree=2", "thmA rho.degree=3", "thmA rho.degree=4", "thmA rho.degree=5",
        "thmA rho.degree=6", "thmA rho.duality=none", "thmA rho.duality=conj_selfdual",
    ],
    "HypothesisError: symplectic record must be algebraic": [
        "thmC pi.algebraicity=half_algebraic", "thmC pi.algebraicity=none",
    ],
    "HypothesisError: unitary target needs conjugate-self-dual records": [
        "thmE pi.duality=none", "thmE pi.duality=symplectic", "thmE pi.duality=orthogonal",
        "thmE rho.duality=none", "thmE rho.duality=orthogonal",
    ],
    "nonvanishing invariant: YES": [
        "thmA unchanged", "thmA rho.algebraicity=half_algebraic", "thmA rho.algebraicity=none",
        "thmA rho.infchar dropped", "thmB unchanged", "thmC unchanged", "thmC roles swapped",
        "thmE unchanged", "thmE roles swapped",
    ],
    "sign -1: order parity odd invariant": [
        "thmD unchanged", "thmD roles swapped", "thmD pi.degree=4", "thmD pi.degree=6",
        "thmD pi.algebraicity=half_algebraic", "thmD pi.algebraicity=none", "thmD rho.degree=2",
        "thmD rho.degree=3", "thmD rho.degree=4", "thmD rho.degree=5", "thmD rho.degree=6",
        "thmD rho.algebraicity=half_algebraic", "thmD rho.algebraicity=none",
    ],
    "sign invariant: ratio 1": [
        "thmF unchanged", "thmF embeddings dropped", "thmF roles swapped", "thmF pi.degree=1",
        "thmF pi.degree=3", "thmF pi.degree=4", "thmF pi.degree=5", "thmF pi.degree=6",
        "thmF pi.eta=1", "thmF pi.algebraicity=half_algebraic", "thmF pi.algebraicity=none",
        "thmF pi.infchar dropped", "thmF rho.degree=2", "thmF rho.degree=3", "thmF rho.degree=4",
        "thmF rho.degree=5", "thmF rho.degree=6", "thmF rho.eta=-1",
        "thmF rho.algebraicity=half_algebraic", "thmF rho.algebraicity=none",
        "thmF rho.infchar dropped",
    ],
    "SpectraError: conjugate-self-dual records carry a parity sign": [
        "thmE pi.eta=0", "thmE rho.eta=0", "thmF pi.eta=0", "thmF rho.eta=0",
    ],
    "SpectraError: only conjugate-self-dual records carry eta": [
        "thmA pi.eta=-1", "thmA pi.eta=1", "thmA rho.eta=-1", "thmA rho.eta=1", "thmB pi.eta=-1",
        "thmB pi.eta=1", "thmB rho.eta=-1", "thmB rho.eta=1", "thmC pi.eta=-1", "thmC pi.eta=1",
        "thmC rho.eta=-1", "thmC rho.eta=1", "thmD pi.eta=-1", "thmD pi.eta=1", "thmD rho.eta=-1",
        "thmD rho.eta=1",
    ],
    "SpectraError: symplectic records have even degree": [
        "thmA pi.degree=1", "thmA pi.degree=3", "thmA pi.degree=5", "thmA rho.duality=symplectic",
        "thmB pi.degree=1", "thmB pi.degree=3", "thmB pi.degree=5", "thmB rho.duality=symplectic",
        "thmC pi.degree=1", "thmC pi.degree=3", "thmC pi.degree=5", "thmD pi.degree=1",
        "thmD pi.degree=3", "thmD pi.degree=5", "thmD rho.duality=symplectic",
        "thmE rho.duality=symplectic", "thmF rho.duality=symplectic",
    ],

}


def _library_case(name):
    scn = json.loads((cli.scenario_dir() / f"{name}.json").read_text())
    emb = cli.parse_embeddings(scn)
    pi, rho = cli.resolve_records(scn, emb)
    return scn, emb, pi, rho, cli.parse_aut_spec(scn, emb)


GRID_VALUES = {
    "duality": ("none", SELFDUAL_SYMPLECTIC, SELFDUAL_ORTHOGONAL, CONJ_SELFDUAL),
    "degree": range(1, 7),
    "eta": (-1, 0, 1),
    "algebraicity": ("algebraic", "half_algebraic", "none"),
}


# whole infinitesimal characters put in place of a record's, as
# "label:v,...;label:v,..." with the two labels of a complex pair moved
# together so that purity holds.  Each reaches a regularity or disjointness
# refusal, which no one-field change of a library case does.  Two need a
# second field: a degree-1 core is always strictly decreasing, and degree 3
# keeps thmE's parity signs and algebraicity class; and an even orthogonal
# character that fails the shape yet is induced regular is not symmetric,
# so it moves the weight.
INFCHAR_CHANGES = {
    "thmA": ["pi.infchar=r1:9/2,1/2,-1/2,-9/2"],
    "thmB": ["pi.infchar=r1:5/2,3/2,-3/2,-5/2", "rho.infchar=r1:5,0,-5"],
    "thmC": ["rho.infchar=r1:5,3,-3,-5", "rho.weight=-1 & rho.infchar=r1:13/2,7/2,-5/2,-11/2"],
    "thmE": [
        "pi.infchar=c1:3/2,1/2;c1b:-1/2,-3/2",
        "rho.degree=3 & rho.infchar=c1:5,5,3;c1b:-3,-5,-5",
        "rho.infchar=c1:3;c1b:-3",
    ],
}


def _changes(pi, rho):
    """The change ids of one library case, in grid order."""
    out = ["unchanged", "embeddings dropped", "roles swapped"]
    for role, rec in (("pi", pi), ("rho", rho)):
        for field, options in GRID_VALUES.items():
            out += [f"{role}.{field}={v}" for v in options if v != getattr(rec, field)]
        if rec.infchar is not None:
            out.append(f"{role}.infchar dropped")
    return out


def _infchar(text):
    """The InfChar that "label:v,...;label:v,..." spells, entries as in a scenario."""
    return InfChar(
        tuple(
            (label, tuple(doubled(Fraction(v)) for v in entries.split(",")))
            for label, entries in (part.split(":") for part in text.split(";"))
        )
    )


def _changed(rec, change):
    """``rec`` with one change: "infchar dropped" or "field=value"."""
    fields = {f: getattr(rec, f) for f in rec._fields}
    if change == "infchar dropped":
        fields["infchar"] = None
    else:
        field, value = change.split("=")
        fields[field] = {"degree": int, "eta": int, "infchar": _infchar}.get(field, str)(value)
        if field == "duality":
            fields["eta"] = (rec.eta or 1) if value == CONJ_SELFDUAL else 0
    return CuspidalRecord(**fields)


def _grid_outcome(case_id):
    name, change = case_id.split(" ", 1)
    scn, emb, pi, rho, aut = _library_case(name)
    target = scn["theorem_target"]
    try:
        if change == "embeddings dropped":
            emb = None
        elif change == "roles swapped":
            pi, rho = rho, pi
        elif change != "unchanged":  # "role.change", several joined by " & "
            records = {"pi": pi, "rho": rho}
            for part in change.split(" & "):
                role, edit = part.split(".", 1)
                records[role] = _changed(records[role], edit)
            pi, rho = records["pi"], records["rho"]
        if target in ("D", "F"):
            res = sign_pipeline(target, pi, rho, emb, scn.get("ratio_flags", {}), False)
        else:
            central, ledger = scn.get("central_order", 0), default_ledger(pi, rho)
            res = theorem_pipeline(target, pi, rho, emb, aut, central, ledger, False)
    except (EisensteinError, SpectraError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return res["verdict"]


GRID_CASES = {case: outcome for outcome, cases in HYPOTHESIS_GRID.items() for case in cases}


def test_hypothesis_grid_covers_every_change_once():
    expected = []
    for name in ("thmA", "thmB", "thmC", "thmD", "thmE", "thmF"):
        _, _, pi, rho, _ = _library_case(name)
        changes = _changes(pi, rho) + INFCHAR_CHANGES.get(name, [])
        expected += [f"{name} {change}" for change in changes]
    listed = [case for cases in HYPOTHESIS_GRID.values() for case in cases]
    assert sorted(listed) == sorted(expected)
    assert len(set(listed)) == len(listed)


@pytest.mark.parametrize("case_id", list(GRID_CASES))
def test_hypothesis_grid(case_id):
    assert _grid_outcome(case_id) == GRID_CASES[case_id]


# refusals that no input reaches: none, a refusal ships with a grid row
UNREACHED_REFUSALS = set()


def test_every_record_refusal_is_in_the_grid():
    """Each HypothesisError text of the two target validators, the
    infinitesimal-character checks and `sign_pipeline` is some grid outcome,
    or is listed as unreached."""
    source = Path(__file__).resolve().parents[1] / "src" / "langkit" / "eisenstein.py"
    checked = (
        "_validate_selfdual_target",
        "_validate_unitary_target",
        "_check_infchar_hypotheses",
        "sign_pipeline",
    )
    patterns, raises = {}, 0
    for func in ast.parse(source.read_text(encoding="utf-8")).body:
        if not (isinstance(func, ast.FunctionDef) and func.name in checked):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "HypothesisError"
            ):
                (arg,) = node.exc.args
                parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
                text = "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts)
                patterns[text] = "HypothesisError: " + ".+".join(map(re.escape, text.split("{}")))
                raises += 1
    # two raises share "block record must be self-dual symplectic", and the
    # A/B and E branches share the superregularity and disjointness texts
    assert (raises, len(patterns)) == (28, 25)
    for text, pattern in sorted(patterns.items()):
        reached = any(re.fullmatch(pattern, outcome) for outcome in HYPOTHESIS_GRID)
        assert reached == (text not in UNREACHED_REFUSALS), text
