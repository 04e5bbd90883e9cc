from fractions import Fraction

import pytest

from langkit.arch import EmbeddingSet, InfChar
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
from langkit.groups import SO_EVEN, SO_ODD, SP, UNITARY, GroupDescriptor, so_odd, sp, unitary
from langkit.satake import AutModel
from langkit.spectra import (
    CONJ_SELFDUAL,
    SELFDUAL_ORTHOGONAL,
    SELFDUAL_SYMPLECTIC,
    TRIVIAL,
    CuspidalRecord,
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
        q = constant_term_quotient(sp(4), PI_B, TRIVIAL)
        assert q.serialize()["numerator"] == ["L(s, pi)", "L(2s, pi, wedge2)"]
        assert q.serialize()["denominator"] == ["L(s+1, pi)", "L(2s+1, pi, wedge2)"]

    def test_block_over_core(self):
        q = constant_term_quotient(sp(5), PI_B, RHO_B)
        assert q.serialize()["numerator"] == ["L(s, pi x rho)", "L(2s, pi, wedge2)"]

    def test_odd_orthogonal_uses_symmetric_square(self):
        pi = CuspidalRecord("pi", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
        rho = CuspidalRecord("rho", 4, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
        q = constant_term_quotient(so_odd(5), pi, rho)
        assert "sym2" in q.serialize()["numerator"][1]

    def test_unitary_sign_tracks_core_degree(self):
        q = constant_term_quotient(unitary(5), PI_E, RHO_E)
        nums = q.serialize()["numerator"]
        assert nums == ["L(s, piu x bc(rhou))", "L(2s, piu, asai-)"]
        rho2 = CuspidalRecord(
            "rho2", 2, base="E/F", duality=CONJ_SELFDUAL, eta=-1, algebraicity="algebraic"
        )
        q2 = constant_term_quotient(unitary(6), PI_E, rho2)
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
            constant_term_quotient(unitary(6), PI_E, RHO_E)
        with pytest.raises(EisensteinError):
            constant_term_quotient(sp(4), PI_B, RHO_B)

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
        q = constant_term_quotient(unitary(5), PI_E, RHO_E)
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
        q = constant_term_quotient(sp(5), PI_B, RHO_B)
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
        q = constant_term_quotient(sp(5), PI_B, RHO_B)
        led = default_ledger(PI_B, RHO_B)
        orders = [pole_at_half(q, led, c).total_order for c in range(4)]
        assert orders == sorted(orders)
        assert all(
            not pole_at_half(q, led, c).has_pole for c in range(1, 4)
        )

    def test_missing_ledger_point(self):
        q = constant_term_quotient(sp(5), PI_B, RHO_B)
        with pytest.raises(EisensteinError):
            pole_at_half(q, AnalyticLedger(), 0)

    @pytest.mark.parametrize("order", [1.5, 1.0, True, Fraction(1), "1", None])
    def test_ledger_refuses_non_int_orders(self, order):
        led = AnalyticLedger()
        with pytest.raises(EisensteinError, match="must be an int"):
            led.set(("x",), 1, order, "p")
        assert led.entries == {}
        led.set(("x",), 1, -2, "p")
        assert led.order(("x",), 1) == -2

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
        q = constant_term_quotient(sp(5), PI_B, RHO_B)
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

    def test_needs_pole(self):
        q = constant_term_quotient(sp(5), PI_B, RHO_B)
        led = default_ledger(PI_B, RHO_B)
        decision = pole_at_half(q, led, 2)
        with pytest.raises(EisensteinError):
            residual_parameter(PI_B, RHO_B, decision)

    def test_degree_matches_dual_standard(self):
        # ambient Sp_{r+m}: dual standard degree 2(r+m)+1 = 2r + t
        psi = residual_parameter(PI_B, RHO_B)
        ambient = sp(PI_B.degree + RHO_B.degree // 2)
        assert degree(psi) == std_degree(ambient)


class TestPipeline:
    def test_target_b_yes(self):
        res = theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, central_order=0)
        assert res["verdict"] == "nonvanishing invariant: YES"
        assert [d["step"] for d in res["derivation"]] == [1, 2, 3, 4, 5]
        assert all(d["citation"] for d in res["derivation"])

    def test_target_b_dichotomy(self):
        res = theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, central_order=1)
        assert "vanish" in res["verdict"]

    def test_target_a(self):
        res = theorem_pipeline("A", PI_B, TRIVIAL, EMB, AUT, central_order=0)
        assert res["verdict"] == "nonvanishing invariant: YES"
        assert res["details"]["ambient"] == "Sp8"

    def test_target_e(self):
        res = theorem_pipeline("E", PI_E, RHO_E, EMB_E, AUT_E, central_order=0)
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
            theorem_pipeline("E", bad, RHO_E, EMB_E, AUT_E, 0)

    def test_superregularity_enforced(self):
        flat = CuspidalRecord(
            "pi",
            4,
            duality=SELFDUAL_SYMPLECTIC,
            algebraicity="algebraic",
            infchar=InfChar((("r1", (5, 3, -3, -5)),)),
        )
        with pytest.raises(HypothesisError, match="superregularity"):
            theorem_pipeline("B", flat, RHO_B, EMB, AUT, 0)

    def test_disjointness_enforced(self):
        close = CuspidalRecord(
            "rho",
            3,
            duality=SELFDUAL_ORTHOGONAL,
            algebraicity="algebraic",
            infchar=InfChar((("r1", (2, 0, -2)),)),
        )
        with pytest.raises(HypothesisError, match="disjointness"):
            theorem_pipeline("B", PI_B, close, EMB, AUT, 0)

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
            theorem_pipeline("B", heavy, RHO_B, EMB, AUT, 0)

    def test_involution_symmetry(self):
        res = theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, 0)
        moved_pi = CuspidalRecord(
            "a(pi)", 4, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic", infchar=PI_B.infchar
        )
        moved_rho = CuspidalRecord(
            "a(rho)", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic", infchar=RHO_B.infchar
        )
        inv = AutModel(eps=-1, embedding_map=(("r1", "r1"),))  # AUT's inverse
        back = theorem_pipeline("B", moved_pi, moved_rho, EMB, inv, 0)
        assert back["verdict"] == res["verdict"]

    def test_strict_mode_blocks_open_choices(self):
        with pytest.raises(HypothesisError, match="strict"):
            theorem_pipeline("B", PI_B, RHO_B, EMB, AUT, 0, strict=True)


class TestSignPipelines:
    def test_target_d(self):
        res = sign_pipeline("D", PI_B, RHO_B, EMB)
        assert res["verdict"].startswith("sign ")
        assert res["details"]["sign"] in (1, -1)

    def test_target_d_needs_opposite_types(self):
        with pytest.raises(HypothesisError):
            sign_pipeline("D", PI_B, PI_B, EMB)

    def test_target_f_consistent(self):
        res = sign_pipeline("F", PI_E, RHO_E, EMB_E)
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
        )
        assert res["details"]["ratio"] == -1
        consistent = sign_pipeline("F", pi1, rho1, EMB_E)
        assert consistent["details"]["ratio"] == 1


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
        assert degree(psi) == 2 * PI_E.degree + RHO_E.degree == unitary(5).size
