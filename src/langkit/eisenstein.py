"""Constant-term quotients, the pole decision at the half point, and the
full invariance pipeline.

The quotient attached to a maximal-parabolic induction always has four
factors: the pair factor at s and s+1 and the family's auxiliary factor
(alternating square, symmetric square, or a sign-matched twisted tensor
factor) at 2s and 2s+1.  Orders of the factors at the relevant points live
in an analytic ledger (negative order = pole), defaulted from the duality
types and overridable with provenance.  `theorem_pipeline` replays the
whole invariance argument symbolically and emits a citation-per-step
derivation log.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import rules
from .arch import (
    ArchError,
    EmbeddingSet,
    algebraicity_required,
    induced_regular,
    invariance_ratio_conjdual,
    is_disjoint,
    is_SO_regular,
    is_superregular,
    parity_of_order,
    root_number_selfdual,
    strictly_decreasing,
    strictly_gapped,
)
from .groups import (
    SO_EVEN,
    SO_ODD,
    SP,
    UNITARY,
    GroupDescriptor,
    ambient_with_block,
    unitary,
)
from .rationals import HALF, half_str, rat, rat_str
from .record import Record
from .satake import AutModel, bc_chain_check, eps_identities_hold
from .spectra import (
    CONJ_SELFDUAL,
    SELFDUAL_ORTHOGONAL,
    SELFDUAL_SYMPLECTIC,
    ArthurParameter,
    CuspidalRecord,
    classify_support,
    duality_preserved,
    purity_consistent,
)


class EisensteinError(ValueError):
    pass


class HypothesisError(EisensteinError):
    """A named hypothesis of the chosen theorem target fails."""


# ---------------------------------------------------------------------------
# L-factor references and the ledger


# kind -> number of labels; an Asai factor carries its parity sign, 1 or -1,
# between the kind and its label
FACTOR_KINDS = {"std": 1, "rankin": 2, "bc_rankin": 2, "wedge2": 1, "sym2": 1, "asai": 1}


def check_kind(kind, at: str = "kind") -> tuple:
    """``kind`` as a tuple if it names a factor of FACTOR_KINDS, such as
    ("rankin", a, b) or ("asai", sign, a); errors name the offending
    position below ``at``."""
    kind = tuple(kind)
    if not kind:
        raise EisensteinError(f"{at}: must name a factor kind")
    name = kind[0]
    if type(name) is not str or name not in FACTOR_KINDS:
        names = ", ".join(json.dumps(k) for k in FACTOR_KINDS)
        raise EisensteinError(f"{at}/0: must be one of {names}, not {json.dumps(name)}")
    signed = name == "asai"
    for i, x in enumerate(kind[1:], 1):
        if signed and i == 1:
            if type(x) is not int or x not in (1, -1):
                raise EisensteinError(f"{at}/1: must be one of 1, -1, not {json.dumps(x)}")
        elif type(x) is not str:
            raise EisensteinError(f"{at}/{i}: must be a string")
    length = 1 + signed + FACTOR_KINDS[name]
    if len(kind) != length:
        raise EisensteinError(f"{at}: has length {len(kind)}, not {length}")
    return kind


def asai_sign(r: int) -> int:
    """The parity sign (-1)^r of the twisted tensor factor over a core of
    degree r: the extension of the tensor square that carries the pole."""
    return -1 if r % 2 else 1


class LFactorRef(Record):
    """One factor L(alpha·s + beta, kind)."""

    _fields = ("kind", "alpha", "beta")

    def __init__(self, kind: tuple, alpha: int, beta: Fraction):
        """``kind`` passes `check_kind`; ``alpha`` is 1 or 2."""
        if alpha not in (1, 2):
            raise EisensteinError("argument slope must be 1 or 2")
        object.__setattr__(self, "kind", check_kind(kind))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", rat(beta))

    def point_at(self, s) -> Fraction:
        return self.alpha * rat(s) + self.beta

    def serialize(self) -> str:
        arg = f"{self.alpha}s" if self.alpha != 1 else "s"
        if self.beta:
            arg += f"+{rat_str(self.beta)}" if self.beta > 0 else rat_str(self.beta)
        k = self.kind
        if k[0] == "rankin":
            body = f"{k[1]} x {k[2]}"
        elif k[0] == "bc_rankin":
            body = f"{k[1]} x bc({k[2]})"
        elif k[0] == "std":
            body = f"{k[1]}"
        elif k[0] == "asai":
            body = f"{k[2]}, asai{'+' if k[1] == 1 else '-'}"
        else:
            body = f"{k[1]}, {k[0]}"
        return f"L({arg}, {body})"


class LQuotient(Record):
    _fields = ("numerator", "denominator")

    def __init__(self, numerator: tuple, denominator: tuple):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def serialize(self) -> dict:
        return {
            "numerator": [f.serialize() for f in self.numerator],
            "denominator": [f.serialize() for f in self.denominator],
        }


class AnalyticLedger(Record):
    """Orders of factor kinds at points; negative = pole order.

    Defaults are derived from duality types; overrides are recorded with
    their provenance and shadow the defaults.
    """

    _fields = ("entries", "provenance")
    __hash__ = None

    def __init__(self, entries: dict | None = None, provenance: dict | None = None):
        """``entries`` maps (kind, point) to order; each ledger owns fresh
        dicts unless given its own."""
        object.__setattr__(self, "entries", {} if entries is None else entries)
        object.__setattr__(self, "provenance", {} if provenance is None else provenance)

    def set(self, kind: tuple, point, order: int, provenance: str):
        if type(order) is not int:
            raise EisensteinError(f"ledger order must be an int, not {order!r}")
        key = (tuple(kind), rat(point))
        self.entries[key] = order
        self.provenance[key] = provenance

    def order(self, kind: tuple, point) -> int:
        key = (tuple(kind), rat(point))
        if key not in self.entries:
            raise EisensteinError(
                f"ledger missing order of {kind} at {rat_str(rat(point))}"
            )
        return self.entries[key]

    def serialize(self) -> list:
        out = []
        for (kind, point), order in sorted(self.entries.items(), key=lambda kv: repr(kv[0])):
            out.append(
                {
                    "factor": list(kind),
                    "point": rat_str(point),
                    "order": order,
                    "provenance": self.provenance.get((kind, point), ""),
                }
            )
        return out


class PoleDecision(Record):
    _fields = ("has_pole", "total_order", "contributing_factors", "derivation")

    def __init__(
        self, has_pole: bool, total_order: int, contributing_factors: tuple, derivation: tuple
    ):
        """``derivation`` is ((claim, rule id), ...)."""
        object.__setattr__(self, "has_pole", has_pole)
        object.__setattr__(self, "total_order", total_order)
        object.__setattr__(self, "contributing_factors", contributing_factors)
        object.__setattr__(self, "derivation", derivation)

    def serialize(self) -> dict:
        return {
            "has_pole": self.has_pole,
            "total_order": self.total_order,
            "contributing_factors": list(self.contributing_factors),
            "derivation": [rules.cited(c, r) for c, r in self.derivation],
        }


# ---------------------------------------------------------------------------
# quotient assembly


def _aux_kind(ambient: GroupDescriptor, pi: CuspidalRecord, rho: CuspidalRecord) -> tuple:
    """The square factor of the block, for an ambient family that
    `constant_term_quotient` accepts."""
    fam = ambient.family
    if fam in (SP, SO_EVEN):
        return ("wedge2", pi.label)
    if fam == SO_ODD:
        return ("sym2", pi.label)
    return ("asai", asai_sign(rho.degree), pi.label)


def constant_term_quotient(
    ambient: GroupDescriptor, pi: CuspidalRecord, rho: CuspidalRecord
) -> LQuotient:
    """The four-factor quotient for the maximal-parabolic induction of the
    block record over the core."""
    fam = ambient.family
    if fam == UNITARY:
        if ambient.size != 2 * pi.degree + rho.degree:
            raise EisensteinError("degrees do not fill the unitary group")
        pair = ("bc_rankin", pi.label, rho.label)
    elif fam in (SP, SO_ODD, SO_EVEN):
        core_rank = ambient.size - pi.degree
        expected_core_degree = {
            SP: 2 * core_rank + 1,
            SO_ODD: 2 * core_rank,
            SO_EVEN: 2 * core_rank,
        }[fam]
        if rho.is_trivial and fam == SP and core_rank == 0:
            pair = ("std", pi.label)
        elif rho.degree == expected_core_degree and core_rank >= 1:
            pair = ("rankin", pi.label, rho.label)
        else:
            raise EisensteinError(
                f"core degree {rho.degree} does not match the ambient family"
            )
    else:
        raise EisensteinError(f"unsupported ambient family {fam}")
    aux = _aux_kind(ambient, pi, rho)
    return LQuotient(
        numerator=(
            LFactorRef(pair, 1, Fraction(0)),
            LFactorRef(aux, 2, Fraction(0)),
        ),
        denominator=(
            LFactorRef(pair, 1, Fraction(1)),
            LFactorRef(aux, 2, Fraction(1)),
        ),
    )


def default_ledger(pi: CuspidalRecord, rho: CuspidalRecord) -> AnalyticLedger:
    """Populate factor orders from the duality types.

    Squares of a self-dual record: the matching one has the simple pole at
    1, the other is regular.  Conjugate-self-dual records: the twisted
    tensor factor with the record's parity sign has the pole at 1, the
    other is regular nonzero.  Pair factors are regular at 3/2, and every
    factor is regular at the denominator points 2 and 3/2.
    """
    led = AnalyticLedger()
    one = Fraction(1)
    for rec in (pi, rho):
        if rec.duality in (SELFDUAL_SYMPLECTIC, SELFDUAL_ORTHOGONAL):
            wedge = -1 if rec.duality == SELFDUAL_SYMPLECTIC else 0
            led.set(("wedge2", rec.label), one, wedge, "default:duality")
            led.set(("sym2", rec.label), one, -1 - wedge, "default:duality")
            led.set(("wedge2", rec.label), 2, 0, "default:regular")
            led.set(("sym2", rec.label), 2, 0, "default:regular")
        elif rec.duality == CONJ_SELFDUAL:
            led.set(("asai", rec.eta, rec.label), one, -1, "default:parity")
            led.set(("asai", -rec.eta, rec.label), one, 0, "default:parity")
            led.set(("asai", rec.eta, rec.label), 2, 0, "default:regular")
            led.set(("asai", -rec.eta, rec.label), 2, 0, "default:regular")
    for pair in (
        ("rankin", pi.label, rho.label),
        ("bc_rankin", pi.label, rho.label),
        ("std", pi.label),
    ):
        led.set(pair, Fraction(3, 2), 0, "default:regular")
    return led


def pole_at_half(
    quotient: LQuotient, ledger: AnalyticLedger, central_order: int
) -> PoleDecision:
    """Order bookkeeping of the quotient at s = 1/2.

    The declared central order replaces the ledger for the pair factor at
    the half point; every other factor order is a ledger lookup, and the
    denominators must be regular.  The pole exists exactly when the total
    order is negative: auxiliary pole present and no central zero.
    """
    if central_order < 0:
        raise EisensteinError("central order is an order of vanishing, ≥ 0")
    pair, aux = quotient.numerator
    aux_point = aux.point_at(HALF)
    aux_order = ledger.order(aux.kind, aux_point)
    total = central_order + aux_order
    contributing = [aux.serialize()] if aux_order < 0 else []
    derivation = [
        (
            f"declared central order of {pair.serialize()} at 1/2 is {central_order}",
            "central-nonvanishing-gate",
        ),
        (f"{aux.serialize()} has order {aux_order} at {rat_str(aux_point)}", "aux-pole-duality"),
    ]
    for f in quotient.denominator:
        point = f.point_at(HALF)
        if ledger.order(f.kind, point) != 0:
            raise EisensteinError(
                f"denominator factor {f.serialize()} is not regular nonzero"
            )
        derivation.append(
            (f"{f.serialize()} is regular nonzero at {rat_str(point)}", "denominator-regular")
        )
    derivation += [
        (
            "normalized local operators contribute no zero or pole on the region",
            "normalized-operator-region",
        ),
        ("epsilon factors are order-0 units", "epsilon-units"),
    ]
    has_pole = total < 0
    if has_pole:
        contributing.append("central value nonzero: " + pair.serialize())
    return PoleDecision(has_pole, total, tuple(contributing), tuple(derivation))


def residual_parameter(
    pi: CuspidalRecord, rho: CuspidalRecord, decision: PoleDecision | None = None
) -> ArthurParameter:
    """The discrete parameter of the residue: ladder 2 on the block record
    plus ladder 1 on the core record."""
    if decision is not None and not decision.has_pole:
        raise EisensteinError("no pole: there is no residual parameter")
    return ArthurParameter(((pi, 2), (rho, 1)))


# ---------------------------------------------------------------------------
# the pipeline


def refuse_open_choices(warnings, strict: bool):
    """Strict mode refuses a run that relies on open-question choices."""
    if strict and warnings:
        raise HypothesisError(
            "strict mode: open-question choices relied upon: " + ", ".join(sorted(warnings))
        )


def _pipeline_report(verdict: str, steps: list, warnings: list, details: dict) -> dict:
    """The report payload of a pipeline; ``steps`` are (claim, rule id)
    pairs, numbered from 1 in the report."""
    return {
        "verdict": verdict,
        "derivation": [rules.cited(c, r, step=i) for i, (c, r) in enumerate(steps, 1)],
        "warnings": sorted(warnings),
        "details": details,
    }


def _check_infchar_hypotheses(
    target: str,
    pi: CuspidalRecord,
    rho: CuspidalRecord,
    emb: EmbeddingSet | None,
):
    """Regularity and disjointness at every embedding, per target.

    Targets A/B require the symmetric superregular shape on the block and
    disjointness from the core; C requires the merged induced character to
    be regular (0 allowed twice) plus the even-orthogonal shape on the
    even orthogonal record; E requires gap-2 spacing on the block,
    strictly decreasing core, and disjointness.
    """
    if emb is None:
        raise HypothesisError("regularity: no embeddings supplied")
    if pi.infchar is None:
        raise HypothesisError(f"regularity: record {pi.label} lacks an infinitesimal character")
    for rec in (pi, rho):
        if not purity_consistent(rec, emb):
            raise HypothesisError(
                f"purity: declared weight of {rec.label} does not match its "
                "infinitesimal character"
            )
    for label in emb.labels:
        p_vals = pi.infchar.at(label)
        if rho.infchar is not None:
            q_vals = rho.infchar.at(label)
        elif rho.is_trivial:
            q_vals = (0,)
        else:
            raise HypothesisError("regularity: core record lacks an infinitesimal character")
        if target in ("A", "B"):
            try:
                if not is_superregular(p_vals):
                    raise HypothesisError(f"superregularity fails at embedding {label}")
            except ArchError as exc:
                raise HypothesisError(f"superregularity: {exc}") from exc
            if not is_disjoint(p_vals, q_vals):
                raise HypothesisError(f"disjointness fails at embedding {label}")
        elif target == "C":
            if not induced_regular(p_vals, q_vals):
                raise HypothesisError(f"induced regularity fails at embedding {label}")
            for rec, vals in ((pi, p_vals), (rho, q_vals)):
                if rec.duality == SELFDUAL_ORTHOGONAL and rec.degree % 2 == 0:
                    if not is_SO_regular(vals):
                        raise HypothesisError(
                            f"even-orthogonal regularity fails at embedding {label}"
                        )
        elif target == "E":
            if not strictly_gapped(p_vals):
                raise HypothesisError(f"superregularity fails at embedding {label}")
            if not strictly_decreasing(q_vals):
                raise HypothesisError(f"core regularity fails at embedding {label}")
            if not is_disjoint(p_vals, q_vals):
                raise HypothesisError(f"disjointness fails at embedding {label}")


def _validate_selfdual_target(target: str, pi: CuspidalRecord, rho: CuspidalRecord):
    if target == "A":
        if pi.duality != SELFDUAL_SYMPLECTIC:
            raise HypothesisError("block record must be self-dual symplectic")
        if pi.algebraicity != "algebraic":
            raise HypothesisError("block record must be algebraic")
        if not rho.is_trivial:
            raise HypothesisError("standard target needs the trivial core record")
        return
    if {pi.duality, rho.duality} != {SELFDUAL_SYMPLECTIC, SELFDUAL_ORTHOGONAL}:
        raise HypothesisError("records must be self-dual of opposite types")
    if target == "B":
        if pi.duality != SELFDUAL_SYMPLECTIC:
            raise HypothesisError("block record must be self-dual symplectic")
        if rho.degree % 2 == 0 or rho.degree < 3:
            raise HypothesisError("core degree must be odd and ≥ 3")
        if pi.degree % 2 or pi.degree < 2:
            raise HypothesisError("block degree must be even and ≥ 2")
        if pi.algebraicity != "algebraic" or rho.algebraicity != "algebraic":
            raise HypothesisError("both records must be algebraic")
        return
    # target C: the symplectic record is algebraic; the orthogonal is
    # algebraic in odd degree, half-algebraic in even degree
    for rec in (pi, rho):
        if rec.duality == SELFDUAL_SYMPLECTIC:
            if rec.algebraicity != "algebraic":
                raise HypothesisError("symplectic record must be algebraic")
        else:
            needed = "algebraic" if rec.degree % 2 else "half_algebraic"
            if rec.algebraicity != needed:
                raise HypothesisError(f"orthogonal record must be {needed}")


def _validate_unitary_target(pi: CuspidalRecord, rho: CuspidalRecord):
    if pi.duality != CONJ_SELFDUAL or rho.duality != CONJ_SELFDUAL:
        raise HypothesisError("unitary target needs conjugate-self-dual records")
    r = rho.degree
    if pi.eta != asai_sign(r):
        raise HypothesisError("sign condition violated: block parity must be (-1)^r")
    if rho.eta != asai_sign(r - 1):
        raise HypothesisError("sign condition violated: core parity must be (-1)^(r-1)")
    needed = algebraicity_required(pi.degree, r)
    if pi.algebraicity != needed:
        raise HypothesisError(f"block record must be {needed}")
    if rho.algebraicity != "algebraic":
        raise HypothesisError("core record must be algebraic")


def target_ambient(target: str, pi: CuspidalRecord, rho: CuspidalRecord) -> GroupDescriptor:
    """The ambient group of a target: Sp for the standard target A, the
    unitary group for E and for conjugate-self-dual data, otherwise the
    classical group with pi as block over the core rho."""
    if target == "A":
        return GroupDescriptor(SP, pi.degree)
    if target == "E" or pi.duality == CONJ_SELFDUAL:
        return unitary(2 * pi.degree + rho.degree)
    return ambient_with_block(rho.duality, pi.degree, rho.degree)


def theorem_pipeline(
    target: str,
    pi: CuspidalRecord,
    rho: CuspidalRecord,
    emb: EmbeddingSet | None,
    aut: AutModel,
    central_order: int = 0,
    ledger: AnalyticLedger | None = None,
    strict: bool = False,
) -> dict:
    """Replay the invariance argument for targets A, B, C (self-dual) and E
    (conjugate-self-dual): pole, residual parameter, transport, support
    classification, transported pole, conclusion.

    Targets with a declared central zero return the vanishing direction of
    the equivalence instead (both sides vanish).  Returns the report
    payload: verdict, numbered derivation, sorted warnings and details.
    """
    if target not in ("A", "B", "C", "E"):
        raise EisensteinError(f"theorem_pipeline does not handle target {target!r}")
    warnings = ["half-plane-region"]

    if target == "E":
        _validate_unitary_target(pi, rho)
        warnings.append("chain-final-halves")
    else:
        _validate_selfdual_target(target, pi, rho)
    ambient = target_ambient(target, pi, rho)
    _check_infchar_hypotheses(target, pi, rho, emb)

    refuse_open_choices(warnings, strict)

    quotient = constant_term_quotient(ambient, pi, rho)
    led = ledger or default_ledger(pi, rho)
    decision = pole_at_half(quotient, led, central_order)

    details = {
        "ambient": ambient.label(),
        "quotient": quotient.serialize(),
        "ledger": led.serialize(),
        "pole": decision.serialize(),
    }

    if not decision.has_pole:
        steps = [
            (
                "declared central zero: the quotient stays regular at the half point",
                "central-nonvanishing-gate",
            ),
            ("the central zero transports: both sides vanish", "dichotomy"),
        ]
        return _pipeline_report(
            "both sides vanish (order >= 1 on each side)", steps, warnings, details
        )

    psi = residual_parameter(pi, rho, decision)
    details["residual_parameter"] = psi.serialize()

    # transport of the records (the trivial record transports to itself)
    moved_pi = duality_preserved(pi, aut)
    moved_rho = rho if rho.is_trivial else duality_preserved(rho, aut)
    details["transported"] = {
        "pi": moved_pi.serialize(),
        "rho": moved_rho.serialize(),
    }
    if target == "E":
        ok, steps, mism = bc_chain_check(pi.degree, rho.degree, aut)
        details["satake_chain"] = steps
        if not ok:
            raise EisensteinError(f"transport chain mismatch: {mism}")
        if not eps_identities_hold(aut, pi.degree, rho.degree):
            raise EisensteinError("sign identities fail")
    psi_moved = residual_parameter(moved_pi, moved_rho)

    # support classification for the transported parameter
    verdicts, accepted = classify_support(psi_moved)
    blocks = sorted(f"{lbl}@{half_str(j)}" for lbl, j in accepted)
    if len(accepted) != 1:
        raise EisensteinError(f"support classification not unique: {', '.join(blocks)}")
    details["support"] = {"accepted": blocks, "candidates": len(verdicts)}

    # transported pole: same quotient shape with transported records
    quotient_moved = constant_term_quotient(ambient, moved_pi, moved_rho)
    led_moved = default_ledger(moved_pi, moved_rho)
    decision_moved = pole_at_half(quotient_moved, led_moved, 0)
    if not decision_moved.has_pole:
        raise EisensteinError("transported quotient lost its pole")
    details["transported_pole"] = decision_moved.serialize()

    steps = [
        (
            "central value nonzero and auxiliary pole present: the series has a pole at "
            "the half point",
            "central-nonvanishing-gate",
        ),
        ("the residue is square-integrable with the ladder-2 parameter", "residual-parameter"),
        (
            "rational structure transports the eigensystem; unramified data follow the "
            "twisted coefficient action"
            + (", verified by the base-change chain" if target == "E" else ""),
            "satake-transport" if target == "E" else "rational-structure-transport",
        ),
        (
            "the transported parameter is supported only on the transported block at "
            "shift 1/2 over the transported core",
            "support-uniqueness",
        ),
        (
            "the transported constant-term quotient must carry the pole, so the "
            "transported central value is nonzero",
            "pole-back-transport",
        ),
    ]
    return _pipeline_report("nonvanishing invariant: YES", steps, warnings, details)


def sign_pipeline(
    target: str,
    pi: CuspidalRecord,
    rho: CuspidalRecord,
    emb: EmbeddingSet | None,
    ratio_flags: dict | None = None,
    strict: bool = False,
) -> dict:
    """Sign targets: the self-dual archimedean product (D) or the
    conjugate-self-dual transport ratio (F), with the order-parity
    conclusion; the report payload as `theorem_pipeline` returns it."""
    if target == "D":
        if {pi.duality, rho.duality} != {SELFDUAL_SYMPLECTIC, SELFDUAL_ORTHOGONAL}:
            raise HypothesisError("sign target needs one record of each self-dual type")
        if emb is None or pi.infchar is None or rho.infchar is None:
            raise HypothesisError("sign target needs infinitesimal characters")
        warnings = ["complex-place-count-parity"] if emb.d_C else []
        refuse_open_choices(warnings, strict)
        sign, cert = root_number_selfdual(
            emb, pi.infchar, rho.infchar, pi.degree, rho.degree
        )
        parity = parity_of_order(sign)
        steps = [
            (f"archimedean sign product equals {sign}", "arch-sign-multiset-invariance"),
            ("the sign is fixed under every embedding relabeling", "arch-sign-multiset-invariance"),
            (f"central vanishing order is {parity} on both sides", "order-parity"),
        ]
        return _pipeline_report(
            f"sign {sign}: order parity {parity} invariant",
            steps,
            warnings,
            {"sign": sign, "certificate": cert},
        )
    if target == "F":
        if pi.duality != CONJ_SELFDUAL or rho.duality != CONJ_SELFDUAL:
            raise HypothesisError("ratio target needs conjugate-self-dual records")
        flags = ratio_flags or {}
        d_C = emb.d_C if emb is not None else flags.get("d_C", 0)
        ratio = invariance_ratio_conjdual(
            pi.degree,
            rho.degree,
            d_C,
            eps_sqrt_disc=flags.get("eps_sqrt_disc", 1),
            eps_i=flags.get("eps_i", 1),
            discriminant_consistency=flags.get("discriminant_consistency", True),
        )
        steps = [
            (
                f"transport ratio of the two contributions equals {ratio}",
                "discriminant-sign-relation",
            ),
            ("order parity is invariant exactly when the ratio is 1", "order-parity"),
        ]
        verdict = (
            "sign invariant: ratio 1"
            if ratio == 1
            else f"raw ratio {ratio} (consistency relation not imposed)"
        )
        return _pipeline_report(verdict, steps, [], {"ratio": ratio, "d_C": d_C})
    raise EisensteinError(f"sign_pipeline does not handle target {target!r}")
