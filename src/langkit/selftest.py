"""Brute-force oracle suites behind the `selftest` command.

Each suite checks a closed form against an independent computation:
word search for lengths, root enumeration for modulus exponents and
gradings, signed-permutation composition for the conjugation operator,
exhaustive generation for round trips and classification.  Everything
here is also exercised by the test suite; the command exists so a
deployed install can revalidate itself.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

from .arch import EmbeddingSet, InfChar, eps_arch, root_number_selfdual
from .dual import conjugation_operator
from .eisenstein import (
    LQuotient,
    asai_sign,
    constant_term_quotient,
    default_ledger,
    pole_at_half,
    residual_parameter,
)
from .groups import (
    SO_EVEN,
    SO_ODD,
    SP,
    UNITARY,
    GroupDescriptor,
    ambient_with_block,
    borel_modulus_compose,
    dual_radical,
    modulus_borel,
    modulus_levi,
)
from .normalizer import (
    DiscreteSegment,
    QuasiTemperedGL,
    QuasiTemperedSelfdual,
    classify_holomorphy,
    factor_normalization,
    intertwining_word,
    verify_wedge_expansion,
)
from .rationals import rat
from .satake import AutModel, bc_chain_check, eps_identities_hold
from .spectra import (
    SELFDUAL_ORTHOGONAL,
    SELFDUAL_SYMPLECTIC,
    TRIVIAL,
    ArthurParameter,
    CuspidalRecord,
    classify_support,
    expand,
    reconstruct,
)
from .weyl import ParabolicShape, RootDatum, all_signed_perms, bfs_lengths


def _suite_word_lengths():
    for t in range(1, 5):
        for u in range(0, 5):
            intertwining_word(t, u)  # raises on any length mismatch
    for t in (1, 2, 3):
        table = bfs_lengths(t)
        if len(table) != 2**t * math.factorial(t):
            raise AssertionError(f"word search reaches {len(table)} elements at rank {t}")
        for w in all_signed_perms(t):
            if w.length() != table[w.images]:
                raise AssertionError(f"length mismatch at {w}")
    return "word lengths: closed count = reduced-word search (rank <= 3), block words on the grid"


# the split families by the type of their root datum
_ROOT_TYPE = {SP: "C", SO_ODD: "B", SO_EVEN: "D"}


def _radical_sum(family: str, rank: int, blocks: tuple, core: int = 0) -> tuple:
    """Coordinates of the sum of the roots of the unipotent radical."""
    roots = ParabolicShape(blocks, core, RootDatum(family, rank)).radical_roots()
    return tuple(map(sum, zip(*roots)))


def _fold(v) -> tuple:
    """A GL_N coordinate vector on the relative torus of U(N): coordinate i
    pairs with N+1-i, and (v_i - v_{N+1-i})/2 is the exponent of |·|_E."""
    return tuple(Fraction(v[i] - v[-1 - i], 2) for i in range(len(v) // 2))


def _levi_root_sum(group, r: int):
    """δ_P exponent of the block-r maximal Levi, read off the radical's roots.
    SO(2) has no roots (and `RootDatum` refuses D1)."""
    N = group.size
    if group.family == UNITARY:
        blocks = (r, N - 2 * r, r) if N > 2 * r else (r, r)
        return _fold(_radical_sum("A", N - 1, blocks))[0]
    if group.family == SO_EVEN and N == 1:
        return 0
    return _radical_sum(_ROOT_TYPE[group.family], N, (r,), N - r)[0]


def _borel_root_sum(group) -> tuple:
    """δ_B exponents from 2ρ; U(1) and SO(2) have no roots."""
    N = group.size
    if group.family == UNITARY:
        return _fold(RootDatum("A", N - 1).twice_rho()) if N > 1 else ()
    if group.family == SO_EVEN and N == 1:
        return (0,)
    return RootDatum(_ROOT_TYPE[group.family], N).twice_rho()


def _suite_modulus():
    groups = [GroupDescriptor(fam, n) for n in range(1, 5) for fam in (SP, SO_ODD, SO_EVEN)]
    groups += [GroupDescriptor(UNITARY, N) for N in range(2, 10)]
    for g in groups:
        if modulus_borel(g) != _borel_root_sum(g):
            raise AssertionError(f"borel mismatch {g.label()}")
        for r in range(1, (g.size // 2 if g.family == UNITARY else g.size) + 1):
            if modulus_levi(g, r) != _levi_root_sum(g, r):
                raise AssertionError(f"modulus mismatch {g.label()} block {r}")
            if not borel_modulus_compose(g, r):
                raise AssertionError(f"composition fails {g.label()} block {r}")
    return (
        "modulus exponents: closed forms = radical root sums (all families), "
        "delta_B = delta_P * delta_B^M"
    )


# the split families by the type of their dual root datum
_DUAL_TYPE = {SP: "B", SO_ODD: "C", SO_EVEN: "D"}


def _radical_grading(family: str, n: int, c: int) -> dict:
    """`dual_radical`'s oracle: the radical roots of the block-n parabolic of
    the dual datum, bucketed by their pairing with (1^n, 0^c), or with
    (1^n, 0^c, -1^n) for U(2n+c), whose dual is GL_{2n+c}."""
    h = [1] * n + [0] * c
    if family == UNITARY:
        h += [-1] * n
        shape = ParabolicShape((n, c, n) if c else (n, n), 0, RootDatum("A", 2 * n + c - 1))
    else:
        shape = ParabolicShape((n,), c, RootDatum(_DUAL_TYPE[family], n + c))
    return Counter(sum(map(mul, root, h)) for root in shape.radical_roots())


def _suite_grading_and_operator():
    cases = [(UNITARY, n, c) for n in range(1, 7) for c in range(0, 7)]
    cases += [(fam, n, c) for fam in _DUAL_TYPE for n in range(1, 5) for c in range(0, 5)]
    cases.remove((SO_EVEN, 1, 0))  # SO(2) has no roots, and `RootDatum` refuses D1
    for case in cases:
        if dual_radical(*case) != _radical_grading(*case):
            raise AssertionError(f"grading mismatch {case}")
    for n in range(1, 5):
        for r in range(0, 5):
            op = conjugation_operator(n, r)
            if op.trace() != asai_sign(r) * n:
                raise AssertionError(f"trace mismatch {n} {r}")
            if not op.then(op).is_identity():
                raise AssertionError(f"involution fails {n} {r}")
    return (
        "dual radical grading = radical roots of the dual datum (U: n,c <= 6; Sp, SO: n,c <= 4); "
        "conjugation operator trace and involution"
    )


def _suite_transport():
    for n in range(1, 7):
        for r in range(0, 7):
            for e in (1, -1):
                aut = AutModel(eps=e)
                if not eps_identities_hold(aut, n, r):
                    raise AssertionError(f"sign identity fails {n} {r} {e}")
                ok, _, mism = bc_chain_check(n, r, aut)
                if not ok:
                    raise AssertionError(f"chain mismatch {n} {r} {e}: {mism}")
    return "transport signs: both identities and the base-change chain on the full grid"


def _suite_round_trip():
    recs = [
        CuspidalRecord("a", 2, duality=SELFDUAL_SYMPLECTIC),
        CuspidalRecord("b", 3, duality=SELFDUAL_ORTHOGONAL),
        CuspidalRecord("c", 1, duality=SELFDUAL_ORTHOGONAL),
        CuspidalRecord("d", 4, duality=SELFDUAL_SYMPLECTIC),
        TRIVIAL,
    ]
    count = 0
    for k in range(1, 6):
        for chosen in itertools.combinations(recs, k):
            for ds in itertools.product(range(1, 5), repeat=k):
                p = ArthurParameter(tuple(zip(chosen, ds)))
                if reconstruct(expand(p)) != p:
                    raise AssertionError(f"round trip fails: {p}")
                count += 1
    return f"parameter round trips: {count} exhaustive cases (<= 5 summands, ladders <= 4)"


def _suite_classification():
    pi = CuspidalRecord("pi", 2, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
    rho = CuspidalRecord("rho", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
    verdicts, accepted = classify_support(residual_parameter(pi, rho))
    if accepted != {("pi", 1)}:
        raise AssertionError(f"classification not unique: {accepted}")
    return f"support classification: 1 datum accepted of {len(verdicts)} candidates"


def _suite_pole_table():
    results = []
    for duality in (SELFDUAL_SYMPLECTIC, SELFDUAL_ORTHOGONAL):
        deg = 2 if duality == SELFDUAL_SYMPLECTIC else 3
        pi = CuspidalRecord("pi", deg, duality=duality, algebraicity="algebraic")
        rho_duality = (
            SELFDUAL_ORTHOGONAL if duality == SELFDUAL_SYMPLECTIC else SELFDUAL_SYMPLECTIC
        )
        rho_deg = 3 if rho_duality == SELFDUAL_ORTHOGONAL else 2
        rho = CuspidalRecord("rho", rho_deg, duality=rho_duality, algebraicity="algebraic")
        ambient = ambient_with_block(rho.duality, pi.degree, rho.degree)
        q = constant_term_quotient(ambient, pi, rho)
        led = default_ledger(pi, rho)
        for central in (0, 1):
            has = pole_at_half(q, led, central).has_pole
            want = central == 0  # the matching square always has the pole here
            if has != want:
                raise AssertionError(f"pole table {duality} central={central}")
            results.append(has)
    # mismatched square: orthogonal block forced into the alternating square
    pi = CuspidalRecord("pi", 2, duality=SELFDUAL_ORTHOGONAL, algebraicity="half_algebraic")
    rho = CuspidalRecord("rho", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
    q = LQuotient(("rankin", "pi", "rho"), ("wedge2", "pi"))
    led = default_ledger(pi, rho)
    for central in (0, 1):
        if pole_at_half(q, led, central).has_pole:
            raise AssertionError("mismatched square must not produce a pole")
    return "pole truth table: pole iff matching square and central order 0 (4 cells)"


def _suite_factorization():
    for t in range(1, 5):
        for u in range(0, 5):
            segs = tuple(DiscreteSegment(f"p{i}", Fraction(1, 4 * (i + 2))) for i in range(t))
            pi = QuasiTemperedGL(segs)
            if not verify_wedge_expansion(pi):
                raise AssertionError(f"square expansion fails t={t}")
            pairs = tuple((f"r{j}", Fraction(1, 3 * (j + 2))) for j in range(u))
            rho = QuasiTemperedSelfdual(("r0",), pairs)
            ratios = factor_normalization(pi, rho)
            if classify_holomorphy(ratios) != [r for r in ratios if r.family == "ii-"]:
                raise AssertionError(f"pole candidates are not the minus twists at t={t}, u={u}")
    return "normalization factor: square expansion and pole candidates on the grid (t,u <= 4)"


def _suite_arch_signs():
    rng = random.Random(20240815)
    for case in range(100):
        d_r = rng.randint(1, 3)
        emb = EmbeddingSet(real=tuple(f"r{i}" for i in range(d_r)))
        deg_p = rng.choice((2, 4, 6))
        deg_q = rng.choice((1, 3, 5))
        p_data, q_data = [], []
        for label in emb.labels:  # entries doubled: half-odd p, integral q
            halves = sorted(rng.sample([2 * k + 1 for k in range(1, 12)], deg_p // 2), reverse=True)
            p_data.append((label, tuple(halves) + tuple(-h for h in reversed(halves))))
            ints = sorted(rng.sample(range(1, 15), deg_q // 2), reverse=True)
            q_vals = tuple(2 * i for i in ints)
            q_vals = q_vals + ((0,) if deg_q % 2 else ()) + tuple(-v for v in reversed(q_vals))
            q_data.append((label, q_vals))
        p, q = InfChar(tuple(p_data)), InfChar(tuple(q_data))
        base, _ = root_number_selfdual(emb, p, q, deg_p, deg_q)
        labels = list(emb.labels)
        rng.shuffle(labels)
        perm = tuple(zip(emb.labels, labels))
        s2, _ = root_number_selfdual(emb, p.permuted(perm), q.permuted(perm), deg_p, deg_q)
        if base != s2:
            raise AssertionError(f"sign not invariant in case {case}")
    for a in ("1/2", "1", "3/2", "2"):
        if (eps_arch("real_induced", a) - (int(2 * rat(a)) + 1)) % 4:
            raise AssertionError("value mismatch")
    if eps_arch("complex", 1, 0) != 1 or eps_arch("restriction", "1/2") != 2:
        raise AssertionError("value mismatch")
    return "archimedean signs: 100 randomized invariance cases and the closed values"


SUITES = (
    _suite_word_lengths,
    _suite_modulus,
    _suite_grading_and_operator,
    _suite_transport,
    _suite_round_trip,
    _suite_classification,
    _suite_pole_table,
    _suite_factorization,
    _suite_arch_signs,
)


def run_all():
    lines = []
    ok = True
    for suite in SUITES:
        try:
            lines.append("PASS " + suite())
        except AssertionError as exc:
            ok = False
            lines.append(f"FAIL {suite.__name__}: {exc}")
    return lines, ok
