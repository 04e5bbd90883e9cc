"""Acceptance criteria, one test per criterion.

Every criterion is exact (no tolerances); the timed ones assert their
stated wall-clock budget.  Each test prints a single PASS line so the
suite doubles as a checklist: run with `pytest tests/test_acceptance.py -s`.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_weyl_lengths():
    from langkit.normalizer import block_shuffle_word, flip_word, full_word
    from langkit.weyl import all_signed_perms, bfs_lengths, length_additive

    start = time.monotonic()
    for t in range(1, 5):
        for u in range(0, 5):
            w1, w2, w = block_shuffle_word(t, u), flip_word(t, u), full_word(t, u)
            assert w1.length() == t * u
            assert w2.length() == t * u + t * (t - 1) // 2 + t
            assert w.length() == t * (t - 1) // 2 + 2 * t * u + t
            assert w1.then(w2) == w
            assert length_additive(w1, w2)
    for rank in (1, 2, 3, 4):
        table = bfs_lengths(rank)
        assert len(table) == 2**rank * math.factorial(rank)
        for w in all_signed_perms(rank):
            assert w.length() == table[w.images]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"block-word lengths and additivity (t,u <= 4), BFS oracle rank <= 4 ({elapsed:.2f}s)")


def test_criterion_02_modular_characters():
    from langkit.groups import UNITARY, GroupDescriptor, modulus_borel, modulus_levi
    from langkit.selftest import _borel_root_sum, _levi_root_sum

    start = time.monotonic()
    for N in range(2, 10):
        group = GroupDescriptor(UNITARY, N)
        for r in range(1, N // 2 + 1):
            core = N - 2 * r  # the Levi is GL_r × U(N - 2r)
            assert modulus_levi(group, r) == r + core
            assert modulus_levi(group, r) == _levi_root_sum(group, r)
        m, eps = N // 2, N % 2
        expected = tuple(Fraction(N - 1 - 2 * i) for i in range(m))
        assert expected == () or expected[-1] == eps + 1
        assert modulus_borel(group) == expected == _borel_root_sum(group)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"modulus exponents equal the root-sum oracle for N <= 9 ({elapsed:.2f}s)")


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _dense_conjugation(n, r):
    """The n²×n² integer matrix of x ↦ (-1)^{n+r+1} Φ ᵗx Φ⁻¹: column k·n+l
    is the image of e_{kl}, flattened row-major."""
    phi = [[(-1) ** i if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
    phi_inv = [list(col) for col in zip(*phi)]
    assert _matmul(phi, phi_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    sign = (-1) ** (n + r + 1)
    cols = []
    for k, l in itertools.product(range(n), repeat=2):
        x_t = [[int((i, j) == (l, k)) for j in range(n)] for i in range(n)]
        y = _matmul(_matmul(phi, x_t), phi_inv)
        cols.append([sign * v for row in y for v in row])
    return [list(row) for row in zip(*cols)]


def test_criterion_03_conjugation_operator():
    from langkit.dual import conjugation_operator
    from langkit.eisenstein import asai_sign

    start = time.monotonic()
    for n in range(1, 5):
        for r in range(0, 5):
            op = conjugation_operator(n, r)
            m = _dense_conjugation(n, r)
            N = n * n
            dense = [[0] * N for _ in range(N)]
            for j in range(1, N + 1):
                v = op(j)
                dense[abs(v) - 1][j - 1] = 1 if v > 0 else -1
            assert dense == m
            assert sum(m[i][i] for i in range(N)) == (-1) ** r * n == asai_sign(r) * n
            assert op.trace() == (-1) ** r * n
            assert _matmul(m, m) == [[int(i == j) for j in range(N)] for i in range(N)]
            assert op.then(op).is_identity()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(3, f"operator trace (-1)^r·n and involution for n,r <= 4 ({elapsed:.2f}s)")


def test_criterion_04_nilradical_grading():
    from langkit.groups import SO_EVEN, SO_ODD, SP, UNITARY, dual_radical
    from langkit.selftest import _radical_grading

    for n in range(1, 7):
        for r in range(0, 7):
            got = dual_radical(UNITARY, n, r)
            want = {2: n * n}
            if r:
                want[1] = 2 * n * r
            assert got == want == _radical_grading(UNITARY, n, r)
            for family in (SP, SO_ODD, SO_EVEN):
                if (family, n + r) != (SO_EVEN, 1):  # SO(2) has no roots
                    assert dual_radical(family, n, r) == _radical_grading(family, n, r)
    report(
        4,
        "dual radical gradings match the dual datum's radical roots: U {1: 2nr, 2: n^2}, "
        "Sp, SO odd and SO even, for n,r <= 6",
    )


def test_criterion_05_transport_signs():
    from langkit.satake import AutModel, bc_chain_check, eps_identities_hold

    for n in range(1, 7):
        for r in range(0, 7):
            for e in (1, -1):
                aut = AutModel(eps=e)
                assert eps_identities_hold(aut, n, r)
                ok, _, mismatch = bc_chain_check(n, r, aut)
                assert ok, (n, r, e, mismatch)
    report(5, "sign identities and the transport chain hold for n,r <= 6, both signs")


def test_criterion_06_parameter_round_trip():
    from langkit.spectra import (
        SELFDUAL_ORTHOGONAL,
        SELFDUAL_SYMPLECTIC,
        TRIVIAL,
        ArthurParameter,
        CuspidalRecord,
        expand,
        reconstruct,
    )

    records = [
        CuspidalRecord("a", 2, duality=SELFDUAL_SYMPLECTIC),
        CuspidalRecord("b", 3, duality=SELFDUAL_ORTHOGONAL),
        CuspidalRecord("c", 1, duality=SELFDUAL_ORTHOGONAL),
        CuspidalRecord("d", 4, duality=SELFDUAL_SYMPLECTIC),
        TRIVIAL,
    ]
    count = 0
    for k in range(1, 6):
        for chosen in itertools.combinations(records, k):
            for ds in itertools.product(range(1, 5), repeat=k):
                p = ArthurParameter(tuple(zip(chosen, ds)))
                assert reconstruct(expand(p)) == p
                count += 1
    report(6, f"reconstruct∘expand is the identity on {count} exhaustive parameters")


def test_criterion_07_classification_uniqueness():
    from langkit.spectra import (
        SELFDUAL_ORTHOGONAL,
        SELFDUAL_SYMPLECTIC,
        ArthurParameter,
        CuspidalRecord,
        LeviCandidate,
        candidate_family,
        classify_levi_support,
    )

    pi = CuspidalRecord("pi", 2, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
    rho = CuspidalRecord("rho", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
    target = ArthurParameter(((pi, 2), (rho, 1)))
    accepted = set()
    total = 0
    for cand in candidate_family(target):
        v = classify_levi_support(target, cand)
        total += 1
        if v.accepted:
            accepted.add((v.block[0].label, v.block[1]))
    assert accepted == {("pi", 1)}
    # the no-block branch (everything cuspidal) is rejected for the stated reason
    v0 = classify_levi_support(target, LeviCandidate((), ArthurParameter(((pi, 2), (rho, 1)))))
    assert not v0.accepted and "cuspidal" in v0.reason
    # the one-block branch is the accepted one
    v1 = classify_levi_support(target, LeviCandidate(((pi, 1),), ArthurParameter(((rho, 1),))))
    assert v1.accepted
    report(7, f"exactly one induction datum of {total} candidates; both count branches verified")


def test_criterion_08_pole_truth_table():
    from langkit.eisenstein import constant_term_quotient, default_ledger, pole_at_half
    from langkit.groups import SO_ODD, GroupDescriptor, ambient_with_block
    from langkit.spectra import SELFDUAL_ORTHOGONAL, SELFDUAL_SYMPLECTIC, CuspidalRecord

    cells = []
    # matching auxiliary factor: symplectic block in the alternating square
    pi_s = CuspidalRecord("pi", 2, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
    rho_o = CuspidalRecord("rho", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
    q = constant_term_quotient(ambient_with_block("orthogonal", 2, 3), pi_s, rho_o)
    led = default_ledger(pi_s, rho_o)
    cells.append(pole_at_half(q, led, 0).has_pole is True)
    cells.append(pole_at_half(q, led, 1).has_pole is False)
    # matching symmetric square: orthogonal block over a symplectic core
    pi_o = CuspidalRecord("pi2", 3, duality=SELFDUAL_ORTHOGONAL, algebraicity="algebraic")
    rho_s = CuspidalRecord("rho2", 4, duality=SELFDUAL_SYMPLECTIC, algebraicity="algebraic")
    q2 = constant_term_quotient(GroupDescriptor(SO_ODD, 3 + 2), pi_o, rho_s)
    led2 = default_ledger(pi_o, rho_s)
    cells.append(pole_at_half(q2, led2, 0).has_pole is True)
    cells.append(pole_at_half(q2, led2, 1).has_pole is False)
    assert all(cells) and len(cells) == 4
    report(8, "all four (duality x central order) cells of the pole dichotomy")


def test_criterion_09_normalization_factorization():
    from langkit.normalizer import (
        DiscreteSegment,
        QuasiTemperedGL,
        QuasiTemperedSelfdual,
        classify_holomorphy,
        factor_normalization,
        verify_wedge_expansion,
    )

    for t in range(1, 5):
        for u in range(0, 5):
            pi = QuasiTemperedGL(
                tuple(DiscreteSegment(f"p{i}", Fraction(1, 4 * (i + 2))) for i in range(t))
            )
            assert verify_wedge_expansion(pi)
            rho = QuasiTemperedSelfdual(
                ("r0",), tuple((f"r{j}", Fraction(1, 3 * (j + 2))) for j in range(u))
            )
            ratios = factor_normalization(pi, rho)
            expected = t + 2 * t * u + t * (t - 1) // 2 + t
            assert len(ratios) == expected
            flagged = classify_holomorphy(ratios)
            assert len(flagged) == t * u
            assert flagged == [r for r in ratios if r.family == "ii-"]
    report(9, "four-family expansion and exact pole-candidate set for t,u <= 4")


def test_criterion_10_root_number_invariance():
    from langkit.arch import (
        EmbeddingSet,
        InfChar,
        eps_arch,
        root_number_selfdual,
    )

    rng = random.Random(17041707)
    for case in range(100):
        d_r = rng.randint(1, 3)
        emb = EmbeddingSet(real=tuple(f"r{i}" for i in range(d_r)))
        deg_p = rng.choice((2, 4, 6))
        deg_q = rng.choice((1, 3, 5))
        p_rows, q_rows = [], []
        for label in emb.labels:  # entries doubled: half-odd p, integral q
            halves = sorted(
                rng.sample([2 * k + 1 for k in range(1, 12)], deg_p // 2),
                reverse=True,
            )
            p_rows.append((label, tuple(halves) + tuple(-h for h in reversed(halves))))
            ints = sorted(rng.sample(range(1, 15), deg_q // 2), reverse=True)
            row = tuple(2 * v for v in ints)
            q_rows.append((label, row + (0,) + tuple(-v for v in reversed(row))))
        p, q = InfChar(tuple(p_rows)), InfChar(tuple(q_rows))
        base, cert = root_number_selfdual(emb, p, q, deg_p, deg_q)
        assert cert["invariant"]
        for images in itertools.permutations(emb.labels):
            perm = tuple(zip(emb.labels, images))
            sign, _ = root_number_selfdual(emb, p.permuted(perm), q.permuted(perm), deg_p, deg_q)
            assert sign == base
    for a in ("1/2", "1", "3/2", "2"):
        k = int(2 * Fraction(a))
        assert eps_arch("real_induced", a) == (k + 1) % 4  # i^{2a+1}
        assert eps_arch("restriction", a) == (2 * k) % 4  # (-1)^{2a}
        # i^{|a-b|} needs an integral difference: pair a with a-2a' shifts
        assert eps_arch("complex", Fraction(a), Fraction(a) - k) == k % 4
        assert eps_arch("complex", Fraction(a), Fraction(a)) == 0
    report(10, "sign invariant under all embedding permutations (100 cases) and closed values")


LIBRARY = (
    "thmA",
    "thmB",
    "thmC",
    "thmD",
    "thmE",
    "thmF",
    "appendix_block",
    "appendix_pair",
    "appendix_mixed",
)


def test_criterion_11_scenario_library_regression():
    from langkit import cli

    start = time.monotonic()
    rendered = {}
    for name in LIBRARY:
        first = cli.render_json(cli.run("check-scenario", name))
        second = cli.render_json(cli.run("check-scenario", name))
        assert first == second, f"{name}: report not byte-stable"
        rendered[name] = first
    for name in LIBRARY:
        golden = GOLDEN_DIR / f"{name}.json"
        assert golden.exists(), f"missing golden report for {name}"
        assert rendered[name] == golden.read_text(), f"{name}: report drifted from golden"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(11, f"9 library scenarios byte-stable and equal to goldens ({elapsed:.2f}s)")
