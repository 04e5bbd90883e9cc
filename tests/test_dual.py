import pytest

from langkit.dual import DualError, conjugation_operator, phi_perm
from langkit.eisenstein import asai_sign
from langkit.groups import SO_EVEN, SO_ODD, SP, UNITARY, GroupError, dual_radical
from langkit.selftest import _radical_grading

# Dense integer oracle, independent of the signed-permutation code.


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(N):
    return [[int(i == j) for j in range(N)] for i in range(N)]


def dense_phi(N):
    """Anti-diagonal, entries 1, -1, ..., (-1)^{N-1} top-down."""
    phi = [[0] * N for _ in range(N)]
    for k in range(1, N + 1):
        phi[k - 1][N - k] = (-1) ** (k - 1)
    return phi


def dense_operator(n, r):
    """Column k·n+l holds sign·Φ ᵗe_{kl} Φ⁻¹ flattened row-major."""
    phi = dense_phi(n)
    phi_inv = [[(-1) ** (n - 1) * x for x in row] for row in phi]
    sign = (-1) ** (n + r + 1)
    cols = []
    for k in range(n):
        for l in range(n):
            x = [[int((i, j) == (k, l)) for j in range(n)] for i in range(n)]
            y = matmul(matmul(phi, transpose(x)), phi_inv)
            cols.append([sign * v for row in y for v in row])
    return transpose(cols)


def dense(perm):
    """The matrix of a signed permutation: column i is ±e_{|w(i)|}."""
    N = perm.rank
    m = [[0] * N for _ in range(N)]
    for i in range(1, N + 1):
        v = perm(i)
        m[abs(v) - 1][i - 1] = 1 if v > 0 else -1
    return m


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


class TestPhi:
    @pytest.mark.parametrize("N", range(1, 8))
    def test_constructor_identities(self, N):
        phi = dense(phi_perm(N))
        assert phi == dense_phi(N)
        assert phi[0][N - 1] == 1
        assert phi[N - 1][0] == (-1) ** (N - 1)
        sq = matmul(phi, phi)
        assert sq == [[(-1) ** (N - 1) * x for x in row] for row in identity(N)]
        assert matmul(transpose(phi), phi) == identity(N)
        assert phi_perm(N).then(phi_perm(N)).images == tuple(
            (-1) ** (N - 1) * i for i in range(1, N + 1)
        )

    def test_rejects_empty(self):
        with pytest.raises(DualError):
            phi_perm(0)


class TestGrading:
    def test_small_cases(self):
        assert dual_radical(UNITARY, 1, 1) == {1: 2, 2: 1}
        assert dual_radical(UNITARY, 2, 3) == {1: 12, 2: 4}
        assert dual_radical(UNITARY, 2, 0) == {2: 4}
        assert dual_radical(SP, 2, 1) == {1: 6, 2: 1}
        assert dual_radical(SO_ODD, 2, 1) == {1: 4, 2: 3}
        assert dual_radical(SO_EVEN, 2, 1) == {1: 4, 2: 1}
        for family, n, c in ((UNITARY, 0, 1), (UNITARY, 1, -1), (SP, 0, 1), ("GL", 1, 1)):
            with pytest.raises(GroupError):
                dual_radical(family, n, c)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("r", range(0, 7))
    def test_against_root_enumeration(self, n, r):
        grading = dual_radical(UNITARY, n, r)
        assert sum(grading.values()) == n * n + 2 * n * r
        assert grading == _radical_grading(UNITARY, n, r)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("c", range(0, 7))
    @pytest.mark.parametrize("family", (SP, SO_ODD, SO_EVEN))
    def test_split_families_against_root_enumeration(self, family, c, n):
        grading = dual_radical(family, n, c)
        # the block's part of the dual standard representation, its square
        core_degree = 2 * c + 1 if family == SP else 2 * c
        square = n * (n + 1) // 2 if family == SO_ODD else n * (n - 1) // 2
        assert grading == {d: k for d, k in ((1, n * core_degree), (2, square)) if k}
        if (family, n + c) != (SO_EVEN, 1):  # SO(2) has no roots
            assert grading == _radical_grading(family, n, c)


class TestConjugationOperator:
    def test_trace_values(self):
        op = conjugation_operator(2, 1)
        assert asai_sign(1) == -1 and trace(dense(op)) == op.trace() == -2
        op = conjugation_operator(1, 0)
        assert asai_sign(0) == 1 and trace(dense(op)) == op.trace() == 1
        op = conjugation_operator(3, 2)
        assert asai_sign(2) == 1 and trace(dense(op)) == op.trace() == 3

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("r", range(0, 5))
    def test_matches_dense_definition(self, n, r):
        assert dense(conjugation_operator(n, r)) == dense_operator(n, r)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("r", range(0, 5))
    def test_involution_and_trace(self, n, r):
        op = conjugation_operator(n, r)
        m = dense_operator(n, r)
        assert dense(op) == m
        assert matmul(m, m) == identity(n * n)
        assert op.then(op).is_identity()
        assert trace(m) == op.trace() == asai_sign(r) * n

    def test_signed_permutation_shape(self):
        m = dense(conjugation_operator(3, 1))
        assert len(m) == 9
        assert all(sorted(map(abs, row)) == [0] * 8 + [1] for row in m)
        assert all(sorted(map(abs, col)) == [0] * 8 + [1] for col in zip(*m))
