"""Dual-side oracles for `selftest`: the two-step grading of the unipotent
radical and the operator that identifies the factor in its degree-2 piece.

The degree-2 piece is the n×n block; the group of the quadratic extension
acts on it through the signed anti-transposition x ↦ (-1)^{n+r+1} Φ_n ᵗx Φ_n⁻¹,
whose trace (-1)^r·n detects which of the two extensions of the tensor
square occurs; `selftest` checks it against `eisenstein.asai_sign(r)·n`.
That involution permutes the basis e_{kl} up to sign, so it is carried as
a `SignedPerm` of rank n²: the trace is the sum of the signs at its fixed
points and the involution property is a composition.
"""

from __future__ import annotations

from .weyl import SignedPerm


class DualError(ValueError):
    pass


def phi_perm(N: int) -> SignedPerm:
    """The anti-diagonal Φ_N with entries 1, -1, ..., (-1)^{N-1} top-down,
    as the signed permutation e_j ↦ (-1)^{N-j} e_{N+1-j}.

    Being a signed permutation, ᵗΦ = Φ⁻¹; also Φ² = (-1)^{N-1}·id.
    """
    if N < 1:
        raise DualError("need N ≥ 1")
    return SignedPerm(tuple((-1) ** (N - j) * (N + 1 - j) for j in range(1, N + 1)))


def grade_nilradical(n: int, r: int) -> dict:
    """Grading of the radical for the block-n Levi as {degree: dimension}:
    degree 1 holds the two n×r blocks (dimension 2nr), degree 2 the n×n
    block (dimension n²); degree 1 is absent when r = 0."""
    if n < 1 or r < 0:
        raise DualError("need n ≥ 1, r ≥ 0")
    if r == 0:
        return {2: n * n}
    return {1: 2 * n * r, 2: n * n}


def grade_nilradical_by_roots(n: int, r: int) -> dict:
    """Brute-force oracle: bucket the root spaces of the radical by their
    pairing with the normalized half-sum (1^n, 0^r, -1^n)."""
    N = 2 * n + r
    rho = [1] * n + [0] * r + [-1] * n
    buckets: dict = {}
    blocks = (
        [(i, j) for i in range(n) for j in range(n + r, N)]  # n×n block
        + [(i, j) for i in range(n) for j in range(n, n + r)]  # first n×r block
        + [(i, j) for i in range(n, n + r) for j in range(n + r, N)]  # second
    )
    for i, j in blocks:
        pairing = rho[i] - rho[j]
        buckets[pairing] = buckets.get(pairing, 0) + 1
    return buckets


def conjugation_operator(n: int, r: int) -> SignedPerm:
    """The involution x ↦ (-1)^{n+r+1} Φ_n ᵗx Φ_n⁻¹ on n×n matrices, as a
    rank-n² signed permutation of the basis e_{kl} (row-major, 1-based
    index k·n+l+1 for 0-based k, l).

    Since Φ e_j = ε(j) e_{Φ(j)} with ε(j) = (-1)^{n-j} and ᵗΦ = Φ⁻¹,
    e_{kl} ↦ (-1)^{n+r+1} ε(l) ε(k) e_{Φ(l),Φ(k)}.
    """
    phi = phi_perm(n)
    sign = (-1) ** (n + r + 1)
    images = []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            a, b = phi(l), phi(k)
            index = (abs(a) - 1) * n + abs(b)
            images.append(index if sign * a * b > 0 else -index)
    return SignedPerm(tuple(images))
