"""Dual-side oracle for `selftest`: the operator that identifies the factor
in the degree-2 piece of the dual radical of U(2n+r) (`groups.dual_radical`).

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
