"""Derivative matrices of the Cayley maps and log-Jacobian evaluation.

One route per manifold runs in production: on V(k,p) the closed form in the
k x k block S = I - B + A^T A, with an analytic gradient; on G(k,p) a
low-rank determinant-lemma route that never forms anything of size p^2.
The naive (1/2) log det(D^T D) from the full pk x d derivative matrix D is
the authoritative definition and the oracle for both.

Everything is in log scale; the raw Jacobian contains a factor 2^{d} that
overflows doubles for moderate p*k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley import GrassmannCoords, StiefelCoords, grassmann_domain_margin
from .errors import ConditioningError, DomainError
from .special_matrices import coordinate_pairs, transpose_perm, vech_strict

__all__ = [
    "DerivativeMatrix",
    "derivative_stiefel",
    "derivative_grassmann",
    "log_jacobian_naive",
    "log_jacobian_stiefel",
    "log_jacobian_block_stiefel",
    "grad_log_jacobian_stiefel",
    "log_jacobian_block_grassmann",
]

LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class DerivativeMatrix:
    """Dense pk x d derivative of the Cayley map at one coordinate point."""

    p: int
    k: int
    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != self.p * self.k:
            raise ValueError(f"derivative matrix has shape {M.shape}, expected ({self.p * self.k}, d)")
        object.__setattr__(self, "matrix", M)


def _resolvent_blocks(A: np.ndarray, B: np.ndarray, p: int, k: int):
    """Blocks of (I_p - X)^{-1} for X = [[B, -A^T], [A, 0]].

    C11 = (I_k - B + A^T A)^{-1}, C12 = -C11 A^T, C21 = A C11,
    C22 = I_{p-k} - A C11 A^T. Only one k x k inverse is needed.
    """
    Ik = np.eye(k)
    S = Ik - B + A.T @ A
    sv = np.linalg.svd(S, compute_uv=False)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if rcond < 1e-14:
        raise ConditioningError(f"resolvent solve: reciprocal condition number {rcond:.3e}")
    C11 = np.linalg.solve(S, Ik)
    C21 = A @ C11
    C12 = -C11 @ A.T
    C22 = np.eye(p - k) - C21 @ A.T
    return C11, C12, C21, C22


def _derivative(A: np.ndarray, B: np.ndarray, p: int, k: int, grassmann: bool) -> np.ndarray:
    """Assemble DC = 2 [I_{pxk}^T C^T kron C] Gamma column by column.

    Each Gamma column embeds as E = e_r e_c^T - e_c e_r^T, so the derivative
    column is 2 vec(C E C I_{pxk}) = 2 vec(outer(C[:,r], CIk[c,:]) -
    outer(C[:,c], CIk[r,:])) -- a rank-2 expression, O(pk) per column.
    """
    C11, C12, C21, C22 = _resolvent_blocks(A, B, p, k)
    C = np.block([[C11, C12], [C21, C22]])
    CIk = C[:, :k]
    pairs = coordinate_pairs(p, k)[k * (k - 1) // 2 if grassmann else 0:]
    D = np.empty((p * k, len(pairs)))
    for col, (r, c) in enumerate(pairs.tolist()):
        M = np.outer(C[:, r], CIk[c, :]) - np.outer(C[:, c], CIk[r, :])
        D[:, col] = 2.0 * M.reshape(-1, order="F")
    return D


def derivative_stiefel(phi: StiefelCoords) -> DerivativeMatrix:
    """Derivative of the Stiefel Cayley map; full column rank everywhere."""
    dims = phi.dims
    D = _derivative(phi.a_matrix(), phi.b_matrix(), dims.p, dims.k, grassmann=False)
    return DerivativeMatrix(p=dims.p, k=dims.k, matrix=D)


def derivative_grassmann(psi: GrassmannCoords) -> DerivativeMatrix:
    """Derivative of the Grassmann Cayley map on the open eigenvalue domain."""
    if grassmann_domain_margin(psi) <= 0:
        raise DomainError("derivative_grassmann: coordinates outside the eigenvalue domain")
    dims = psi.dims
    zero_b = np.zeros((dims.k, dims.k))
    D = _derivative(psi.a_matrix(), zero_b, dims.p, dims.k, grassmann=True)
    return DerivativeMatrix(p=dims.p, k=dims.k, matrix=D)


def log_jacobian_naive(D: DerivativeMatrix) -> float:
    """(1/2) log det(D^T D); the authoritative Jacobian definition.

    Cholesky first, and a symmetric eigendecomposition if that fails at
    working precision; a rank-deficient D raises.
    """
    M = D.matrix.T @ D.matrix
    M = 0.5 * (M + M.T)
    try:
        return float(np.sum(np.log(np.diag(np.linalg.cholesky(M)))))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(M)
        if w.min() <= 0:
            raise ConditioningError("log_jacobian_naive: derivative matrix is rank deficient "
                                    f"(min eig {w.min():.3e})")
        return 0.5 * float(np.sum(np.log(w)))


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron for 2-d arrays without its shape-juggling overhead."""
    ra, ca = A.shape
    rb, cb = B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(ra * rb, ca * cb)


def _log_jacobian_lowrank(A: np.ndarray, p: int, k: int) -> float:
    """Grassmann log-Jacobian without ever forming a (p-k)k-dimensional matrix.

    With B = 0 the quadratic form D^T D / 4 is the single block Omega22, which
    factors as G11 kron I + (I kron A) W (I kron A)^T with W of size k^2:
    every off-corner block of G and H carries A on the outside (G12 =
    G11 A^T, H22 = I + A N A^T, ...). The determinant lemma turns
    log det(Omega22) into (p-k) log det(G11) plus a k^2-sized determinant,
    and log J = d_G log 2 + (1/2) log det(Omega22). Cost O(p k^2 + k^6).
    """
    Ik = np.eye(k)
    AtA = A.T @ A
    S = Ik + AtA
    sign_s, logabsdet_s = np.linalg.slogdet(S)
    if sign_s == 0:
        raise ConditioningError("log_jacobian: singular resolvent block")
    C11 = np.linalg.solve(S, Ik)

    G11 = C11 @ C11.T
    H11 = C11.T @ S @ C11
    R = C11.T @ (Ik - S @ C11)
    N = H11 - C11 - C11.T

    kk_perm = transpose_perm(k, k)
    W = _kron(G11, N) + _kron(H11, G11)
    W -= (_kron(G11, R.T) + _kron(R, G11))[:, kk_perm]

    # T = G11^{-1} kron A^T A with G11^{-1} = S^T S.
    T = _kron(S.T @ S, AtA)
    IWT = np.eye(k * k) + W @ T
    sign_c, logabsdet_c = np.linalg.slogdet(IWT)
    if sign_c <= 0:
        raise ConditioningError("log_jacobian: large block not positive definite")
    logdet22 = -2.0 * (p - k) * logabsdet_s + logabsdet_c
    return float((p - k) * k * LOG2 + 0.5 * logdet22)


def log_jacobian_block_grassmann(psi: GrassmannCoords) -> float:
    """Log-Jacobian of the Grassmann Cayley map via the low-rank route."""
    if grassmann_domain_margin(psi) <= 0:
        raise DomainError("log_jacobian_block_grassmann: coordinates outside the eigenvalue domain")
    dims = psi.dims
    return _log_jacobian_lowrank(psi.a_matrix(), dims.p, dims.k)


def log_jacobian_stiefel(phi: StiefelCoords) -> float:
    """Closed-form log-Jacobian for the full-frame parametrization.

    The determinant collapses to a single k x k factor:

        log J = (d_V + k(k-1)/4) log 2 - (p-1) log det(I_k - B + A^T A),

    where det(I - B + A^T A) is always positive (symmetric part positive
    definite). Agrees with the naive evaluation to machine precision and
    has a tractable gradient. The subspace parametrization admits no
    analogous reduction.
    """
    dims = phi.dims
    A = phi.a_matrix()
    B = phi.b_matrix()
    k = dims.k
    S = np.eye(k) - B + A.T @ A
    sign, logabsdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise ConditioningError("log_jacobian_stiefel: resolvent block not orientation-preserving")
    return float((dims.d_v + k * (k - 1) / 4.0) * LOG2 - (dims.p - 1) * logabsdet)


# The Stiefel route is the closed form; the name is kept for callers of the
# block-route API.
log_jacobian_block_stiefel = log_jacobian_stiefel


def grad_log_jacobian_stiefel(phi: StiefelCoords) -> np.ndarray:
    """Gradient of the closed-form log-Jacobian in coordinate order (b, vec A).

    With S = I - B + A^T A and P = S^{-1}:
    d/dB_{ij} log det S = P_{ij} - P_{ji} (skew pairing), and
    d/dA log det S = A (P + P^T).
    """
    dims = phi.dims
    A = phi.a_matrix()
    B = phi.b_matrix()
    k = dims.k
    S = np.eye(k) - B + A.T @ A
    P = np.linalg.solve(S, np.eye(k))
    coeff = -(dims.p - 1)
    grad_b = coeff * vech_strict(P - P.T)
    grad_a = coeff * (A @ (P + P.T))
    return np.concatenate([grad_b, grad_a.reshape(-1, order="F")])
