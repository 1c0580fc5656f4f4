"""Log-Jacobians of the Cayley maps, the pullback gradients, and the derivative matrices.

One route per manifold runs in production, each a closed form in a k x k
matrix: on V(k,p) the log-determinant of S = I - B + A^T A; on G(k,p) a sum
over the eigenvalues of A^T A. The pullback gradient (`stiefel_gradient`,
`grassmann_gradient`) is the closed-form log-J gradient plus an adjoint
chain-rule term D^T vec(G) formed in O(pk^2) from the same k x k factor,
never from D. The full pk x d derivative matrix D (`derivative_*`) and the
naive (1/2) log det(D^T D) are the authoritative definitions and stay only
as oracles: of criterion 2, of the `jacobian` command, and of the tests.

Everything is in log scale; the raw Jacobian contains a factor 2^{d} that
overflows doubles for moderate p*k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import (
    GrassmannCoords,
    ManifoldDims,
    StiefelCoords,
    grassmann_spectra,
    grassmann_spectrum,
    guard_resolvent,
    in_grassmann_domain,
)
from .errors import ConditioningError
from .special_matrices import _subdiag_flat, coordinate_pairs

__all__ = [
    "DerivativeMatrix",
    "derivative_stiefel",
    "derivative_grassmann",
    "log_jacobian_naive",
    "log_jacobian_stiefel",
    "stiefel_log_jacobian",
    "log_jacobian_block_stiefel",
    "grad_log_jacobian_stiefel",
    "stiefel_gradient",
    "grassmann_gradient",
    "log_jacobian_block_grassmann",
    "grassmann_log_jacobian",
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
    S = guard_resolvent(Ik - B + A.T @ A, "resolvent solve")
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
    """Derivative of the Grassmann Cayley map on the open eigenvalue domain.

    Outside the domain (see `grassmann_spectrum`) it raises DomainError.
    """
    A = psi.a_matrix()
    grassmann_spectrum(A, "derivative_grassmann")
    dims = psi.dims
    zero_b = np.zeros((dims.k, dims.k))
    D = _derivative(A, zero_b, dims.p, dims.k, grassmann=True)
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
def _log_jacobian_lowrank(lam: np.ndarray, p: int, k: int) -> np.ndarray:
    """Grassmann log-Jacobian from the eigenvalues lam (..., k) of A^T A, per row.

    The map is equivariant under A -> U A W^T with U, W orthogonal, an
    isometry of the coordinates, so J depends on lam alone:

        log J = d_G log 2 - (p-1) sum_a log(1 + lam_a)
                + (1/2) sum_{a<b} log[(1 + 2 lam_a + lam_a lam_b)
                                      (1 + 2 lam_b + lam_a lam_b)].

    With f_ab = log(1 + lam_a (2 + lam_b)) the pair sum is
    (1/2) sum_{a != b} f_ab. As f_aa = 2 log(1 + lam_a), it equals
    (1/2) sum_{a,b} f_ab - sum_a log(1 + lam_a), which turns p-1 into p.
    Cost O(k^2) once lam is known. Each row's k x k sum runs over its
    k^2 entries in one flat reduction, so every row of a stack equals the
    one-row result bit for bit.
    """
    pair = np.log1p(lam[..., :, None] * (lam[..., None, :] + 2.0))
    return ((p - k) * k * LOG2 - p * np.add.reduce(np.log1p(lam), axis=-1)
            + 0.5 * np.add.reduce(pair.reshape(lam.shape[:-1] + (k * k,)), axis=-1))


def grassmann_log_jacobian(A: np.ndarray, p: int) -> np.ndarray:
    """The Grassmann log-Jacobian of each matrix of a stack A (n, p-k, k); one stacked eigvalsh.

    Nothing raises, so a caller can evaluate rows it may never use: a matrix
    outside the domain (`in_grassmann_domain`) reads -inf, and one with
    non-finite entries reads NaN (`grassmann_spectrum` raises its error).
    """
    lam = grassmann_spectra(A)
    log_j = _log_jacobian_lowrank(lam, p, A.shape[-1])
    lam_max = lam[:, -1]
    inside = in_grassmann_domain(lam_max)
    if not inside.all():
        log_j[~inside & ~np.isnan(lam_max)] = -np.inf
    return log_j


def log_jacobian_block_grassmann(psi: GrassmannCoords) -> float:
    """Closed-form log-Jacobian of the Grassmann Cayley map; one eigvalsh of A^T A.

    Outside the domain (see `grassmann_spectrum`) it raises DomainError.
    """
    lam = grassmann_spectrum(psi.a_matrix(), "log_jacobian_block_grassmann")
    return float(_log_jacobian_lowrank(lam, psi.dims.p, psi.dims.k))


def grassmann_gradient(A: np.ndarray, lam: np.ndarray, V: np.ndarray, p: int,
                       G: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient in vec A of log J + g(C(A)) on G(k,p), given A^T A = V diag(lam) V^T.

    log J = F(lam) with F(lam) = -p sum log1p(lam) + (1/2) sum_{a,b}
    log1p(lam_a (2 + lam_b)) up to a constant. As d lam_c / dA =
    2 A v_c v_c^T and F is symmetric in lam, its gradient is
    2 A V diag(F'(lam)) V^T, with

        F'(lam_c) = -p / (1 + lam_c) + (1/2) sum_b (2 + lam_b) / M_cb
                    + (1/2) sum_a lam_a / M_ac,   M_ab = 1 + lam_a (2 + lam_b).

    `G` = [G1; G2], the gradient of g at the frame, adds the chain-rule term
    D^T vec(G) as a k x k vector-Jacobian product through the spectral map
    Q1 = 2N - I, Q2 = 2AN with N = (I + A^T A)^{-1}: for
    W = 2N(G1 + A^T G2)N it is 2 G2 N - A(W + W^T).

    Every argument may carry one leading stack axis n; the gradients are then
    (n, d), and each row equals its one-matrix call bit for bit.
    """
    lam1, lam2 = 1.0 + lam, (lam + 2.0)[..., None, :]
    M = 1.0 + lam[..., :, None] * lam2
    # 2 F'(lam): doubling each term is exact, so the factors 1/2 and 2 cancel unrounded.
    dF2 = (-2 * p / lam1 + (lam2 / M).sum(axis=-1) + (lam[..., :, None] / M).sum(axis=-2))
    Vt = V.swapaxes(-1, -2)
    grad = A @ ((V * dF2[..., None, :]) @ Vt)
    if G is not None:
        k = A.shape[-1]
        N = (V / lam1[..., None, :]) @ Vt
        N2 = 2.0 * N  # (2 G2) N = G2 (2N) exactly
        W = N2 @ (G[..., :k, :] + A.swapaxes(-1, -2) @ G[..., k:, :]) @ N
        grad = grad + G[..., k:, :] @ N2 - A @ (W + W.swapaxes(-1, -2))
    # vec in column-major order: the rows of the transpose.
    return grad.swapaxes(-1, -2).reshape(grad.shape[:-2] + (-1,))


def stiefel_log_jacobian_constant(dims: ManifoldDims) -> float:
    """The additive constant (d_V + k(k-1)/4) log 2 of the Stiefel log-Jacobian."""
    return (dims.d_v + dims.k * (dims.k - 1) / 4.0) * LOG2


def stiefel_log_jacobian(S: np.ndarray, p: int, constant: float):
    """The Stiefel log-Jacobian, constant - (p-1) log det S, of each S = I - B + A^T A of a stack (n, k, k).

    Returns (log_j, oriented) from one stacked slogdet. Nothing raises, so a
    caller can evaluate rows it may never use: `oriented` is False where the
    computed determinant is not positive (`require_oriented` raises for a
    row that is used). slogdet takes non-finite matrices without failing,
    so every row reads exactly what its one-row call reads.
    """
    sign, logabsdet = np.linalg.slogdet(S)
    return constant - (p - 1) * logabsdet, sign > 0


def require_oriented(oriented: bool) -> None:
    """ConditioningError unless the row's det S was positive (see `stiefel_log_jacobian`)."""
    if not oriented:
        raise ConditioningError("log_jacobian_stiefel: resolvent block not orientation-preserving")


def log_jacobian_stiefel(phi: StiefelCoords) -> float:
    """Closed-form log-Jacobian for the full-frame parametrization.

    The determinant collapses to a single k x k factor:

        log J = (d_V + k(k-1)/4) log 2 - (p-1) log det(I_k - B + A^T A),

    where det(I - B + A^T A) is always positive (symmetric part positive
    definite). Agrees with the naive evaluation to machine precision and
    has a tractable gradient.
    """
    A = phi.a_matrix()
    S = np.eye(phi.dims.k) + A.T @ A - phi.b_matrix()
    log_j, oriented = stiefel_log_jacobian(S[None], phi.dims.p, stiefel_log_jacobian_constant(phi.dims))
    require_oriented(oriented[0])
    return float(log_j[0])


# The Stiefel route is the closed form; the name is kept for callers of the
# block-route API.
log_jacobian_block_stiefel = log_jacobian_stiefel


def stiefel_gradient(A: np.ndarray, P: np.ndarray, p: int,
                     G: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient in coordinate order (b, vec A) of log J + g(C(b, A)) on V(k,p), given P = S^{-1}.

    With S = I - B + A^T A: d/dB_{ij} log det S = P_{ij} - P_{ji} (skew
    pairing) and d/dA log det S = A (P + P^T), each times -(p-1).

    `G` = [G1; G2], the gradient of g at the frame, adds the chain-rule term
    D^T vec(G) as an adjoint, with no derivative matrix: the frame is
    Q1 = 2P - I, Q2 = 2AP and dP = -P dS P, so for W = P^T (G1 + A^T G2) P^T
    the term is vech_strict(2(W - W^T)) in b and 2 G2 P^T - 2A(W + W^T) in A.
    Cost O(pk^2). Every argument may carry one leading stack axis n; the
    gradients are then (n, d), and each row equals its one-matrix call bit
    for bit.
    """
    c = p - 1
    k = P.shape[-1]
    cP = c * P
    At = A.swapaxes(-1, -2)
    if G is None:
        U = 0.0
    else:
        # U = 2W and 2 P G2^T: a factor 2 on P scales each product exactly.
        P2 = 2.0 * P
        U = P.swapaxes(-1, -2) @ (G[..., :k, :] + At @ G[..., k:, :]) @ P2.swapaxes(-1, -2)
    M_b = U - cP
    M_a = U + cP
    # grad_at is the A block transposed, whose rows are vec A's column-major order.
    grad_at = (M_a + M_a.swapaxes(-1, -2)) @ At
    if G is None:
        grad_at = -grad_at
    else:
        grad_at = P2 @ G[..., k:, :].swapaxes(-1, -2) - grad_at
    lead = P.shape[:-2]
    skew = (M_b - M_b.swapaxes(-1, -2)).reshape(lead + (k * k,))[..., _subdiag_flat(k)[0]]
    return np.concatenate([skew, grad_at.reshape(lead + (-1,))], axis=-1)


def grad_log_jacobian_stiefel(phi: StiefelCoords) -> np.ndarray:
    """Gradient of the closed-form log-Jacobian in coordinate order (b, vec A).

    The typed boundary of `stiefel_gradient`, with P = S^{-1} from one
    guarded solve: non-finite or ill-conditioned S raises ConditioningError.
    """
    A = phi.a_matrix()
    k = phi.dims.k
    S = guard_resolvent(np.eye(k) - phi.b_matrix() + A.T @ A, "grad_log_jacobian_stiefel")
    P = np.linalg.solve(S, np.eye(k))
    return stiefel_gradient(A, P, phi.dims.p)
