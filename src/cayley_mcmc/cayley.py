"""Cayley maps between Euclidean coordinates and orthogonal matrices.

The forward maps use k x k block formulas rather than the p x p resolvent,
giving O(p k^2 + k^3) cost: on V(k,p) one small solve with I_k + A^T A - B,
on G(k,p) one symmetric eigendecomposition of A^T A. The direct p x p
formula C(X) = (I + X)(I - X)^{-1} I_{p x k} is kept available
(`cayley_forward_dense`) as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError
from .special_matrices import skew_from_vech, unvec, vec, vech_strict

__all__ = [
    "ManifoldDims",
    "StiefelCoords",
    "GrassmannCoords",
    "StiefelPoint",
    "GrassmannPoint",
    "embed_skew",
    "embed_skew_grassmann",
    "cayley_forward_stiefel",
    "cayley_inverse_stiefel",
    "cayley_forward_grassmann",
    "cayley_inverse_grassmann",
    "cayley_forward_dense",
    "canonicalize_grassmann",
    "grassmann_domain_margin",
]

ORTHO_TOL = 1e-10
RCOND_CUTOFF = 1e-14
SPD_EIG_CUTOFF = 1e-12


@dataclass(frozen=True)
class ManifoldDims:
    """Row/column dimensions p, k with 1 <= k < p."""

    p: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k < self.p):
            raise ValueError(f"require 1 <= k < p, got p={self.p}, k={self.k}")

    @property
    def d_v(self) -> int:
        """Dimension of the Stiefel manifold V(k,p)."""
        return self.p * self.k - self.k * (self.k + 1) // 2

    @property
    def d_g(self) -> int:
        """Dimension of the Grassmann manifold G(k,p)."""
        return (self.p - self.k) * self.k

    @property
    def n_b(self) -> int:
        """Length of the skew-block coordinate vector b."""
        return self.k * (self.k - 1) // 2


@dataclass(frozen=True)
class StiefelCoords:
    """Unconstrained coordinates phi = (b, vec(A)) for the Stiefel manifold."""

    dims: ManifoldDims
    b: np.ndarray
    a_vec: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        a = np.atleast_1d(np.asarray(self.a_vec, dtype=float))
        if b.shape != (self.dims.n_b,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.dims.n_b},)")
        if a.shape != (self.dims.d_g,):
            raise ValueError(f"a_vec has shape {a.shape}, expected ({self.dims.d_g},)")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_vec", a)

    @classmethod
    def from_vector(cls, dims: ManifoldDims, phi: np.ndarray) -> "StiefelCoords":
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        if phi.shape != (dims.d_v,):
            raise ValueError(f"phi has shape {phi.shape}, expected ({dims.d_v},)")
        return cls(dims=dims, b=phi[: dims.n_b], a_vec=phi[dims.n_b :])

    @property
    def phi(self) -> np.ndarray:
        return np.concatenate([self.b, self.a_vec])

    def a_matrix(self) -> np.ndarray:
        return unvec(self.a_vec, self.dims.p - self.dims.k, self.dims.k)

    def b_matrix(self) -> np.ndarray:
        return skew_from_vech(self.b, self.dims.k)


@dataclass(frozen=True)
class GrassmannCoords:
    """Coordinates psi = vec(A) for the Grassmann manifold.

    Membership in the open domain (all eigenvalues of A^T A below 1) is not
    enforced at construction; `grassmann_domain_margin` reports it and the
    forward map rejects out-of-domain inputs. This lets MCMC proposals be
    represented and rejected rather than crash.
    """

    dims: ManifoldDims
    a_vec: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a_vec, dtype=float))
        if a.shape != (self.dims.d_g,):
            raise ValueError(f"a_vec has shape {a.shape}, expected ({self.dims.d_g},)")
        object.__setattr__(self, "a_vec", a)

    @classmethod
    def from_vector(cls, dims: ManifoldDims, psi: np.ndarray) -> "GrassmannCoords":
        return cls(dims=dims, a_vec=psi)

    @property
    def psi(self) -> np.ndarray:
        return self.a_vec

    def a_matrix(self) -> np.ndarray:
        return unvec(self.a_vec, self.dims.p - self.dims.k, self.dims.k)


def _check_point_shape(dims: ManifoldDims, Q: np.ndarray) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (dims.p, dims.k):
        raise ValueError(f"Q has shape {Q.shape}, expected ({dims.p}, {dims.k})")
    return Q


@dataclass(frozen=True)
class StiefelPoint:
    """A p x k matrix with orthonormal columns; validated at construction."""

    dims: ManifoldDims
    Q: np.ndarray

    def __post_init__(self):
        Q = _check_point_shape(self.dims, self.Q)
        err = np.max(np.abs(Q.T @ Q - np.eye(self.dims.k)))
        if err > ORTHO_TOL:
            raise ValueError(f"columns not orthonormal: max |Q^T Q - I| = {err:.3e}")
        object.__setattr__(self, "Q", Q)

    @property
    def top_block(self) -> np.ndarray:
        return self.Q[: self.dims.k, :]

    @property
    def bottom_block(self) -> np.ndarray:
        return self.Q[self.dims.k :, :]


@dataclass(frozen=True)
class GrassmannPoint:
    """An orthonormal p x k frame with symmetric positive definite top block."""

    dims: ManifoldDims
    Q: np.ndarray

    def __post_init__(self):
        Q = _check_point_shape(self.dims, self.Q)
        err = np.max(np.abs(Q.T @ Q - np.eye(self.dims.k)))
        if err > ORTHO_TOL:
            raise ValueError(f"columns not orthonormal: max |Q^T Q - I| = {err:.3e}")
        Q1 = Q[: self.dims.k, :]
        sym_err = np.max(np.abs(Q1 - Q1.T))
        if sym_err > ORTHO_TOL:
            raise DomainError(f"top block not symmetric: max |Q1 - Q1^T| = {sym_err:.3e}")
        lam_min = np.linalg.eigvalsh(0.5 * (Q1 + Q1.T)).min()
        if lam_min <= SPD_EIG_CUTOFF:
            raise DomainError(f"top block not positive definite: min eigenvalue {lam_min:.3e}")
        object.__setattr__(self, "Q", Q)

    @property
    def top_block(self) -> np.ndarray:
        return self.Q[: self.dims.k, :]

    @property
    def bottom_block(self) -> np.ndarray:
        return self.Q[self.dims.k :, :]


def embed_skew(phi: StiefelCoords) -> np.ndarray:
    """The p x p skew matrix [[B, -A^T], [A, 0]] for Stiefel coordinates."""
    dims = phi.dims
    X = np.zeros((dims.p, dims.p))
    X[: dims.k, : dims.k] = phi.b_matrix()
    A = phi.a_matrix()
    X[dims.k :, : dims.k] = A
    X[: dims.k, dims.k :] = -A.T
    return X


def embed_skew_grassmann(psi: GrassmannCoords) -> np.ndarray:
    """The p x p skew matrix [[0, -A^T], [A, 0]] for Grassmann coordinates."""
    dims = psi.dims
    X = np.zeros((dims.p, dims.p))
    A = psi.a_matrix()
    X[dims.k :, : dims.k] = A
    X[: dims.k, dims.k :] = -A.T
    return X


def require_finite(M: np.ndarray, context: str) -> np.ndarray:
    """M itself, or ConditioningError if any entry is NaN or infinite.

    Runs before a decomposition: LAPACK fails on NaN input with its own error
    or returns finite garbage, and a NaN fails every domain comparison.
    """
    if not math.isfinite(M.sum()):
        raise ConditioningError(f"{context}: non-finite coordinates")
    return M


def _solve_right(N: np.ndarray, M: np.ndarray, context: str) -> np.ndarray:
    """N @ M^{-1} with a reciprocal-condition-number guard on M."""
    sv = np.linalg.svd(M, compute_uv=False)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if rcond < RCOND_CUTOFF:
        raise ConditioningError(f"{context}: reciprocal condition number {rcond:.3e} below cutoff")
    return np.linalg.solve(M.T, N.T).T


def cayley_forward_stiefel(phi: StiefelCoords) -> StiefelPoint:
    """Cayley transform of Stiefel coordinates, via the k x k block formulas.

    Q1 = (I - A^T A + B)(I + A^T A - B)^{-1}, Q2 = 2 A (I + A^T A - B)^{-1}.
    The system matrix is SPD plus skew, hence nonsingular for every phi.
    """
    dims = phi.dims
    A = phi.a_matrix()
    B = phi.b_matrix()
    AtA = A.T @ A
    Ik = np.eye(dims.k)
    S = require_finite(Ik + AtA - B, "cayley_forward_stiefel")
    Q1 = _solve_right(Ik - AtA + B, S, "cayley_forward_stiefel")
    Q2 = 2.0 * _solve_right(A, S, "cayley_forward_stiefel")
    return StiefelPoint(dims=dims, Q=np.vstack([Q1, Q2]))


def cayley_forward_dense(coords) -> np.ndarray:
    """Direct p x p evaluation (I + X)(I - X)^{-1} I_{p x k}; test oracle."""
    dims = coords.dims
    if isinstance(coords, StiefelCoords):
        X = embed_skew(coords)
    else:
        X = embed_skew_grassmann(coords)
    Ip = np.eye(dims.p)
    return np.linalg.solve((Ip - X).T, (Ip + X).T).T[:, : dims.k]


def cayley_inverse_stiefel(Q: StiefelPoint) -> StiefelCoords:
    """Recover (b, vec(A)) from an orthonormal frame with I + Q1 nonsingular."""
    dims = Q.dims
    Ik = np.eye(dims.k)
    M = Ik + Q.top_block
    sv = np.linalg.svd(M, compute_uv=False)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if rcond < RCOND_CUTOFF:
        raise DomainError(
            "cayley_inverse_stiefel: I_k + Q1 is numerically singular "
            f"(reciprocal condition number {rcond:.3e}); Q lies outside the image set"
        )
    F = np.linalg.solve(M.T, (Ik - Q.top_block).T).T
    B = 0.5 * (F.T - F)
    A = 0.5 * Q.bottom_block @ (Ik + F)
    return StiefelCoords(dims=dims, b=vech_strict(B), a_vec=vec(A))


def grassmann_domain_margin(psi: GrassmannCoords) -> float:
    """1 - max eigenvalue of A^T A; positive iff psi lies in the open domain."""
    A = psi.a_matrix()
    return float(1.0 - np.linalg.eigvalsh(require_finite(A.T @ A, "grassmann_domain_margin"))[-1])


def cayley_forward_grassmann(psi: GrassmannCoords) -> GrassmannPoint:
    """Cayley transform of Grassmann coordinates; requires all eval_i(A^T A) < 1.

    With A^T A = V diag(lam) V^T, Q1 = V diag((1 - lam)/(1 + lam)) V^T and
    Q2 = 2 A V diag(1/(1 + lam)) V^T, so one k x k eigendecomposition gives
    the domain test, the conditioning of I + A^T A and both blocks. Q1 is
    formed as X X^T, which is exactly symmetric.
    """
    dims = psi.dims
    A = psi.a_matrix()
    lam, V = np.linalg.eigh(require_finite(A.T @ A, "cayley_forward_grassmann"))
    if lam[-1] >= 1.0:
        raise DomainError(f"cayley_forward_grassmann: max eigenvalue of A^T A {lam[-1]:.6f} >= 1")
    rcond = (1.0 + lam[0]) / (1.0 + lam[-1])
    if rcond < RCOND_CUTOFF:
        raise ConditioningError(
            f"cayley_forward_grassmann: reciprocal condition number {rcond:.3e} below cutoff"
        )
    X = V * np.sqrt((1.0 - lam) / (1.0 + lam))
    Q2 = A @ ((V * (2.0 / (1.0 + lam))) @ V.T)
    return GrassmannPoint(dims=dims, Q=np.vstack([X @ X.T, Q2]))


def cayley_inverse_grassmann(Q: GrassmannPoint) -> GrassmannCoords:
    """Recover vec(A) from a frame with SPD top block."""
    dims = Q.dims
    Ik = np.eye(dims.k)
    F = np.linalg.solve((Ik + Q.top_block).T, (Ik - Q.top_block).T).T
    A = 0.5 * Q.bottom_block @ (Ik + F)
    return GrassmannCoords(dims=dims, a_vec=vec(A))


def canonicalize_grassmann(Q: StiefelPoint) -> GrassmannPoint:
    """Rotate a frame with nonsingular top block into the SPD-top-block representative.

    With SVD Q1 = U D V^T, the representative is Q' = Q V U^T, whose top
    block U D U^T is SPD and whose column space equals that of Q. The result
    does not depend on the sign ambiguity of the SVD: flipping matched
    columns of U and V leaves V U^T unchanged.
    """
    dims = Q.dims
    U, s, Vt = np.linalg.svd(Q.top_block)
    if s.min() < SPD_EIG_CUTOFF:
        raise DomainError(
            f"canonicalize_grassmann: top block numerically singular (sigma_min {s.min():.3e})"
        )
    return GrassmannPoint(dims=dims, Q=Q.Q @ Vt.T @ U.T)
