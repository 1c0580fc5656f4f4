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
    "stiefel_frame",
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


def _max_abs(M: np.ndarray) -> np.ndarray:
    """max |M_ij| of each matrix of a stack M (n, ., .)."""
    n, rows, cols = M.shape
    return np.maximum.reduce(np.abs(M).reshape(n, rows * cols), axis=1)


def check_frames(Q: np.ndarray, grassmann: bool = False) -> None:
    """Apply every `StiefelPoint` check, or every `GrassmannPoint` check, to a stack Q (n, p, k).

    The checks: max |Q^T Q - I| <= ORTHO_TOL and, on G(k,p), a top block Q1
    with max |Q1 - Q1^T| <= ORTHO_TOL and smallest eigenvalue above
    SPD_EIG_CUTOFF. Each runs once over the whole stack; the first frame
    that fails raises the error its point constructor raises, for the first
    check it fails in that order.
    """
    k = Q.shape[-1]
    ortho = _max_abs(Q.swapaxes(-1, -2) @ Q - np.eye(k))
    failing = ortho > ORTHO_TOL
    if grassmann:
        Q1 = Q[:, :k]
        Q1t = Q1.swapaxes(-1, -2)
        sym = _max_abs(Q1 - Q1t)
        lam_min = np.linalg.eigvalsh(0.5 * (Q1 + Q1t)).min(axis=-1)
        failing |= (sym > ORTHO_TOL) | (lam_min <= SPD_EIG_CUTOFF)
    if not failing.any():
        return
    i = np.flatnonzero(failing)[0]
    if ortho[i] > ORTHO_TOL:
        raise ValueError(f"columns not orthonormal: max |Q^T Q - I| = {ortho[i]:.3e}")
    if sym[i] > ORTHO_TOL:
        raise DomainError(f"top block not symmetric: max |Q1 - Q1^T| = {sym[i]:.3e}")
    raise DomainError(f"top block not positive definite: min eigenvalue {lam_min[i]:.3e}")


@dataclass(frozen=True)
class StiefelPoint:
    """A p x k matrix with orthonormal columns; validated at construction."""

    dims: ManifoldDims
    Q: np.ndarray

    def __post_init__(self):
        Q = _check_point_shape(self.dims, self.Q)
        check_frames(Q[None])
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
        check_frames(Q[None], grassmann=True)
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


def guard_resolvent(S: np.ndarray, context: str) -> np.ndarray:
    """S itself, or ConditioningError if a matrix of S (..., k, k) is non-finite or ill-conditioned.

    S = I_k + A^T A + (skew), so x^T S x >= |x|^2 and sigma_min(S) >= 1,
    while sigma_max(S) <= ||S||_F <= k max|S_ij|. The reciprocal condition
    number is therefore at least 1/(k max|S_ij|); the SVD that measures it
    runs only for a matrix whose bound falls below RCOND_CUTOFF, in stack
    order, and the first that fails raises.
    """
    k = S.shape[-1]
    # A NaN bound fails the comparison too, and then require_finite raises.
    bounded = k * np.abs(S).max(axis=(-2, -1)) * RCOND_CUTOFF <= 1.0
    if not bounded.all():
        for M in S.reshape(-1, k, k)[~bounded.reshape(-1)]:
            sv = np.linalg.svd(require_finite(M, context), compute_uv=False)
            rcond = sv[-1] / sv[0]
            if rcond < RCOND_CUTOFF:
                raise ConditioningError(f"{context}: reciprocal condition number {rcond:.3e} below cutoff")
    return S


def stiefel_frame(A: np.ndarray, S: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The frame [Q1; Q2] = [R; 2A] S^{-1} for S = I + A^T A - B, R = I - A^T A + B.

    One guarded solve with S^T covers both blocks; the frame is the
    (Fortran-ordered) transpose of its solution. A, S and R may each carry
    one leading stack axis n; the frames are then a stack (n, p, k) from one
    stacked solve.
    """
    S = guard_resolvent(S, "cayley_forward_stiefel")
    Q = np.linalg.solve(S.swapaxes(-1, -2),
                        np.concatenate([R, A], axis=-2).swapaxes(-1, -2)).swapaxes(-1, -2)
    Q[..., S.shape[-1]:, :] *= 2.0
    return Q


def cayley_forward_stiefel(phi: StiefelCoords) -> StiefelPoint:
    """Cayley transform of Stiefel coordinates, via the k x k block formulas.

    Q1 = (I - A^T A + B)(I + A^T A - B)^{-1}, Q2 = 2 A (I + A^T A - B)^{-1},
    from one solve (`stiefel_frame`). The coordinates are validated here, at
    the typed boundary, and so is the returned frame.
    """
    A = phi.a_matrix()
    B = phi.b_matrix()
    AtA = A.T @ A
    Ik = np.eye(phi.dims.k)
    return StiefelPoint(dims=phi.dims, Q=stiefel_frame(A, Ik + AtA - B, Ik - AtA + B))


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


def grassmann_spectra(A: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues lam (n, k) of A^T A for each matrix of a stack A (n, p-k, k).

    With `vectors`, (lam, V) from one stacked eigh; otherwise lam from one
    stacked eigvalsh. Nothing raises and no domain test applies: a matrix
    whose A^T A has a non-finite entry gets NaN eigenvalues, and LAPACK
    never sees it. `grassmann_spectrum` is the checked one-matrix case.
    """
    AtA = A.swapaxes(-1, -2) @ A
    n, k = AtA.shape[:2]
    # Per matrix, the finiteness test of `require_finite`: the sum of the entries.
    sums = np.add.reduce(AtA.reshape(n, k * k), axis=-1)
    finite = None if math.isfinite(np.add.reduce(sums)) else np.isfinite(sums)
    if finite is not None:
        AtA = np.where(finite[:, None, None], AtA, 0.0)
    lam, V = np.linalg.eigh(AtA) if vectors else (np.linalg.eigvalsh(AtA), None)
    if finite is not None:
        lam[~finite] = np.nan
    return (lam, V) if vectors else lam


def in_grassmann_domain(lam_max):
    """The package's one domain predicate, on the largest eigenvalue(s) of A^T A.

    The frame's top block has smallest eigenvalue (1 - lam_max)/(1 + lam_max),
    which must exceed SPD_EIG_CUTOFF, as `GrassmannPoint` requires. This
    excludes lam_max >= 1; NaN is outside too.
    """
    return (1.0 - lam_max) / (1.0 + lam_max) > SPD_EIG_CUTOFF


def grassmann_spectrum(A: np.ndarray, context: str, vectors: bool = False,
                       in_domain: bool = True):
    """Ascending eigenvalues lam of A^T A for one matrix A, or (lam, V) with `vectors`.

    The one-matrix case of `grassmann_spectra`, checked: non-finite entries
    raise ConditioningError (LAPACK never sees them) and, with `in_domain`,
    a matrix outside `in_grassmann_domain` raises DomainError.
    """
    spectra = grassmann_spectra(A[None], vectors)
    lam = (spectra[0] if vectors else spectra)[0]
    if math.isnan(lam[0]):
        raise ConditioningError(f"{context}: non-finite coordinates")
    if in_domain and not in_grassmann_domain(lam[-1]):
        raise DomainError(f"{context}: max eigenvalue of A^T A {lam[-1]:.17g} "
                          "is at or past the domain edge")
    return (lam, spectra[1][0]) if vectors else lam


def grassmann_frame(A: np.ndarray, lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The frame [Q1; Q2] from A and the eigendecomposition A^T A = V diag(lam) V^T.

    Q1 = V diag((1 - lam)/(1 + lam)) V^T is formed as X X^T, which is
    exactly symmetric, and Q2 = 2 A V diag(1/(1 + lam)) V^T. The arguments
    may be stacks with one leading axis; so is the frame then.
    """
    X = V * np.sqrt((1.0 - lam) / (1.0 + lam))[..., None, :]
    Q2 = A @ ((V * (2.0 / (1.0 + lam))[..., None, :]) @ V.swapaxes(-1, -2))
    return np.concatenate([X @ X.swapaxes(-1, -2), Q2], axis=-2)


def grassmann_domain_margin(psi: GrassmannCoords) -> float:
    """1 - max eigenvalue of A^T A; positive iff psi lies in the open domain."""
    lam = grassmann_spectrum(psi.a_matrix(), "grassmann_domain_margin", in_domain=False)
    return float(1.0 - lam[-1])


def cayley_forward_grassmann(psi: GrassmannCoords) -> GrassmannPoint:
    """Cayley transform of Grassmann coordinates; requires all eval_i(A^T A) < 1.

    One k x k eigendecomposition of A^T A gives the domain test and both
    blocks (see `grassmann_frame`). Inside the domain I + A^T A has
    reciprocal condition number (1 + lam_min)/(1 + lam_max) > 1/2, so it
    needs no conditioning guard.
    """
    A = psi.a_matrix()
    lam, V = grassmann_spectrum(A, "cayley_forward_grassmann", vectors=True)
    return GrassmannPoint(dims=psi.dims, Q=grassmann_frame(A, lam, V))


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
