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
from .special_matrices import _identity, skew_from_vech, unvec, vec, vech_strict

__all__ = [
    "ManifoldDims",
    "StiefelCoords",
    "GrassmannCoords",
    "StiefelPoint",
    "GrassmannPoint",
    "embed_skew",
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


def _float_array(x, shape: tuple, name: str) -> np.ndarray:
    """x as a float array (at least 1-D), or ValueError unless it has `shape`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != shape:
        raise ValueError(f"{name} has shape {x.shape}, expected {shape}")
    return x


@dataclass(frozen=True)
class StiefelCoords:
    """Unconstrained coordinates phi = (b, vec(A)) for the Stiefel manifold."""

    dims: ManifoldDims
    b: np.ndarray
    a_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _float_array(self.b, (self.dims.n_b,), "b"))
        object.__setattr__(self, "a_vec", _float_array(self.a_vec, (self.dims.d_g,), "a_vec"))

    @classmethod
    def from_vector(cls, dims: ManifoldDims, phi: np.ndarray) -> "StiefelCoords":
        phi = _float_array(phi, (dims.d_v,), "phi")
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
        object.__setattr__(self, "a_vec", _float_array(self.a_vec, (self.dims.d_g,), "a_vec"))

    @classmethod
    def from_vector(cls, dims: ManifoldDims, psi: np.ndarray) -> "GrassmannCoords":
        return cls(dims=dims, a_vec=psi)

    @property
    def psi(self) -> np.ndarray:
        return self.a_vec

    def a_matrix(self) -> np.ndarray:
        return unvec(self.a_vec, self.dims.p - self.dims.k, self.dims.k)


def _max_abs(M: np.ndarray) -> np.ndarray:
    """max |M_ij| of each matrix of a stack M (n, ., .)."""
    n, rows, cols = M.shape
    return np.maximum.reduce(np.abs(M).reshape(n, rows * cols), axis=1)


def _frame_checks(Q: np.ndarray, grassmann: bool):
    """Per frame, what `check_frames` tests: max |Q^T Q - I| and, on G(k,p), max |Q1 - Q1^T|
    and the smallest eigenvalue of the top block Q1 (None on V(k,p))."""
    k = Q.shape[-1]
    ortho = _max_abs(Q.swapaxes(-1, -2) @ Q - _identity(k))
    if not grassmann:
        return ortho, None, None
    Q1 = Q[:, :k]
    Q1t = Q1.swapaxes(-1, -2)
    return ortho, _max_abs(Q1 - Q1t), np.linalg.eigvalsh(0.5 * (Q1 + Q1t)).min(axis=-1)


def _raise_frame_error(i: int, ortho: np.ndarray, sym, lam_min) -> None:
    """The error frame i's point constructor raises: the first of its checks that it fails."""
    if ortho[i] > ORTHO_TOL:
        raise ValueError(f"columns not orthonormal: max |Q^T Q - I| = {ortho[i]:.3e}")
    if sym[i] > ORTHO_TOL:
        raise DomainError(f"top block not symmetric: max |Q1 - Q1^T| = {sym[i]:.3e}")
    raise DomainError(f"top block not positive definite: min eigenvalue {lam_min[i]:.3e}")


def check_frames(Q: np.ndarray, grassmann: bool = False) -> None:
    """Apply every `StiefelPoint` check, or every `GrassmannPoint` check, to a stack Q (n, p, k).

    The checks: max |Q^T Q - I| <= ORTHO_TOL and, on G(k,p), a top block Q1
    with max |Q1 - Q1^T| <= ORTHO_TOL and smallest eigenvalue above
    SPD_EIG_CUTOFF. Each runs once over the whole stack; the first frame
    that fails raises the error its point constructor raises, for the first
    check it fails in that order.
    """
    if not grassmann:
        # Every frame passes when the stack's largest |Q^T Q - I| entry does; NaN fails this
        # test, and then the per-frame pass below decides.
        M = Q.swapaxes(-1, -2) @ Q
        M -= _identity(Q.shape[-1])
        # The ufunc's own reduce: ndarray.max adds a Python-level wrapper to every call.
        if np.maximum.reduce(np.abs(M, out=M), axis=None, initial=0.0) <= ORTHO_TOL:
            return
    ortho, sym, lam_min = _frame_checks(Q, grassmann)
    failing = ortho > ORTHO_TOL
    if grassmann:
        failing |= (sym > ORTHO_TOL) | (lam_min <= SPD_EIG_CUTOFF)
    if failing.any():
        _raise_frame_error(np.flatnonzero(failing)[0], ortho, sym, lam_min)


def grassmann_frame_exits(Q: np.ndarray) -> np.ndarray:
    """Which frames of a stack Q (n, p, k) `GrassmannPoint` rejects with DomainError.

    Those fail the top-block checks of `check_frames`, a domain exit; a frame
    whose columns are not orthonormal raises the ValueError of its point
    constructor instead, the first in stack order.
    """
    ortho, sym, lam_min = _frame_checks(Q, grassmann=True)
    skewed = ortho > ORTHO_TOL
    if skewed.any():
        _raise_frame_error(np.flatnonzero(skewed)[0], ortho, sym, lam_min)
    return (sym > ORTHO_TOL) | (lam_min <= SPD_EIG_CUTOFF)


@dataclass(frozen=True)
class _Frame:
    """A p x k frame, validated at construction by `check_frames`.

    The body shared by `StiefelPoint` and `GrassmannPoint`, which stay
    siblings: code that dispatches on the point type tests one, then the other.
    """

    dims: ManifoldDims
    Q: np.ndarray

    def __post_init__(self):
        Q = _float_array(self.Q, (self.dims.p, self.dims.k), "Q")
        check_frames(Q[None], grassmann=isinstance(self, GrassmannPoint))
        object.__setattr__(self, "Q", Q)

    @property
    def top_block(self) -> np.ndarray:
        return self.Q[: self.dims.k, :]

    @property
    def bottom_block(self) -> np.ndarray:
        return self.Q[self.dims.k :, :]


@dataclass(frozen=True)
class StiefelPoint(_Frame):
    """A p x k matrix with orthonormal columns; validated at construction."""


@dataclass(frozen=True)
class GrassmannPoint(_Frame):
    """An orthonormal p x k frame with symmetric positive definite top block."""


def embed_skew(coords) -> np.ndarray:
    """The p x p skew matrix [[B, -A^T], [A, 0]]; B = 0 for Grassmann coordinates."""
    dims = coords.dims
    X = np.zeros((dims.p, dims.p))
    if isinstance(coords, StiefelCoords):
        X[: dims.k, : dims.k] = coords.b_matrix()
    A = coords.a_matrix()
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
    # The bound grows with max|S_ij|, so the stack's largest entry decides for every matrix
    # at once; NaN propagates through the max and fails the comparison.
    if k * float(np.maximum.reduce(np.abs(S), axis=None, initial=0.0)) * RCOND_CUTOFF <= 1.0:
        return S
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
    X = embed_skew(coords)
    Ip = np.eye(dims.p)
    return np.linalg.solve((Ip - X).T, (Ip + X).T).T[:, : dims.k]


def _inverse_blocks(Q) -> tuple:
    """F = (I - Q1)(I + Q1)^{-1}, from one solve with (I + Q1)^T, and A = Q2 (I + F) / 2.

    The inverse Cayley map of a frame Q with I + Q1 nonsingular is
    X = [[B, -A^T], [A, 0]] with B = (F^T - F) / 2 on V(k,p), B = 0 on G(k,p).
    """
    Ik = np.eye(Q.dims.k)
    F = np.linalg.solve((Ik + Q.top_block).T, (Ik - Q.top_block).T).T
    return F, 0.5 * Q.bottom_block @ (Ik + F)


def cayley_inverse_stiefel(Q: StiefelPoint) -> StiefelCoords:
    """Recover (b, vec(A)) from an orthonormal frame with I + Q1 nonsingular."""
    M = np.eye(Q.dims.k) + Q.top_block
    sv = np.linalg.svd(M, compute_uv=False)
    rcond = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    if rcond < RCOND_CUTOFF:
        raise DomainError(
            "cayley_inverse_stiefel: I_k + Q1 is numerically singular "
            f"(reciprocal condition number {rcond:.3e}); Q lies outside the image set"
        )
    F, A = _inverse_blocks(Q)
    B = 0.5 * (F.T - F)
    return StiefelCoords(dims=Q.dims, b=vech_strict(B), a_vec=vec(A))


def grassmann_spectra(A: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues lam (n, k) of A^T A for each matrix of a stack A (n, p-k, k).

    With `vectors`, (lam, V) from one stacked eigh; otherwise lam from one
    stacked eigvalsh. Nothing raises and no domain test applies: a matrix
    whose A^T A has a non-finite entry gets NaN eigenvalues, and LAPACK
    never sees it. `grassmann_spectrum` is the checked one-matrix case.
    """
    AtA = A.swapaxes(-1, -2) @ A
    finite = None
    # A finite sum of the whole stack clears every matrix at once. Otherwise each matrix takes
    # the finiteness test of `require_finite`, the sum of its entries (one may overflow alone).
    if not math.isfinite(AtA.sum()):
        n, k = AtA.shape[:2]
        finite = np.isfinite(np.add.reduce(AtA.reshape(n, k * k), axis=-1))
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
    lam1 = 1.0 + lam
    X = V * np.sqrt((1.0 - lam) / lam1)[..., None, :]
    Q2 = A @ ((V * (2.0 / lam1)[..., None, :]) @ V.swapaxes(-1, -2))
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
    return GrassmannCoords(dims=Q.dims, a_vec=vec(_inverse_blocks(Q)[1]))


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
