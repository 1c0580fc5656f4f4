"""The coordinate layout and the structural integer matrices built from it.

`ManifoldDims` is the package's one check of the dimensions (p, k). Two cached index tables, `coordinate_pairs` (where each coordinate sits in
the skew embedding) and `transpose_perm` (vec versus transpose), generate
everything else here. The matrices have entries -1, 0, +1 and are kept as
index arrays; `toarray` exists for small test oracles only.

Vectorization is column-major (Fortran order) throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = [
    "ManifoldDims",
    "vec",
    "unvec",
    "coordinate_pairs",
    "transpose_perm",
    "SignedIndexMatrix",
    "commutation_matrix",
    "dtilde_matrix",
    "vech_strict",
    "skew_from_vech",
    "gamma_stiefel",
    "gamma_grassmann",
]


@dataclass(frozen=True)
class ManifoldDims:
    """Row/column dimensions p, k of V(k,p) and G(k,p); the one (p, k) check."""

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


def vec(M: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a matrix."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of `vec` for a rows x cols matrix."""
    return np.asarray(v).reshape((rows, cols), order="F")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def coordinate_pairs(p: int, k: int) -> np.ndarray:
    """Row l is the (row, col) of coordinate l's +1 in X = [[B, -A^T], [A, 0]].

    The -1 sits at the transposed position. Stiefel order is the k(k-1)/2
    strictly subdiagonal entries of the k x k block B, column-major, then
    vec(A); the Grassmann layout is the tail after them. With p = k the
    table is the strict subdiagonal of a k x k matrix.
    """
    if not (0 <= k <= p):
        raise ValueError(f"coordinate_pairs requires 0 <= k <= p, got p={p}, k={k}")
    # The upper triangle in row-major order, transposed, is the strict lower
    # triangle in column-major order.
    b_cols, b_rows = np.triu_indices(k, 1)
    a_rows, a_cols = np.unravel_index(np.arange((p - k) * k), (p - k, k), order="F")
    rows = np.concatenate([b_rows, k + a_rows])
    cols = np.concatenate([b_cols, a_cols])
    return _frozen(np.stack([rows, cols], axis=1).astype(np.int64))


@lru_cache(maxsize=None)
def transpose_perm(m: int, n: int) -> np.ndarray:
    """Position in vec(A^T) of entry s of vec(A), for m x n A.

    Also the column permutation of right-multiplication by K_{m,n}:
    (M @ K_{m,n})[:, s] == M[:, transpose_perm(m, n)[s]].
    """
    s = np.arange(m * n)
    return _frozen((s % m) * n + s // m)


@dataclass(frozen=True)
class SignedIndexMatrix:
    """A rows x len(plus) matrix whose column j is e_plus[j] - e_minus[j].

    `minus` is omitted for a permutation matrix. Every row index appears at
    most once across `plus` and `minus`, so a product is a scatter.
    """

    rows: int
    plus: np.ndarray
    minus: Optional[np.ndarray] = None

    @property
    def cols(self) -> int:
        return self.plus.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise ValueError(f"vector shape {x.shape} != ({self.cols},)")
        out = np.zeros(self.rows)
        out[self.plus] = x
        if self.minus is not None:
            out[self.minus] = -x
        return out

    apply = matvec

    def toarray(self) -> np.ndarray:
        M = np.zeros((self.rows, self.cols), dtype=np.int64)
        j = np.arange(self.cols)
        M[self.plus, j] = 1
        if self.minus is not None:
            M[self.minus, j] = -1
        return M


def commutation_matrix(m: int, n: int) -> SignedIndexMatrix:
    """The mn x mn permutation with K_{m,n} vec(A) = vec(A^T) for m x n A."""
    if m < 1 or n < 1:
        raise ValueError("commutation_matrix requires m >= 1 and n >= 1")
    return SignedIndexMatrix(rows=m * n, plus=transpose_perm(m, n))


def _skew_embedding(p: int, pairs: np.ndarray) -> SignedIndexMatrix:
    """Columns +1 at vec position (r, c) and -1 at (c, r) of a p x p matrix."""
    r, c = pairs.T
    return SignedIndexMatrix(rows=p * p, plus=c * p + r, minus=r * p + c)


def dtilde_matrix(n: int) -> SignedIndexMatrix:
    """The n^2 x n(n-1)/2 matrix with D~_n vtilde(A) = vec(A) for skew A."""
    if n < 1:
        raise ValueError("dtilde_matrix requires n >= 1")
    return _skew_embedding(n, coordinate_pairs(n, n))


@lru_cache(maxsize=None)
def _subdiag_flat(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat positions of the table's (r, c) and of (c, r) in an n x n matrix."""
    r, c = coordinate_pairs(n, n).T
    return _frozen(r * n + c), _frozen(c * n + r)


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """I_n, read-only: the one identity of each size that the per-call kernels share."""
    return _frozen(np.eye(n))


def vech_strict(M: np.ndarray) -> np.ndarray:
    """Strictly subdiagonal entries of a square matrix, column-major order."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"vech_strict requires a square matrix, got shape {M.shape}")
    return M.reshape(-1)[_subdiag_flat(M.shape[0])[0]]


def skew_from_vech(b: np.ndarray, n: int) -> np.ndarray:
    """Skew-symmetric n x n matrix with vech_strict equal to b."""
    b = np.asarray(b, dtype=float)
    expected = n * (n - 1) // 2
    if b.shape != (expected,):
        raise ValueError(f"expected vector of length {expected} for n={n}, got shape {b.shape}")
    return skew_at(b, n, _skew_gather(n)) if expected else np.zeros((n, n))


@lru_cache(maxsize=None)
def _skew_gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `skew_at` reads for each row-major entry of an n x n matrix.

    The position in b it takes (0 on the diagonal), whether it lies off the
    diagonal, and whether it lies above it (where B holds -b).
    """
    lower, upper = _subdiag_flat(n)
    position = np.zeros(n * n, dtype=np.intp)
    position[lower] = position[upper] = np.arange(lower.shape[0])
    off, above = np.zeros(n * n, dtype=bool), np.zeros(n * n, dtype=bool)
    off[lower] = off[upper] = above[upper] = True
    return _frozen(position), _frozen(off), _frozen(above)


def skew_at(x: np.ndarray, n: int, gather: tuple[np.ndarray, ...]) -> np.ndarray:
    """`skew_from_vech`, unchecked, of the b that leads the last axis of x.

    `gather` is `_skew_gather(n)`. The last axis needs at least one entry;
    past b's n(n-1)/2 it is not read. `x` may carry leading stack axes; so
    does the result then. B is one gather and a negation in place, so each
    entry is b_l, -b_l or +0, bit for bit those of a zero matrix with b and
    -b written into it.
    """
    position, off, above = gather
    B = np.where(off, x.take(position, axis=-1), 0.0)
    np.negative(B, out=B, where=above)
    return B.reshape(x.shape[:-1] + (n, n))


def gamma_stiefel(p: int, k: int) -> SignedIndexMatrix:
    """Linear map from coordinates phi = (b, vec(A)) to vec of the skew embedding."""
    ManifoldDims(p, k)
    return _skew_embedding(p, coordinate_pairs(p, k))


def gamma_grassmann(p: int, k: int) -> SignedIndexMatrix:
    """Linear map from coordinates psi = vec(A) to vec of the skew embedding (B = 0)."""
    ManifoldDims(p, k)
    return _skew_embedding(p, coordinate_pairs(p, k)[k * (k - 1) // 2:])
