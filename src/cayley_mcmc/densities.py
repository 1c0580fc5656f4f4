"""Log-density targets on the manifolds and their coordinate pullbacks.

A target is specified as a log density (up to an additive constant) with
respect to the uniform/Hausdorff measure on the manifold. The pullback to
Euclidean coordinates adds the log-Jacobian of the Cayley map; that pullback
is what the samplers see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy import special

from .cayley import (
    GrassmannCoords,
    GrassmannPoint,
    ManifoldDims,
    StiefelCoords,
    StiefelPoint,
    cayley_forward_grassmann,
    cayley_forward_stiefel,
    check_frames,
    grassmann_frame,
    grassmann_spectra,
    grassmann_spectrum,
    in_grassmann_domain,
    stiefel_frame,
)
from .errors import ConditioningError, DomainError
from .jacobian import (
    derivative_stiefel,
    grad_log_jacobian_eig,
    grad_log_jacobian_stiefel,
    grassmann_log_jacobian,
    log_jacobian_block_grassmann,
    log_jacobian_stiefel,
    require_oriented,
    stiefel_log_jacobian,
    stiefel_log_jacobian_constant,
)
from .special_matrices import _subdiag_flat, skew_at

__all__ = [
    "LogDensity",
    "BinghamParams",
    "uniform_log_density",
    "bingham_log_density",
    "pullback_log_density",
    "PullbackTarget",
    "EntryMarginal",
    "entry_marginal_log_pdf",
]

Coords = Union[StiefelCoords, GrassmannCoords]
Point = Union[StiefelPoint, GrassmannPoint]


@dataclass(frozen=True)
class LogDensity:
    """A log density (up to a constant) on one of the two manifolds.

    `fn` is None for the constant density, the uniform distribution, whose
    pullback is the log-Jacobian alone. `grad_fn` returns the p x k matrix
    of partial derivatives of the log density with respect to the entries
    of Q; gradient-based proposals need it whenever `fn` is set. A constant
    density needs no `grad_fn`.
    """

    fn: Optional[Callable[[Point], float]]
    manifold: str  # "stiefel" | "grassmann"
    name: str = "custom"
    grad_fn: Optional[Callable[[Point], np.ndarray]] = None

    def __post_init__(self):
        if self.manifold not in ("stiefel", "grassmann"):
            raise ValueError(f"unknown manifold tag {self.manifold!r}")

    def __call__(self, point: Point) -> float:
        return 0.0 if self.fn is None else float(self.fn(point))


def uniform_log_density(manifold: str = "stiefel") -> LogDensity:
    """The constant-zero log density: the uniform distribution."""
    return LogDensity(fn=None, manifold=manifold, name="uniform")


@dataclass(frozen=True)
class BinghamParams:
    """Parameters of the matrix Bingham posterior for the spiked covariance model.

    log g(Q) = trace(M Q^T S Q) with M = (Lambda^{-1} + I)^{-1} / (2 sigma^2)
    diagonal; S is the data cross-product matrix Y^T Y.
    """

    S: np.ndarray
    sigma2: float
    lam: np.ndarray
    m_diag: np.ndarray = field(init=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if lam.ndim != 1 or np.any(lam <= 0) or np.any(np.diff(lam) >= 0):
            raise ValueError("lambda must be strictly decreasing and positive")
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"S must be square, got shape {S.shape}")
        if np.max(np.abs(S - S.T)) > 1e-8 * max(1.0, np.max(np.abs(S))):
            raise ValueError("S must be symmetric")
        if np.linalg.eigvalsh(S).min() < -1e-10 * max(1.0, np.max(np.abs(S))):
            raise ValueError("S must be positive semidefinite")
        object.__setattr__(self, "S", 0.5 * (S + S.T))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "m_diag", (lam / (1.0 + lam)) / (2.0 * self.sigma2))

    @classmethod
    def from_data(cls, Y: np.ndarray, sigma2: float, lam: np.ndarray) -> "BinghamParams":
        Y = np.asarray(Y, dtype=float)
        return cls(S=Y.T @ Y, sigma2=sigma2, lam=lam)

    @property
    def k(self) -> int:
        return self.lam.shape[0]


def bingham_log_density(params: BinghamParams, manifold: str = "stiefel") -> LogDensity:
    """Matrix Bingham log density trace(M Q^T S Q)."""

    def fn(point: Point) -> float:
        Q = point.Q
        if Q.shape[0] != params.S.shape[0] or Q.shape[1] != params.k:
            raise ValueError(
                f"point shape {Q.shape} incompatible with Bingham params "
                f"(p={params.S.shape[0]}, k={params.k})"
            )
        SQ = params.S @ Q
        return float(np.sum(params.m_diag * np.einsum("ij,ij->j", Q, SQ)))

    def grad_fn(point: Point) -> np.ndarray:
        # d/dQ trace(M Q^T S Q) = 2 S Q M for symmetric S, diagonal M.
        return 2.0 * (params.S @ point.Q) * params.m_diag

    return LogDensity(fn=fn, manifold=manifold, name="bingham", grad_fn=grad_fn)


def pullback_log_density(g: LogDensity, coords: Coords) -> float:
    """log g(C(coords)) + log J(coords): the target the sampler works with.

    Grassmann coordinates outside the eigenvalue domain get -inf (so a
    Metropolis proposal there is rejected naturally), and so do coordinates
    just inside it whose frame fails `GrassmannPoint` validation when the
    density needs the frame. Numerical failures, a NaN value among them,
    raise ConditioningError instead of masking bugs as rejections.

    This is the typed route; `PullbackTarget` evaluates the same kernels
    from raw vectors and must agree with it exactly.
    """
    # A constant manifold density (fn unset) pulls back to the Jacobian alone.
    if isinstance(coords, StiefelCoords):
        if g.manifold != "stiefel":
            raise ValueError("Stiefel coordinates require a Stiefel target")
        log_j = log_jacobian_stiefel(coords)
        point = None if g.fn is None else cayley_forward_stiefel(coords)
    elif isinstance(coords, GrassmannCoords):
        if g.manifold != "grassmann":
            raise ValueError("Grassmann coordinates require a Grassmann target")
        try:
            log_j = log_jacobian_block_grassmann(coords)
            point = None if g.fn is None else cayley_forward_grassmann(coords)
        except DomainError:
            return -np.inf
    else:
        raise TypeError(f"unsupported coordinate type {type(coords)!r}")
    return _not_nan(log_j if point is None else g(point) + log_j)


def _not_nan(value: float) -> float:
    """The pullback value, or ConditioningError if it is NaN."""
    if math.isnan(value):
        raise ConditioningError("pullback_log_density: log target is NaN")
    return value


class PullbackTarget:
    """Callable pullback of a manifold log density to coordinate vectors.

    The constructor builds the plan for one shape: the manifold, the
    coordinate count, the split of a vector into the skew block b and the
    (p-k) x k matrix A, the cached skew index positions, I_k and the
    log-Jacobian constant. `rows` evaluates the pullback at a stack of raw
    vectors through stacked k x k kernels, with no coordinate object and no
    shape check: callers validate a vector's shape once, at the boundary
    (`run_chain` checks its initial state). A call is its one-row case, and
    the typed routes (`pullback_log_density`, `log_jacobian_stiefel`, ...)
    use the same kernels. `coords`, `point` and `frames` map vectors to
    typed coordinates and validated frames.
    """

    def __init__(self, g: LogDensity, dims: ManifoldDims):
        self.g = g
        self.dims = dims
        self._stiefel = g.manifold == "stiefel"
        self.dim = dims.d_v if self._stiefel else dims.d_g
        self.n_b = dims.n_b if self._stiefel else 0
        self._skew_positions = _subdiag_flat(dims.k)
        self._eye = np.eye(dims.k)
        self._log_j_constant = stiefel_log_jacobian_constant(dims)

    def coords(self, vector: np.ndarray) -> Coords:
        if self._stiefel:
            return StiefelCoords.from_vector(self.dims, vector)
        return GrassmannCoords.from_vector(self.dims, vector)

    def _a_stack(self, X: np.ndarray) -> np.ndarray:
        """The (p-k) x k matrices A of a stack X (n, d) of vectors; vec A is column-major."""
        n, p, k = X.shape[0], self.dims.p, self.dims.k
        return X[:, self.n_b:].reshape(n, k, p - k).swapaxes(1, 2)

    def _stiefel_blocks(self, X: np.ndarray):
        """A, A^T A and B of each Stiefel coordinate vector of a stack X (n, d)."""
        A = self._a_stack(X)
        B = skew_at(X[:, :self.n_b], self.dims.k, self._skew_positions)
        return A, A.swapaxes(1, 2) @ A, B

    def _frames(self, X: np.ndarray) -> np.ndarray:
        """The frames (n, p, k) of a stack X (n, d), not yet validated.

        Grassmann vectors with non-finite entries or outside the domain raise
        as `cayley_forward_grassmann` does, the first in stack order.
        """
        if self._stiefel:
            A, AtA, B = self._stiefel_blocks(X)
            return stiefel_frame(A, self._eye + AtA - B, self._eye - AtA + B)
        A = self._a_stack(X)
        lam, V = grassmann_spectra(A, vectors=True)
        outside = ~in_grassmann_domain(lam[:, -1])
        if outside.any():
            grassmann_spectrum(A[np.flatnonzero(outside)[0]], "cayley_forward_grassmann",
                               vectors=True)
        return grassmann_frame(A, lam, V)

    def frames(self, X: np.ndarray) -> np.ndarray:
        """The validated frames (n, p, k) of a stack X (n, d) of coordinate vectors.

        One stacked forward map and one pass of every `StiefelPoint` or
        `GrassmannPoint` check (`check_frames`); the first row that fails
        raises the error its point would.
        """
        Q = self._frames(X)
        check_frames(Q, grassmann=not self._stiefel)
        # Row-major like any stacked array: BLAS may round a product of a
        # Fortran-ordered frame (the Stiefel solve's layout) differently.
        return np.ascontiguousarray(Q)

    def point(self, vector: np.ndarray) -> Point:
        """The validated frame of a coordinate vector."""
        point_type = StiefelPoint if self._stiefel else GrassmannPoint
        return point_type(dims=self.dims, Q=self._frames(vector[None])[0])

    def _grassmann_point(self, A: np.ndarray) -> GrassmannPoint:
        lam, V = grassmann_spectrum(A, "cayley_forward_grassmann", vectors=True)
        return GrassmannPoint(dims=self.dims, Q=grassmann_frame(A, lam, V))

    def rows(self, X: np.ndarray) -> Callable[[int], float]:
        """The pullback at each row of a stack X (n, d) of coordinate vectors, as `value(j)`.

        One stacked log-Jacobian call covers every row; `value(j)` then
        equals `self(X[j])` bit for bit. Row j's errors (a NaN log target, a
        non-finite Grassmann row, a frame that fails its guard) are raised
        only when `value(j)` is asked for, and g(Q), when `fn` is set, is
        evaluated only then. A caller that takes rows in order and stops
        early neither sees the errors nor pays for g at the rows it skips.
        Out-of-domain Grassmann rows, and rows whose frame `GrassmannPoint`
        rejects when g needs it, read -inf.
        """
        fn = self.g.fn
        if self._stiefel:
            A, AtA, B = self._stiefel_blocks(X)
            S = self._eye + AtA - B
            log_j, oriented = stiefel_log_jacobian(S, self.dims.p, self._log_j_constant)

            def value(j: int) -> float:
                require_oriented(oriented[j])
                v = float(log_j[j])
                if fn is not None:
                    Q = stiefel_frame(A[j], S[j], self._eye - AtA[j] + B[j])
                    v = self.g(StiefelPoint(dims=self.dims, Q=Q)) + v
                return _not_nan(v)
        else:
            A = self._a_stack(X)
            log_j = grassmann_log_jacobian(A, self.dims.p)

            def value(j: int) -> float:
                v = float(log_j[j])
                if math.isnan(v):
                    # Raises the row's ConditioningError, as the one-row route does.
                    grassmann_spectrum(A[j], "log_jacobian_block_grassmann")
                if v == -math.inf or fn is None:
                    return _not_nan(v)
                try:
                    point = self._grassmann_point(A[j])
                except DomainError:
                    return -math.inf
                return _not_nan(self.g(point) + v)

        return value

    def __call__(self, vector: np.ndarray) -> float:
        """The pullback at a raw coordinate vector; as `pullback_log_density`."""
        return self.rows(vector[None])(0)

    @property
    def has_gradient(self) -> bool:
        """A gradient exists unless the density has an `fn` but no `grad_fn`."""
        return self.g.fn is None or self.g.grad_fn is not None

    def gradient(self, vector: np.ndarray) -> np.ndarray:
        """Gradient of the pullback log density at a coordinate vector.

        The Jacobian part has a closed-form gradient on both manifolds. The
        manifold part goes through the chain rule: on V(k,p) with the dense
        derivative matrix of the forward map, on G(k,p) as a k x k
        vector-Jacobian product through the spectral forward map.
        """
        if not self.has_gradient:
            raise ValueError(f"target {self.g.name!r} has an fn but no grad_fn")
        coords = self.coords(vector)
        if not self._stiefel:
            return _grassmann_gradient(self.g, coords)
        grad = grad_log_jacobian_stiefel(coords)
        if self.g.fn is not None:
            point = cayley_forward_stiefel(coords)
            D = derivative_stiefel(coords).matrix
            grad = grad + D.T @ self.g.grad_fn(point).reshape(-1, order="F")
        return grad


def _grassmann_gradient(g: LogDensity, psi: GrassmannCoords) -> np.ndarray:
    """Pullback gradient on G(k,p) from one eigendecomposition of A^T A.

    With N = (I + A^T A)^{-1}, the map is Q1 = 2N - I, Q2 = 2AN. For the
    upstream gradient G = [G1; G2] of g at Q and W = 2N(G1 + A^T G2)N, the
    chain-rule term in A is 2 G2 N - A(W + W^T).
    """
    A = psi.a_matrix()
    lam, V = grassmann_spectrum(A, "PullbackTarget.gradient", vectors=True)
    grad = grad_log_jacobian_eig(A, lam, V, psi.dims.p)
    if g.fn is not None:
        k = psi.dims.k
        N = (V / (1.0 + lam)) @ V.T
        G = g.grad_fn(GrassmannPoint(dims=psi.dims, Q=grassmann_frame(A, lam, V)))
        W = 2.0 * N @ (G[:k] + A.T @ G[k:]) @ N
        grad = grad + 2.0 * G[k:] @ N - A @ (W + W.T)
    return grad.reshape(-1, order="F")


class EntryMarginal:
    """Exact marginal law of a single entry of a uniform frame.

    Any single entry x of Q is an entry of a uniformly distributed unit
    vector in R^p, so x^2 ~ Beta(1/2, (p-1)/2) and x is symmetric: the
    density is (1 - x^2)^((p-3)/2) / B(1/2, (p-1)/2) on (-1, 1) and the CDF
    is 1/2 + 1/2 sign(x) I_{x^2}(1/2, (p-1)/2), with I the regularized
    incomplete beta function. The law does not depend on k.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"require p >= 2, got p={p}")
        self.p = p
        self.exponent = 0.5 * (p - 3)
        self._b = 0.5 * (p - 1)
        self._norm = float(special.beta(0.5, self._b))

    def _unnormalized(self, x):
        return (1.0 - x * x) ** self.exponent

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) < 1.0, self._unnormalized(np.clip(x, -1, 1)) / self._norm, 0.0)
        return out

    def log_pdf(self, x: float) -> float:
        if abs(x) >= 1.0:
            return -np.inf
        return float(self.exponent * np.log1p(-x * x) - np.log(self._norm))

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = 0.5 + 0.5 * np.sign(x) * special.betainc(0.5, self._b, np.minimum(x * x, 1.0))
        return out if out.size > 1 else float(out[0])


def entry_marginal_log_pdf(x: float, p: int) -> float:
    """Log of the normalized single-entry marginal density at x."""
    return EntryMarginal(p).log_pdf(x)
