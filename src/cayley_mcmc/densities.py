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
    check_frames,
    grassmann_frame,
    grassmann_spectra,
    grassmann_spectrum,
    guard_resolvent,
    in_grassmann_domain,
    stiefel_frame,
)
from .errors import ConditioningError, DomainError
from .jacobian import (
    _log_jacobian_lowrank,
    grassmann_gradient,
    grassmann_log_jacobian,
    require_oriented,
    stiefel_gradient,
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
        # Written so that NaN and inf fail each test.
        if not 0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if (lam.ndim != 1 or not np.all((0 < lam) & (lam < np.inf))
                or not np.all(np.diff(lam) < 0)):
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

    The typed boundary of `PullbackTarget`, which evaluates it.
    """
    if isinstance(coords, StiefelCoords):
        if g.manifold != "stiefel":
            raise ValueError("Stiefel coordinates require a Stiefel target")
        vector = coords.phi
    elif isinstance(coords, GrassmannCoords):
        if g.manifold != "grassmann":
            raise ValueError("Grassmann coordinates require a Grassmann target")
        vector = coords.psi
    else:
        raise TypeError(f"unsupported coordinate type {type(coords)!r}")
    return PullbackTarget(g, coords.dims)(vector)


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
    are boundaries over the same kernels. `coords`, `point` and `frames`
    map vectors to typed coordinates and validated frames.
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
                    point = self.point(X[j])
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

    def value_and_gradient(self, vector: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
        """The pullback at a raw coordinate vector and its gradient, from one k x k factorization.

        On V(k,p) one guarded solve gives P = S^{-1} for S = I + A^T A - B,
        and with it the frame (Q1 = 2P - I, Q2 = 2AP) at which g and its
        `grad_fn` are evaluated, and the adjoint gradient
        (`jacobian.stiefel_gradient`); log J is the same slogdet as the
        value's. On G(k,p) one eigendecomposition of A^T A gives log J, the
        frame and the gradient (`jacobian.grassmann_gradient`). The value
        equals `self(vector)` to rounding: the frame comes from another
        factorization. Outside the Grassmann domain, or where
        `GrassmannPoint` rejects the frame g needs, it returns (-inf, None);
        errors otherwise raise as the value's do.
        """
        if not self.has_gradient:
            raise ValueError(f"target {self.g.name!r} has an fn but no grad_fn")
        g, dims = self.g, self.dims
        if self._stiefel:
            A, AtA, B = self._stiefel_blocks(vector[None])
            S = self._eye + AtA - B
            log_j, oriented = stiefel_log_jacobian(S, dims.p, self._log_j_constant)
            require_oriented(oriented[0])
            A = A[0]
            P = np.linalg.solve(guard_resolvent(S[0], "PullbackTarget.value_and_gradient"),
                                self._eye)
            value = float(log_j[0])
            if g.fn is None:
                return _not_nan(value), stiefel_gradient(A, P, dims.p)
            point = StiefelPoint(dims=dims, Q=np.concatenate([2.0 * P - self._eye, 2.0 * A @ P]))
            return (_not_nan(g(point) + value),
                    stiefel_gradient(A, P, dims.p, g.grad_fn(point)))
        A = self._a_stack(vector[None])[0]
        lam, V = grassmann_spectrum(A, "PullbackTarget.value_and_gradient", vectors=True,
                                    in_domain=False)
        if not in_grassmann_domain(lam[-1]):
            return -math.inf, None
        value = float(_log_jacobian_lowrank(lam, dims.p, dims.k))
        if g.fn is None:
            return _not_nan(value), grassmann_gradient(A, lam, V, dims.p)
        try:
            point = GrassmannPoint(dims=dims, Q=grassmann_frame(A, lam, V))
        except DomainError:
            return -math.inf, None
        return _not_nan(g(point) + value), grassmann_gradient(A, lam, V, dims.p, g.grad_fn(point))

    def gradient(self, vector: np.ndarray) -> np.ndarray:
        """Gradient of the pullback log density at a coordinate vector (`value_and_gradient`).

        Where the value is -inf (outside the Grassmann domain) it raises DomainError.
        """
        value, grad = self.value_and_gradient(vector)
        if grad is None:
            raise DomainError("PullbackTarget.gradient: coordinates outside the domain")
        return grad


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
        """The CDF at x: a float for a scalar, an array of x's shape otherwise."""
        x = np.asarray(x, dtype=float)
        out = 0.5 + 0.5 * np.sign(x) * special.betainc(0.5, self._b, np.minimum(x * x, 1.0))
        return float(out) if out.ndim == 0 else out


def entry_marginal_log_pdf(x: float, p: int) -> float:
    """Log of the normalized single-entry marginal density at x."""
    return EntryMarginal(p).log_pdf(x)
