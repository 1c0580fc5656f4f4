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
from scipy import integrate

from .cayley import (
    GrassmannCoords,
    GrassmannPoint,
    ManifoldDims,
    StiefelCoords,
    StiefelPoint,
    cayley_forward_grassmann,
    cayley_forward_stiefel,
)
from .errors import ConditioningError, DomainError
from .jacobian import (
    derivative_stiefel,
    grad_log_jacobian_stiefel,
    log_jacobian_block_grassmann,
    log_jacobian_stiefel,
)

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
    pullback is the log-Jacobian alone. `grad_fn`, when given, returns the
    p x k matrix of partial derivatives of the log density with respect to
    the entries of Q; it enables gradient-based proposals in the samplers.
    """

    fn: Optional[Callable[[Point], float]]
    manifold: str  # "stiefel" | "grassmann"
    name: str = "custom"
    grad_fn: Callable[[Point], np.ndarray] = None

    def __post_init__(self):
        if self.manifold not in ("stiefel", "grassmann"):
            raise ValueError(f"unknown manifold tag {self.manifold!r}")

    def __call__(self, point: Point) -> float:
        return 0.0 if self.fn is None else float(self.fn(point))


def uniform_log_density(manifold: str = "stiefel") -> LogDensity:
    """The constant-zero log density: the uniform distribution."""
    return LogDensity(fn=None, manifold=manifold, name="uniform",
                      grad_fn=lambda point: np.zeros_like(point.Q))


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
    Metropolis proposal there is rejected naturally); numerical failures
    inside the domain, a NaN value among them, raise ConditioningError
    instead of masking bugs as rejections.
    """
    if isinstance(coords, StiefelCoords):
        if g.manifold != "stiefel":
            raise ValueError("Stiefel coordinates require a Stiefel target")
        log_j = log_jacobian_stiefel(coords)
        forward = cayley_forward_stiefel
    elif isinstance(coords, GrassmannCoords):
        if g.manifold != "grassmann":
            raise ValueError("Grassmann coordinates require a Grassmann target")
        try:
            log_j = log_jacobian_block_grassmann(coords)
        except DomainError:
            return -np.inf
        forward = cayley_forward_grassmann
    else:
        raise TypeError(f"unsupported coordinate type {type(coords)!r}")
    # A constant manifold density (fn unset) pulls back to the Jacobian alone.
    value = log_j if g.fn is None else g(forward(coords)) + log_j
    if math.isnan(value):
        raise ConditioningError("pullback_log_density: log target is NaN")
    return value


class PullbackTarget:
    """Callable pullback of a manifold log density to coordinate vectors.

    Bundles the target density with the manifold dimensions so samplers can
    work with raw vectors; also maps vectors back to typed coordinates and
    manifold points.
    """

    def __init__(self, g: LogDensity, dims: ManifoldDims):
        self.g = g
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.dims.d_v if self.g.manifold == "stiefel" else self.dims.d_g

    @property
    def n_b(self) -> int:
        return self.dims.n_b if self.g.manifold == "stiefel" else 0

    def coords(self, vector: np.ndarray) -> Coords:
        if self.g.manifold == "stiefel":
            return StiefelCoords.from_vector(self.dims, vector)
        return GrassmannCoords.from_vector(self.dims, vector)

    def point(self, vector: np.ndarray) -> Point:
        c = self.coords(vector)
        if isinstance(c, StiefelCoords):
            return cayley_forward_stiefel(c)
        return cayley_forward_grassmann(c)

    def __call__(self, vector: np.ndarray) -> float:
        return pullback_log_density(self.g, self.coords(vector))

    @property
    def has_gradient(self) -> bool:
        """Analytic gradients exist for full-frame targets with a grad_fn."""
        return self.g.manifold == "stiefel" and self.g.grad_fn is not None

    def gradient(self, vector: np.ndarray) -> np.ndarray:
        """Gradient of the pullback log density at a coordinate vector.

        The manifold part goes through the chain rule with the derivative
        matrix of the forward map; the Jacobian part has a closed-form
        gradient. Only available on the full-frame parametrization.
        """
        if not self.has_gradient:
            raise ValueError("no analytic gradient available for this target")
        coords = self.coords(vector)
        grad = grad_log_jacobian_stiefel(coords)
        if self.g.fn is not None:
            point = cayley_forward_stiefel(coords)
            D = derivative_stiefel(coords).matrix
            grad = grad + D.T @ self.g.grad_fn(point).reshape(-1, order="F")
        return grad


class EntryMarginal:
    """Exact marginal density of a single entry of a uniform frame.

    f(x) is proportional to (1 - x^2)^((p-3)/2) on (-1, 1): any single
    entry of Q is an entry of a uniformly distributed unit vector in R^p.
    The normalizing constant and CDF grid come from numerical quadrature.
    """

    def __init__(self, p: int, k: int):
        if p - k < 1:
            raise ValueError("require p - k >= 1")
        self.p = p
        self.k = k
        self.exponent = 0.5 * (p - 3)
        self._norm = integrate.quad(self._unnormalized, -1.0, 1.0)[0]

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
        out = np.empty_like(x)
        for i, xi in enumerate(x):
            if xi <= -1.0:
                out[i] = 0.0
            elif xi >= 1.0:
                out[i] = 1.0
            else:
                out[i] = integrate.quad(self._unnormalized, -1.0, xi)[0] / self._norm
        return out if out.size > 1 else float(out[0])


def entry_marginal_log_pdf(x: float, p: int, k: int) -> float:
    """Log of the normalized single-entry marginal density at x."""
    return EntryMarginal(p, k).log_pdf(x)
