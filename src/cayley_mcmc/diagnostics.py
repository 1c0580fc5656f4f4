"""Reference oracles and chain-quality diagnostics.

Includes exact Haar sampling by Gram-Schmidt (QR with positive diagonal),
the Gaussian coupling construction for the normal-approximation study,
columnwise principal angles, and KS/ACF/ESS summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cayley import ManifoldDims, StiefelPoint, cayley_inverse_stiefel
from .special_matrices import vec, vech_strict

__all__ = [
    "CouplingResult",
    "ChainDiagnostics",
    "haar_stiefel",
    "haar_stiefel_coupled",
    "approx_inverse_cayley",
    "scale_matrix_apply",
    "coupling_epsilon",
    "principal_angles",
    "ks_statistic",
    "acf_ess",
]


def haar_stiefel_coupled(p: int, k: int, rng: np.random.Generator):
    """A Haar frame together with the Gaussian matrix it was built from.

    Gram-Schmidt is applied via QR with the diagonal of R forced positive;
    the sign fix is what makes the output exactly Haar rather than uniform
    only up to column signs.
    """
    dims = ManifoldDims(p, k)
    Z = rng.standard_normal((p, k))
    Q, R = np.linalg.qr(Z)
    d = np.sign(np.diag(R))
    if np.any(d == 0):
        raise ArithmeticError("rank-deficient Gaussian draw (probability zero)")
    Q = Q * d
    return StiefelPoint(dims=dims, Q=Q), Z


def haar_stiefel(p: int, k: int, rng: np.random.Generator) -> StiefelPoint:
    """A uniformly distributed p x k orthonormal frame."""
    return haar_stiefel_coupled(p, k, rng)[0]


def approx_inverse_cayley(M: np.ndarray) -> np.ndarray:
    """First-order approximation to the inverse Cayley transform.

    Returns (b~, vec(M2)) with b~ the strictly subdiagonal entries of
    M1 - M1^T, where M1 is the top square block of M.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] <= M.shape[1]:
        raise ValueError(f"expected a tall p x k matrix, got shape {M.shape}")
    k = M.shape[1]
    M1 = M[:k, :]
    M2 = M[k:, :]
    return np.concatenate([vech_strict(M1 - M1.T), vec(M2)])


def scale_matrix_apply(v: np.ndarray, p: int, k: int) -> np.ndarray:
    """Apply the diagonal scaling: sqrt(p/2) on the b block, sqrt(p) on the rest."""
    dims = ManifoldDims(p, k)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (dims.d_v,):
        raise ValueError(f"vector has shape {v.shape}, expected ({dims.d_v},)")
    out = v.copy()
    out[:dims.n_b] *= np.sqrt(p / 2.0)
    out[dims.n_b:] *= np.sqrt(p)
    return out


@dataclass(frozen=True)
class CouplingResult:
    """One replicate of the coupled (Gaussian, Haar) construction."""

    p: int
    k: int
    epsilon: float
    phi_scaled: np.ndarray
    z: np.ndarray


def coupling_epsilon(p: int, k: int, rng: np.random.Generator) -> CouplingResult:
    """Sup-norm distance between scaled Cayley coordinates and their Gaussian match.

    Draws (Z, Q) coupled through Gram-Schmidt, sets z from the approximate
    inverse of p^{-1/2} Z (whose entries are exactly standard normal) and
    phi from the exact inverse of Q, and reports ||Pi phi - z||_inf.
    """
    Q, Z = haar_stiefel_coupled(p, k, rng)
    phi = cayley_inverse_stiefel(Q).phi
    phi_scaled = scale_matrix_apply(phi, p, k)
    z = scale_matrix_apply(approx_inverse_cayley(Z / np.sqrt(p)), p, k)
    eps = float(np.max(np.abs(phi_scaled - z)))
    return CouplingResult(p=p, k=k, epsilon=eps, phi_scaled=phi_scaled, z=z)


def principal_angles(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Columnwise angles arccos(|q_j . v_j| / (||q_j|| ||v_j||)) in [0, pi/2].

    These compare matched columns of two frames (invariant to column sign
    flips), not the subspace principal angles of the column spaces.
    """
    Q = np.asarray(Q, dtype=float)
    V = np.asarray(V, dtype=float)
    if Q.shape != V.shape:
        raise ValueError(f"shape mismatch: {Q.shape} vs {V.shape}")
    qn = np.linalg.norm(Q, axis=0)
    vn = np.linalg.norm(V, axis=0)
    if np.any(qn == 0) or np.any(vn == 0):
        raise ValueError("zero-norm column")
    cos = np.abs(np.einsum("ij,ij->j", Q, V)) / (qn * vn)
    return np.arccos(np.clip(cos, 0.0, 1.0))


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF and `cdf`."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    F = np.atleast_1d(np.asarray(cdf(x), dtype=float))
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(F - grid)), np.max(np.abs(F - (grid - 1.0 / n)))))


@dataclass(frozen=True)
class ChainDiagnostics:
    """Autocorrelations and effective sample size."""

    acf: np.ndarray
    ess: float


def acf_ess(samples: np.ndarray, max_lag: Optional[int] = None) -> ChainDiagnostics:
    """ACF via mean-removed autocovariances; ESS with initial-positive truncation.

    ESS = n / (1 + 2 sum of positive-lag autocorrelations up to the first
    negative one).
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    if max_lag is None:
        max_lag = min(n - 1, 200)
    xc = x - x.mean()
    var = float(xc @ xc) / n
    if var == 0.0:
        raise ValueError("constant sequence has no ESS")
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for lag in range(1, max_lag + 1):
        acf[lag] = float(xc[:-lag] @ xc[lag:]) / n / var
    tail = 0.0
    for lag in range(1, max_lag + 1):
        if acf[lag] <= 0:
            break
        tail += acf[lag]
    ess = n / (1.0 + 2.0 * tail)
    return ChainDiagnostics(acf=acf, ess=float(min(ess, n)))
