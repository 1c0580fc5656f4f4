"""Metropolis-Hastings sampling in the Euclidean Cayley coordinates.

The chain lives in the unconstrained (Stiefel) or eigenvalue-constrained
(Grassmann) coordinate space; draws are mapped back to orthogonal matrices
with the forward Cayley transform. Proposals are isotropic Gaussian random
walks (optionally with separate scales for the skew-block and A-block
coordinates) or leapfrog trajectories. Leapfrog uses the target's analytic
gradient where it has one (Stiefel targets with a `grad_fn`) and central
finite differences otherwise (Grassmann targets, and Stiefel targets
without a `grad_fn`).

Randomness comes from numpy's PCG64 generator seeded explicitly, so runs
are deterministic given (seed, config, target).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cayley import GrassmannPoint, StiefelPoint, cayley_inverse_grassmann, cayley_inverse_stiefel
from .densities import PullbackTarget

__all__ = [
    "ProposalConfig",
    "RunConfig",
    "ChainState",
    "SampleBatch",
    "mh_step",
    "leapfrog_step",
    "run_chain",
    "init_from_manifold",
]


@dataclass(frozen=True)
class ProposalConfig:
    """Proposal settings for one chain."""

    kind: str = "random-walk-gaussian"  # or "leapfrog"
    scale: float = 0.1
    per_block_scales: Optional[tuple[float, float]] = None  # (b block, A block)
    leapfrog_steps: int = 10
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.kind not in ("random-walk-gaussian", "leapfrog"):
            raise ValueError(f"unknown proposal kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Chain length, burn-in, thinning, seed, and adaptation settings."""

    iterations: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    adapt: bool = True
    target_acceptance: float = 0.3

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not (0.0 < self.target_acceptance < 1.0):
            raise ValueError("target_acceptance must lie in (0, 1)")


@dataclass(frozen=True)
class ChainState:
    """Current position, cached log target, and acceptance counters."""

    vector: np.ndarray
    log_target: float
    accept_count: int = 0
    step_count: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.step_count if self.step_count else 0.0


@dataclass(frozen=True)
class SampleBatch:
    """Retained draws (coordinates and mapped frames) plus run metadata."""

    coords_draws: np.ndarray  # (n_draws, d)
    manifold_draws: np.ndarray  # (n_draws, p, k)
    acceptance_rate: float
    seed: int
    proposal: ProposalConfig
    run: RunConfig
    final_scale: float = field(default=0.0)


def _block_step(target: PullbackTarget, proposal: ProposalConfig, scale: float,
                eps: np.ndarray) -> np.ndarray:
    """Scale a standard normal increment, blockwise when configured."""
    if proposal.per_block_scales is not None:
        n_b = target.n_b
        step = eps.copy()
        step[:n_b] *= proposal.per_block_scales[0]
        step[n_b:] *= proposal.per_block_scales[1]
        return scale * step
    return scale * eps


def mh_step(state: ChainState, target: PullbackTarget, proposal: ProposalConfig,
            rng: np.random.Generator, scale: Optional[float] = None) -> ChainState:
    """One random-walk Metropolis step; symmetric proposal, so no q-ratio.

    A proposal with -inf pullback (out-of-domain Grassmann coordinates) is
    always rejected. Numerical failures evaluating the target propagate.
    """
    if scale is None:
        scale = proposal.scale
    eps = rng.standard_normal(state.vector.shape[0])
    candidate = state.vector + _block_step(target, proposal, scale, eps)
    log_target = target(candidate)
    log_u = np.log(rng.uniform())
    if log_target - state.log_target > log_u:
        return ChainState(candidate, log_target, state.accept_count + 1, state.step_count + 1)
    return ChainState(state.vector, state.log_target, state.accept_count, state.step_count + 1)


def _fd_gradient(target: PullbackTarget, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of the pullback log target."""
    g = np.empty_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (target(x + e) - target(x - e)) / (2.0 * h)
    return g


def _gradient(target: PullbackTarget, x: np.ndarray, h: float) -> np.ndarray:
    """Analytic pullback gradient when the target provides one, else FD."""
    if getattr(target, "has_gradient", False):
        return target.gradient(x)
    return _fd_gradient(target, x, h)


def leapfrog_step(state: ChainState, target: PullbackTarget, proposal: ProposalConfig,
                  rng: np.random.Generator, scale: Optional[float] = None) -> ChainState:
    """One Hamiltonian proposal.

    Standard leapfrog with unit mass matrix and step size `scale`,
    Metropolis-corrected on the total energy. Gradients are analytic when
    the target has one and central finite differences otherwise.
    """
    if proposal.kind != "leapfrog":
        raise ValueError("leapfrog_step requires proposal.kind == 'leapfrog'")
    if scale is None:
        scale = proposal.scale
    x = state.vector.copy()
    mom = rng.standard_normal(x.shape[0])
    h0 = -state.log_target + 0.5 * mom @ mom

    grad = _gradient(target, x, proposal.fd_step)
    mom = mom + 0.5 * scale * grad
    for step in range(proposal.leapfrog_steps):
        x = x + scale * mom
        lp = target(x)
        if not np.isfinite(lp):
            # Left the domain mid-trajectory: reject outright.
            return ChainState(state.vector, state.log_target,
                              state.accept_count, state.step_count + 1)
        grad = _gradient(target, x, proposal.fd_step)
        mom = mom + (scale if step < proposal.leapfrog_steps - 1 else 0.5 * scale) * grad
    h1 = -lp + 0.5 * mom @ mom

    log_u = np.log(rng.uniform())
    if h0 - h1 > log_u:
        return ChainState(x, lp, state.accept_count + 1, state.step_count + 1)
    return ChainState(state.vector, state.log_target, state.accept_count, state.step_count + 1)


def run_chain(target: PullbackTarget, init: np.ndarray, proposal: ProposalConfig,
              run: RunConfig) -> SampleBatch:
    """Burn-in with optional Robbins-Monro scale adaptation, then sampling.

    Adaptation multiplies the proposal scale by exp(c_t (a_t - target_rate))
    with c_t ~ t^{-0.6}, during burn-in only; the scale is frozen afterwards
    so the sampling phase is a genuine Markov chain.
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    if init.shape[0] != target.dim:
        raise ValueError(f"init has length {init.shape[0]}, expected {target.dim}")
    lp0 = target(init)
    if not np.isfinite(lp0):
        raise ValueError("initial coordinates have non-finite log target")

    rng = np.random.Generator(np.random.PCG64(run.seed))
    step_fn = leapfrog_step if proposal.kind == "leapfrog" else mh_step
    state = ChainState(init, lp0)
    scale = proposal.scale

    for t in range(run.burn_in):
        before = state.accept_count
        state = step_fn(state, target, proposal, rng, scale=scale)
        if run.adapt:
            accepted = float(state.accept_count > before)
            c_t = 1.0 / (t + 10.0) ** 0.6
            scale *= float(np.exp(c_t * (accepted - run.target_acceptance)))

    n_keep = (run.iterations - run.burn_in) // run.thin
    d = target.dim
    coords = np.empty((n_keep, d))
    points = np.empty((n_keep, target.dims.p, target.dims.k))
    state = ChainState(state.vector, state.log_target)  # reset counters post burn-in
    kept = 0
    for t in range(run.iterations - run.burn_in):
        state = step_fn(state, target, proposal, rng, scale=scale)
        if (t + 1) % run.thin == 0 and kept < n_keep:
            coords[kept] = state.vector
            points[kept] = target.point(state.vector).Q
            kept += 1
    coords = coords[:kept]
    points = points[:kept]

    return SampleBatch(
        coords_draws=coords,
        manifold_draws=points,
        acceptance_rate=state.acceptance_rate,
        seed=run.seed,
        proposal=proposal,
        run=run,
        final_scale=scale,
    )


def init_from_manifold(Q) -> np.ndarray:
    """Coordinate vector of a manifold point, via the matching inverse map."""
    if isinstance(Q, StiefelPoint):
        return cayley_inverse_stiefel(Q).phi
    if isinstance(Q, GrassmannPoint):
        return cayley_inverse_grassmann(Q).psi
    raise TypeError(f"unsupported point type {type(Q)!r}")
