"""Metropolis-Hastings sampling in the Euclidean Cayley coordinates.

The chain lives in the unconstrained (Stiefel) or eigenvalue-constrained
(Grassmann) coordinate space; draws are mapped back to orthogonal matrices
with the forward Cayley transform. Proposals are isotropic Gaussian random
walks (optionally with separate scales for the skew-block and A-block
coordinates) or leapfrog trajectories. Leapfrog uses the target's analytic
pullback gradient, which exists on both manifolds for the uniform density
and for any density with a `grad_fn`.

The proposal kind fixes both the step function and the acceptance rate
that burn-in tunes the scale toward: 0.3 for the random walk, 0.7 for
leapfrog. Randomness comes from numpy's PCG64 generator seeded
explicitly, so runs are deterministic given (seed, config, target).

Validation happens at the boundary, once: `run_chain` checks the initial
vector's shape, and every kept draw is mapped to a validated
`StiefelPoint`/`GrassmannPoint`. In between, each step hands a raw vector
to the target, which evaluates it through the per-shape plan its
constructor built; the random-walk scale vector is built once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .cayley import GrassmannPoint, StiefelPoint, cayley_inverse_grassmann, cayley_inverse_stiefel
from .densities import PullbackTarget

__all__ = [
    "ProposalConfig",
    "RunConfig",
    "ChainState",
    "SampleBatch",
    "coordinate_scales",
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

    def __post_init__(self):
        if self.kind not in ("random-walk-gaussian", "leapfrog"):
            raise ValueError(f"unknown proposal kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Chain length, burn-in, thinning and seed."""

    iterations: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


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
    """Retained draws (coordinates and mapped frames), acceptance and final scale."""

    coords_draws: np.ndarray  # (n_draws, d)
    manifold_draws: np.ndarray  # (n_draws, p, k)
    acceptance_rate: float
    final_scale: float


def coordinate_scales(target: PullbackTarget, proposal: ProposalConfig) -> np.ndarray:
    """Per-coordinate multipliers of the random-walk increment.

    The skew-block and A-block scales on V(k,p) when `per_block_scales` is
    set, ones otherwise. `run_chain` builds this once per run.
    """
    scales = np.ones(target.dim)
    if proposal.per_block_scales is not None:
        scales[:target.n_b] = proposal.per_block_scales[0]
        scales[target.n_b:] = proposal.per_block_scales[1]
    return scales


def mh_step(state: ChainState, target: PullbackTarget, proposal: ProposalConfig,
            rng: np.random.Generator, scale: Optional[float] = None,
            coord_scales: Optional[np.ndarray] = None) -> ChainState:
    """One random-walk Metropolis step; symmetric proposal, so no q-ratio.

    The increment is scale * (eps * coord_scales) for standard normal eps;
    `coord_scales` defaults to `coordinate_scales(target, proposal)`. A
    proposal with -inf pullback (out-of-domain Grassmann coordinates) is
    always rejected. Numerical failures evaluating the target propagate.
    """
    if scale is None:
        scale = proposal.scale
    if coord_scales is None:
        coord_scales = coordinate_scales(target, proposal)
    eps = rng.standard_normal(state.vector.shape[0])
    candidate = state.vector + scale * (eps * coord_scales)
    log_target = target(candidate)
    # rng.random() is the double rng.uniform() draws before adding 0 and multiplying by 1;
    # it skips uniform()'s argument handling.
    log_u = np.log(rng.random())
    if log_target - state.log_target > log_u:
        return ChainState(candidate, log_target, state.accept_count + 1, state.step_count + 1)
    return ChainState(state.vector, state.log_target, state.accept_count, state.step_count + 1)


def leapfrog_step(state: ChainState, target: PullbackTarget, proposal: ProposalConfig,
                  rng: np.random.Generator, scale: Optional[float] = None) -> ChainState:
    """One Hamiltonian proposal.

    Standard leapfrog with unit mass matrix and step size `scale`,
    Metropolis-corrected on the total energy. A target whose density has
    an `fn` but no `grad_fn` raises ValueError before the first move.
    """
    if proposal.kind != "leapfrog":
        raise ValueError("leapfrog_step requires proposal.kind == 'leapfrog'")
    if scale is None:
        scale = proposal.scale
    x = state.vector.copy()
    mom = rng.standard_normal(x.shape[0])
    h0 = -state.log_target + 0.5 * mom @ mom

    grad = target.gradient(x)
    mom = mom + 0.5 * scale * grad
    for step in range(proposal.leapfrog_steps):
        x = x + scale * mom
        lp = target(x)
        if not np.isfinite(lp):
            # Left the domain mid-trajectory: reject outright.
            return ChainState(state.vector, state.log_target,
                              state.accept_count, state.step_count + 1)
        grad = target.gradient(x)
        mom = mom + (scale if step < proposal.leapfrog_steps - 1 else 0.5 * scale) * grad
    h1 = -lp + 0.5 * mom @ mom

    log_u = np.log(rng.uniform())
    if h0 - h1 > log_u:
        return ChainState(x, lp, state.accept_count + 1, state.step_count + 1)
    return ChainState(state.vector, state.log_target, state.accept_count, state.step_count + 1)


def default_proposal(target: PullbackTarget, kind: str = "random-walk-gaussian",
                     scale: Optional[float] = None) -> ProposalConfig:
    """The package's default proposal scaling for `target`.

    Scale 2.38/sqrt(d) unless `scale` is given and, on V(k,p), random-walk
    block scales (sqrt(2/p), sqrt(1/p)) for the skew block and the A block.
    """
    if scale is None:
        scale = 2.38 / np.sqrt(target.dim)
    p = target.dims.p
    per_block = (np.sqrt(2.0 / p), np.sqrt(1.0 / p)) if target.g.manifold == "stiefel" else None
    return ProposalConfig(kind=kind, scale=scale, per_block_scales=per_block)


def run_chain(target: PullbackTarget, init: np.ndarray, proposal: ProposalConfig,
              run: RunConfig) -> SampleBatch:
    """Burn-in with Robbins-Monro scale adaptation, then sampling.

    Adaptation multiplies the proposal scale by exp(c_t (a_t - a*)) with
    c_t ~ t^{-0.6}, where a* is 0.3 for the random walk and 0.7 for
    leapfrog, during burn-in only; the scale is frozen afterwards so the
    sampling phase is a genuine Markov chain.
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    if init.shape != (target.dim,):
        raise ValueError(f"init has shape {init.shape}, expected ({target.dim},)")
    lp0 = target(init)
    if not np.isfinite(lp0):
        raise ValueError("initial coordinates have non-finite log target")

    rng = np.random.Generator(np.random.PCG64(run.seed))
    # The step function and the acceptance rate burn-in tunes toward, per kind.
    # Looked up per call, so a step function replaced on the module is used.
    if proposal.kind == "leapfrog":
        step_fn, target_acceptance = leapfrog_step, 0.7
    else:
        step_fn = partial(mh_step, coord_scales=coordinate_scales(target, proposal))
        target_acceptance = 0.3
    state = ChainState(init, lp0)
    scale = proposal.scale

    for t in range(run.burn_in):
        before = state.accept_count
        state = step_fn(state, target, proposal, rng, scale=scale)
        accepted = float(state.accept_count > before)
        c_t = 1.0 / (t + 10.0) ** 0.6
        scale *= float(np.exp(c_t * (accepted - target_acceptance)))

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
        final_scale=scale,
    )


def init_from_manifold(Q) -> np.ndarray:
    """Coordinate vector of a manifold point, via the matching inverse map."""
    if isinstance(Q, StiefelPoint):
        return cayley_inverse_stiefel(Q).phi
    if isinstance(Q, GrassmannPoint):
        return cayley_inverse_grassmann(Q).psi
    raise TypeError(f"unsupported point type {type(Q)!r}")
