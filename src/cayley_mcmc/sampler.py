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

The random walk prefetches. Its noise does not depend on the chain's
state, so from the current state the next LOOKAHEAD proposals on the
all-reject path are known; one stacked target call (`PullbackTarget.rows`)
evaluates them, and the steps take the rows in order up to the first
acceptance. The generator's stream and every draw equal those of one
`mh_step` per step, which stays the one-step kernel (and the tests'
oracle). A row's errors surface only if the chain reaches it.

Validation happens at the boundary, once: `run_chain` checks the initial
vector's shape, and after the chain maps every kept draw in one stacked
forward map and validates the frames in one pass of every
`StiefelPoint`/`GrassmannPoint` check. In between, the target evaluates raw
vectors through the per-shape plan its constructor built; the random-walk
scale vector is built once per run. `run_chain` also returns deterministic
counters (`RunCounters`): steps, accepts, domain exits and target rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import GrassmannPoint, StiefelPoint, cayley_inverse_grassmann, cayley_inverse_stiefel
from .densities import PullbackTarget

__all__ = [
    "ProposalConfig",
    "RunConfig",
    "ChainState",
    "SampleBatch",
    "RunCounters",
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
    """Current position, cached log target, and step counters.

    `exit_count` counts steps rejected because the target left its domain
    (-inf), `eval_count` target evaluations.
    """

    vector: np.ndarray
    log_target: float
    accept_count: int = 0
    step_count: int = 0
    exit_count: int = 0
    eval_count: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.step_count if self.step_count else 0.0


@dataclass(frozen=True)
class SampleBatch:
    """Retained draws (coordinates and mapped frames), acceptance, final scale and counters."""

    coords_draws: np.ndarray  # (n_draws, d)
    manifold_draws: np.ndarray  # (n_draws, p, k)
    acceptance_rate: float
    final_scale: float
    counters: "RunCounters"


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
    exits = state.exit_count + (log_target == -np.inf)
    if log_target - state.log_target > log_u:
        return ChainState(candidate, log_target, state.accept_count + 1, state.step_count + 1,
                          exits, state.eval_count + 1)
    return ChainState(state.vector, state.log_target, state.accept_count, state.step_count + 1,
                      exits, state.eval_count + 1)


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
            return ChainState(state.vector, state.log_target, state.accept_count,
                              state.step_count + 1, state.exit_count + 1,
                              state.eval_count + step + 1)
        grad = target.gradient(x)
        mom = mom + (scale if step < proposal.leapfrog_steps - 1 else 0.5 * scale) * grad
    h1 = -lp + 0.5 * mom @ mom

    log_u = np.log(rng.uniform())
    evals = state.eval_count + proposal.leapfrog_steps
    if h0 - h1 > log_u:
        return ChainState(x, lp, state.accept_count + 1, state.step_count + 1,
                          state.exit_count, evals)
    return ChainState(state.vector, state.log_target, state.accept_count, state.step_count + 1,
                      state.exit_count, evals)


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


# Rows of the all-reject path that one stacked target call evaluates. Once
# burn-in has tuned the scale, a random-walk step accepts with probability
# about a* = 0.3, and a block ends at its first acceptance, so a block of M
# rows advances the chain by (1 - 0.7^M) / 0.3 steps on average. The limit
# M -> inf is 1/a* = 3.33 steps per call; M = 8 reaches 3.14 (94 %), while
# every row past the acceptance is evaluated for nothing.
LOOKAHEAD = 8


@dataclass(frozen=True)
class RunCounters:
    """Deterministic counts of one chain, burn-in included; they depend only on the seed."""

    steps: int
    accepts: int
    domain_exits: int  # proposals rejected because the target left its domain
    target_rows: int  # target evaluations, counting prefetched rows no step used


def _adapted(scale: float, t: int, accepted: float, target_acceptance: float) -> float:
    """The Robbins-Monro burn-in update of the scale after step t."""
    c_t = 1.0 / (t + 10.0) ** 0.6
    return scale * float(np.exp(c_t * (accepted - target_acceptance)))


def _leapfrog_chain(target, state, proposal, run, rng, coords):
    """Leapfrog steps one at a time; returns (scale, sampling accepts, counters)."""
    scale = proposal.scale
    sampling_accepts = 0
    for t in range(run.iterations):
        before = state.accept_count
        state = leapfrog_step(state, target, proposal, rng, scale=scale)
        accepted = state.accept_count > before
        if t < run.burn_in:
            scale = _adapted(scale, t, float(accepted), 0.7)
        else:
            sampling_accepts += accepted
            if (t - run.burn_in + 1) % run.thin == 0:
                coords[(t - run.burn_in + 1) // run.thin - 1] = state.vector
    counters = RunCounters(steps=state.step_count, accepts=state.accept_count,
                           domain_exits=state.exit_count, target_rows=state.eval_count)
    return scale, sampling_accepts, counters


def _random_walk_chain(target, state, proposal, run, rng, coords):
    """Random-walk steps with prefetch; returns (scale, sampling accepts, counters).

    The noise eps_t and the accept variate u_t of a random-walk step do not
    depend on the chain's state, so from the current state the next
    LOOKAHEAD candidates on the all-reject path are known in advance:
    x + s_t (eps_t * c), with s_t the scale after the rejections before it.
    One stacked target call evaluates them all, and the steps then take the
    rows in order up to the first acceptance. The noise is drawn per step in
    the order `mh_step` draws it (eps_t, then u_t), and noise a block drew
    past its acceptance is kept for the next block, so the generator's
    stream, the scales and the chain are those of one `mh_step` per step.
    """
    c = coordinate_scales(target, proposal)
    burn_in, thin = run.burn_in, run.thin
    x, lp = state.vector, state.log_target
    scale = proposal.scale
    # Noise (eps_t, u_t) drawn for the steps not yet taken, in step order.
    eps, u = np.empty((LOOKAHEAD, target.dim)), [0.0] * LOOKAHEAD
    drawn = steps = accepts = exits = rows = sampling_accepts = 0
    while steps < run.iterations:
        m = min(LOOKAHEAD, run.iterations - steps)
        for i in range(drawn, m):
            rng.standard_normal(out=eps[i])
            u[i] = rng.random()
        drawn = max(drawn, m)
        if steps < burn_in:
            # Burn-in shrinks the scale after each rejection on the all-reject path.
            path = [scale]
            for t in range(steps, steps + m - 1):
                path.append(_adapted(path[-1], t, 0.0, 0.3) if t < burn_in else path[-1])
            row_scale = np.array(path)[:, None]
        else:
            row_scale = scale
        X = x + row_scale * (eps[:m] * c)
        value = target.rows(X)
        rows += m
        for j in range(m):
            t = steps
            lp_j = value(j)
            accepted = bool(lp_j - lp > np.log(u[j]))
            steps += 1
            exits += lp_j == -np.inf
            if accepted:
                x, lp = X[j], lp_j
                accepts += 1
            if t < burn_in:
                scale = _adapted(scale, t, float(accepted), 0.3)
            else:
                sampling_accepts += accepted
                if (t - burn_in + 1) % thin == 0:
                    coords[(t - burn_in + 1) // thin - 1] = x
            if accepted:
                break
        used = j + 1
        drawn -= used
        eps[:drawn] = eps[used:used + drawn]
        u[:drawn] = u[used:used + drawn]
    counters = RunCounters(steps=steps, accepts=accepts, domain_exits=exits, target_rows=rows)
    return scale, sampling_accepts, counters


def run_chain(target: PullbackTarget, init: np.ndarray, proposal: ProposalConfig,
              run: RunConfig) -> SampleBatch:
    """Burn-in with Robbins-Monro scale adaptation, then sampling.

    Adaptation multiplies the proposal scale by exp(c_t (a_t - a*)) with
    c_t ~ t^{-0.6}, where a* is 0.3 for the random walk and 0.7 for
    leapfrog, during burn-in only; the scale is frozen afterwards so the
    sampling phase is a genuine Markov chain.

    The random walk prefetches: each stacked target call evaluates the
    next LOOKAHEAD proposals on the all-reject path, with the chain equal
    to the byte to one `mh_step` per step (see `_random_walk_chain`).
    Leapfrog runs one `leapfrog_step` per step. Kept draws are mapped to
    frames after the chain, in one stacked forward map and one validation
    pass (`PullbackTarget.frames`); an invalid kept draw raises then.
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    if init.shape != (target.dim,):
        raise ValueError(f"init has shape {init.shape}, expected ({target.dim},)")
    lp0 = target(init)
    if not np.isfinite(lp0):
        raise ValueError("initial coordinates have non-finite log target")

    rng = np.random.Generator(np.random.PCG64(run.seed))
    chain = _leapfrog_chain if proposal.kind == "leapfrog" else _random_walk_chain
    n_keep = (run.iterations - run.burn_in) // run.thin
    coords = np.empty((n_keep, target.dim))
    scale, sampling_accepts, counters = chain(target, ChainState(init, lp0), proposal, run, rng,
                                              coords)
    return SampleBatch(
        coords_draws=coords,
        manifold_draws=target.frames(coords),
        acceptance_rate=sampling_accepts / (run.iterations - run.burn_in),
        final_scale=scale,
        counters=counters,
    )


def init_from_manifold(Q) -> np.ndarray:
    """Coordinate vector of a manifold point, via the matching inverse map."""
    if isinstance(Q, StiefelPoint):
        return cayley_inverse_stiefel(Q).phi
    if isinstance(Q, GrassmannPoint):
        return cayley_inverse_grassmann(Q).psi
    raise TypeError(f"unsupported point type {type(Q)!r}")
