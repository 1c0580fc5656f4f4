"""Metropolis-Hastings sampling in the Euclidean Cayley coordinates.

The chain lives in the unconstrained (Stiefel) or eigenvalue-constrained
(Grassmann) coordinate space; draws are mapped back to orthogonal matrices
with the forward Cayley transform. Proposals are isotropic Gaussian random
walks (optionally with separate scales for the skew-block and A-block
coordinates) or leapfrog trajectories. Leapfrog uses the target's analytic
pullback gradient, which exists on V(k,p) only, for the uniform density
and for any density with a `value_and_grad_fn` (`has_gradient`), and the
chain state carries the gradient to the next trajectory. On G(k,p) it
raises ValueError before its first move: a trajectory that reaches the
edge lambda_max(A^T A) = 1 of the domain would need a wall that reflects
it, and none is built.

`run_chains` runs n chains from n starting vectors, chain i seeded
seed + i; `run_chain` is its one-chain case. Leapfrog chains advance in
lockstep (`_leapfrog_lockstep`): each leapfrog position of all the chains
still moving is one stacked fused call
(`PullbackTarget.values_and_gradients`): at k x k sizes numpy's per-call
overhead dominates, so a row added to a stack costs far less than a call.
Positions and momenta stay per-chain vectors: at two chains, whole-stack
updates cost as much as the per-row calls they replace. Each
chain keeps its own generator, its own dual-averaging step and its own
trajectory length; a chain whose trajectory has ended, or left the
domain, sits idle until the others finish theirs. Every stacked row
equals its one-row call bit for bit, so each chain's draws equal, to the
byte, the chain run alone, and a single chain is the lockstep of one.

The random walk prefetches instead; its chains run one after the other.
Its noise does not depend on the chain's state, so from the current state
the next LOOKAHEAD proposals on the all-reject path are known; one stacked
target call (`PullbackTarget.rows`) evaluates them, and the steps take the
rows in order up to the first acceptance. The generator's stream and every
draw equal those of one `mh_step` per step, which stays the one-step
kernel (and the tests' oracle). A row's errors surface only if the chain
reaches it.

The proposal kind fixes both the step function and the acceptance rate
that burn-in tunes the scale toward: 0.3 for the random walk, 0.7 for
leapfrog. The random walk adapts by Robbins-Monro on the accept
indicator; leapfrog by dual averaging on the acceptance probability, with
trajectories of a fixed, jittered path length (see `_leapfrog_chains`).
The random walk keeps Robbins-Monro because its prefetch needs each
row's scale before the row is evaluated, which dual averaging's update,
driven by the row's acceptance probability, cannot give. Randomness comes
from numpy's PCG64 generator seeded explicitly, so runs are deterministic
given (seed, config, target).

Validation happens at the boundary, once: `run_chains` checks the initial
vectors' shape, and after the chains maps each chain's kept draws in one
stacked forward map and validates the frames in one pass of every
`StiefelPoint`/`GrassmannPoint` check. Only one hook reaches into a
running chain: a sink for chain 0's kept draws, told the count of rows
stored after each one, through which `experiments.DrawsWriter` has a
second process format every row of draws.csv while the chain runs. In
between, the target evaluates raw vectors through the per-shape plan its
constructor built; the random-walk scale vector is built once per run.
Each chain also returns deterministic counters (`RunCounters`): steps,
accepts, domain exits and target rows.
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
    "run_chains",
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
    (-inf), `eval_count` target evaluations. Leapfrog also carries the
    position's gradient in `grad` (None until first computed), so that each
    position costs one fused value-and-gradient row, and records in
    `accept_prob` the Metropolis acceptance probability of the step that
    produced the state (0 for a domain exit), which dual averaging reads.
    """

    vector: np.ndarray
    log_target: float
    accept_count: int = 0
    step_count: int = 0
    exit_count: int = 0
    eval_count: int = 0
    grad: Optional[np.ndarray] = None
    accept_prob: float = 0.0


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
                  rng: np.random.Generator, scale: Optional[float] = None,
                  steps: Optional[int] = None) -> ChainState:
    """One Hamiltonian proposal of `steps` leapfrog steps (default `proposal.leapfrog_steps`).

    Standard leapfrog with unit mass matrix and step size `scale`,
    Metropolis-corrected on the total energy: the one-chain case of
    `_leapfrog_lockstep`. A target without a gradient (`has_gradient`: a
    G(k,p) target, or a density with an `fn` but no `value_and_grad_fn`)
    raises ValueError before the first move.
    """
    if proposal.kind != "leapfrog":
        raise ValueError("leapfrog_step requires proposal.kind == 'leapfrog'")
    if scale is None:
        scale = proposal.scale
    if steps is None:
        steps = proposal.leapfrog_steps
    if steps < 1:
        raise ValueError("a trajectory needs at least one leapfrog step")
    return _leapfrog_lockstep([state], target, [rng], [scale], [steps])[0]


def _leapfrog_lockstep(states: list[ChainState], target: PullbackTarget,
                       rngs: list[np.random.Generator], scales: list[float],
                       steps: list[int]) -> list[ChainState]:
    """One leapfrog proposal for each of n chains, advanced in lockstep.

    Chain i takes steps[i] leapfrog steps of size scales[i] from its state
    and draws from rngs[i]: its momentum, then (unless it left the domain)
    its accept variate. The start's gradient is taken from the state's
    `grad`, or computed (and counted) once if it is None. At each position
    one stacked `target.values_and_gradients` call evaluates every chain
    still moving; a chain whose trajectory has ended, or that reached a
    position where the target is -inf (a domain exit: rejected outright,
    with acceptance probability 0), sits idle.

    Each chain's position and momentum are its own vectors. At each position
    chain i's `x + eps * mom` is written into its row of the stacked call's
    input, and its momentum steps to `mom + c * G`, its row of the stacked
    gradient times c, where c is eps, or 0.5 * eps at the chain's last (half)
    step. These are the products and sums the chain alone computes, so each
    result is the same, to the byte, as a lockstep of one.
    """
    n = len(states)
    evals = [state.eval_count for state in states]
    grad0 = []
    for i, state in enumerate(states):
        grad = state.grad
        if grad is None:
            grad = target.gradient(state.vector)
            evals[i] += 1
        grad0.append(grad)
    xs = [state.vector for state in states]
    h0, moms = [], []
    for state, rng, scale, grad in zip(states, rngs, scales, grad0):
        mom = rng.standard_normal(state.vector.shape[0])
        h0.append(-state.log_target + 0.5 * mom @ mom)
        moms.append(mom + 0.5 * scale * grad)
    # Each chain's value and gradient at its last position, where it stops.
    lps, grads = [0.0] * n, [None] * n
    exited = [False] * n
    moving = range(n)
    for step in range(max(steps)):
        moving = [i for i in moving if step < steps[i] and not exited[i]]
        if not moving:
            break
        X = np.empty((len(moving), target.dim))
        for row, i in enumerate(moving):
            xs[i] = np.add(xs[i], scales[i] * moms[i], out=X[row])
        values, gradients = target.values_and_gradients(X)
        for row, (i, value) in enumerate(zip(moving, values.tolist())):
            if value == -np.inf:
                # Left the domain mid-trajectory: reject outright.
                exited[i] = True
                evals[i] += step + 1
            elif step < steps[i] - 1:
                moms[i] = moms[i] + scales[i] * gradients[row]
            else:
                # The last step is a half step.
                moms[i] = moms[i] + 0.5 * scales[i] * gradients[row]
                lps[i], grads[i] = value, gradients[row]

    new_states = []
    for i, state in enumerate(states):
        if exited[i]:
            new_states.append(ChainState(state.vector, state.log_target, state.accept_count,
                                         state.step_count + 1, state.exit_count + 1, evals[i],
                                         grad0[i], 0.0))
            continue
        mom = moms[i]
        h1 = -lps[i] + 0.5 * mom @ mom
        # exp(min(0, .)) cannot overflow; a NaN energy (an overflowing momentum) accepts never.
        accept_prob = float(np.exp(min(0.0, h0[i] - h1))) if not np.isnan(h1) else 0.0
        log_u = np.log(rngs[i].uniform())
        evals[i] += steps[i]
        if h0[i] - h1 > log_u:
            new_states.append(ChainState(xs[i], lps[i], state.accept_count + 1,
                                         state.step_count + 1, state.exit_count, evals[i],
                                         grads[i], accept_prob))
        else:
            new_states.append(ChainState(state.vector, state.log_target, state.accept_count,
                                         state.step_count + 1, state.exit_count, evals[i],
                                         grad0[i], accept_prob))
    return new_states


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
    # Target evaluations, counting prefetched rows no step used; for leapfrog,
    # fused value-and-gradient calls (one per position, plus the start's).
    target_rows: int


def _adapted(scale: float, t: int, accepted: float, target_acceptance: float) -> float:
    """The Robbins-Monro burn-in update of the random-walk scale after step t."""
    c_t = 1.0 / (t + 10.0) ** 0.6
    return scale * float(np.exp(c_t * (accepted - target_acceptance)))


# Dual averaging of the leapfrog step in burn-in (Hoffman & Gelman 2014, arXiv
# 1111.4246, section 3.2): shrinkage target mu = log(10 eps_0), shrinkage
# GAMMA, early-iteration damping T0, averaging decay KAPPA, and the
# acceptance probability DELTA it aims at.
DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75
DA_DELTA = 0.7
# A trajectory has at most this many times the nominal leapfrog_steps, so a
# step that burn-in drives toward 0 (a domain wall) cannot stall the chain.
MAX_STEPS_FACTOR = 4


class _DualAveraging:
    """The dual-averaging step size: `step` to use next, `averaged` once burn-in ends."""

    def __init__(self, step: float):
        self.step = step
        self.mu = np.log(10.0 * step)
        self.h_bar = 0.0
        self.log_averaged = 0.0
        self.m = 0

    def update(self, accept_prob: float) -> None:
        self.m += 1
        m = self.m
        w = 1.0 / (m + DA_T0)
        self.h_bar = (1.0 - w) * self.h_bar + w * (DA_DELTA - accept_prob)
        log_step = self.mu - np.sqrt(m) / DA_GAMMA * self.h_bar
        eta = m ** -DA_KAPPA
        self.log_averaged = eta * log_step + (1.0 - eta) * self.log_averaged
        self.step = float(np.exp(log_step))

    @property
    def averaged(self) -> float:
        return float(np.exp(self.log_averaged)) if self.m else self.step


def _leapfrog_chains(target, states, proposal, run, rngs, coords, kept):
    """Leapfrog chains of a fixed path length, in lockstep; returns (scales, accepts, counters).

    The accepts are each chain's sampling-phase accepts.

    The path is scale * leapfrog_steps of `proposal`. At iteration t chain i
    draws u ~ U(0.8, 1.2) and takes L_t = max(1, round(path * u / eps_t))
    steps, at most MAX_STEPS_FACTOR * leapfrog_steps; the jitter keeps the
    chain from being periodic. In burn-in each chain's eps_t follows its own
    dual averaging toward acceptance probability 0.7; afterwards the chain
    uses its averaged step. Every chain keeps its own generator, step and
    L_t, so each is the chain run alone; `_leapfrog_lockstep` advances
    their trajectories together. Chain i's r-th kept vector goes to
    coords[i][r - 1], and kept(r) is called once all the chains have stored it.
    """
    path = proposal.scale * proposal.leapfrog_steps
    max_steps = MAX_STEPS_FACTOR * proposal.leapfrog_steps
    adapts = [_DualAveraging(proposal.scale) for _ in states]
    scales = [proposal.scale] * len(states)
    sampling_accepts = [0] * len(states)
    for t in range(run.iterations):
        if t == run.burn_in:
            scales = [adapt.averaged for adapt in adapts]
        steps = [min(max_steps, max(1, round(path * rng.uniform(0.8, 1.2) / scale)))
                 for rng, scale in zip(rngs, scales)]
        before = states
        states = _leapfrog_lockstep(states, target, rngs, scales, steps)
        n_kept, offset = divmod(t - run.burn_in + 1, run.thin)
        keep = t >= run.burn_in and offset == 0
        for i, state in enumerate(states):
            if t < run.burn_in:
                adapts[i].update(state.accept_prob)
                scales[i] = adapts[i].step
            else:
                sampling_accepts[i] += state.accept_count > before[i].accept_count
                if keep:
                    coords[i][n_kept - 1] = state.vector
        if keep:
            kept(n_kept)
    counters = [RunCounters(steps=state.step_count, accepts=state.accept_count,
                            domain_exits=state.exit_count, target_rows=state.eval_count)
                for state in states]
    return scales, sampling_accepts, counters


def _random_walk_chain(target, state, proposal, run, rng, coords, kept):
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
    The r-th kept vector goes to coords[r - 1], and then kept(r) is called.
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
                    kept((t - burn_in + 1) // thin)
            if accepted:
                break
        used = j + 1
        drawn -= used
        eps[:drawn] = eps[used:used + drawn]
        u[:drawn] = u[used:used + drawn]
    counters = RunCounters(steps=steps, accepts=accepts, domain_exits=exits, target_rows=rows)
    return scale, sampling_accepts, counters


def _ignore_kept(count: int) -> None:
    """The kept-row hook of a chain whose kept draws no one reads as they are made."""


def run_chains(target: PullbackTarget, inits: np.ndarray, proposal: ProposalConfig,
               run: RunConfig, sink=None) -> list[SampleBatch]:
    """Chains from each row of `inits` (n, d): burn-in with scale adaptation, then sampling.

    Chain i draws from its own PCG64 generator seeded `run.seed + i`, and
    its batch is the same, to the byte, as that chain run alone.

    The random walk adapts by Robbins-Monro: the proposal scale is
    multiplied by exp(c_t (a_t - 0.3)) with c_t ~ t^{-0.6} and a_t the
    accept indicator. Leapfrog adapts its step by dual averaging toward
    acceptance probability 0.7 and then uses the averaged step. Adaptation
    runs during burn-in only; the scale is frozen afterwards so the sampling
    phase is a genuine Markov chain, and `SampleBatch.final_scale` is the
    frozen value.

    The random-walk chains run one after the other, each prefetching: a
    stacked target call evaluates its next LOOKAHEAD proposals on the
    all-reject path, with the chain equal to the byte to one `mh_step` per
    step (see `_random_walk_chain`). Leapfrog chains run in lockstep, over
    trajectories of a fixed jittered path length, and each leapfrog
    position of all the chains still moving is one stacked fused call (see
    `_leapfrog_chains`). Each chain's kept draws are mapped to frames after
    the chains, in one stacked forward map and one validation pass
    (`PullbackTarget.frames`); an invalid kept draw raises then.

    `sink`, if given, takes chain 0's kept draws while the chains run: they
    are stored in `sink.coords`, an (n_keep, d) array that becomes the
    batch's `coords_draws`, and `sink.kept(r)` is called as soon as the
    first r are stored. `experiments.DrawsWriter` is such a sink: for a file
    past its size floor, a second process formats every row of draws.csv
    from it while the chain is still running.
    """
    inits = np.asarray(inits, dtype=float)
    if inits.ndim != 2 or not inits.shape[0] or inits.shape[1] != target.dim:
        raise ValueError(f"inits have shape {inits.shape}, expected (n, {target.dim}) with n >= 1")
    states = []
    for init in inits:
        lp0 = target(init)
        if not np.isfinite(lp0):
            raise ValueError("initial coordinates have non-finite log target")
        states.append(ChainState(init, lp0))

    n = len(states)
    rngs = [np.random.Generator(np.random.PCG64(run.seed + i)) for i in range(n)]
    n_keep = (run.iterations - run.burn_in) // run.thin
    coords = [np.empty((n_keep, target.dim)) for _ in range(n)]
    kept = _ignore_kept
    if sink is not None:
        if sink.coords.shape != (n_keep, target.dim):
            raise ValueError(f"sink holds {sink.coords.shape} draws, the run keeps "
                             f"{(n_keep, target.dim)}")
        coords[0], kept = sink.coords, sink.kept
    if proposal.kind == "leapfrog":
        scales, sampling_accepts, counters = _leapfrog_chains(target, states, proposal, run, rngs,
                                                              coords, kept)
    else:
        scales, sampling_accepts, counters = zip(*(
            _random_walk_chain(target, state, proposal, run, rng, chain_coords,
                               kept if i == 0 else _ignore_kept)
            for i, (state, rng, chain_coords) in enumerate(zip(states, rngs, coords))))
    frames = [target.frames(chain_coords) for chain_coords in coords]
    return [SampleBatch(coords_draws=coords[i], manifold_draws=frames[i],
                        acceptance_rate=sampling_accepts[i] / (run.iterations - run.burn_in),
                        final_scale=scales[i], counters=counters[i])
            for i in range(n)]


def run_chain(target: PullbackTarget, init: np.ndarray, proposal: ProposalConfig,
              run: RunConfig, sink=None) -> SampleBatch:
    """One chain from `init` (d,), seeded `run.seed`: the one-chain case of `run_chains`."""
    init = np.atleast_1d(np.asarray(init, dtype=float))
    if init.shape != (target.dim,):
        raise ValueError(f"init has shape {init.shape}, expected ({target.dim},)")
    return run_chains(target, init[None], proposal, run, sink)[0]


def init_from_manifold(Q) -> np.ndarray:
    """Coordinate vector of a manifold point, via the matching inverse map."""
    if isinstance(Q, StiefelPoint):
        return cayley_inverse_stiefel(Q).phi
    if isinstance(Q, GrassmannPoint):
        return cayley_inverse_grassmann(Q).psi
    raise TypeError(f"unsupported point type {type(Q)!r}")
