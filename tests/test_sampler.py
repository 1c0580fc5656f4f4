"""Metropolis-Hastings machinery: configs, steps, chains, determinism."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_mcmc import sampler as sampler_module
from cayley_mcmc.cayley import (
    ManifoldDims,
    StiefelCoords,
    cayley_forward_grassmann,
    cayley_forward_stiefel,
)
from cayley_mcmc.densities import (
    BinghamParams,
    LogDensity,
    PullbackTarget,
    bingham_log_density,
    uniform_log_density,
)
from cayley_mcmc.errors import CayleyError, ConditioningError
from cayley_mcmc.sampler import (
    LOOKAHEAD,
    MAX_STEPS_FACTOR,
    ChainState,
    ProposalConfig,
    RunConfig,
    coordinate_scales,
    default_proposal,
    init_from_manifold,
    leapfrog_step,
    mh_step,
    _DualAveraging,
    run_chain,
    run_chains,
)


def uniform_target(p=4, k=2, manifold="stiefel"):
    return PullbackTarget(uniform_log_density(manifold), ManifoldDims(p, k))


class TestConfigs:
    def test_proposal_validation(self):
        with pytest.raises(ValueError):
            ProposalConfig(kind="slice")
        with pytest.raises(ValueError):
            ProposalConfig(scale=0.0)
        with pytest.raises(ValueError):
            ProposalConfig(kind="leapfrog", leapfrog_steps=0)

    def test_run_validation(self):
        with pytest.raises(ValueError):
            RunConfig(iterations=0)
        with pytest.raises(ValueError):
            RunConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            RunConfig(iterations=10, thin=0)


class TestSteps:
    def test_mh_step_counts_and_moves(self):
        target = uniform_target()
        rng = np.random.default_rng(0)
        state = ChainState(np.zeros(target.dim), target(np.zeros(target.dim)))
        moved = 0
        for _ in range(50):
            new = mh_step(state, target, ProposalConfig(scale=0.3), rng)
            assert new.step_count == state.step_count + 1
            moved += int(not np.array_equal(new.vector, state.vector))
            state = new
        assert 0 < moved <= 50
        assert state.accept_count == moved

    def test_rejected_grassmann_proposal_keeps_state(self):
        """Proposals that land outside the eigenvalue domain never move the chain."""
        target = uniform_target(manifold="grassmann")
        rng = np.random.default_rng(1)
        start = np.zeros(target.dim)
        state = ChainState(start, target(start))
        # enormous steps leave the domain almost surely
        for _ in range(20):
            state = mh_step(state, target, ProposalConfig(scale=500.0), rng)
        assert np.array_equal(state.vector, start)

    def test_leapfrog_requires_matching_kind(self):
        target = uniform_target()
        state = ChainState(np.zeros(target.dim), target(np.zeros(target.dim)))
        with pytest.raises(ValueError):
            leapfrog_step(state, target, ProposalConfig(kind="random-walk-gaussian"),
                          np.random.default_rng(0))

    def test_leapfrog_without_grad_fn_raises_before_moving(self):
        for manifold in ("stiefel", "grassmann"):
            g = LogDensity(fn=lambda Q: Q[:, 0, 0], manifold=manifold)
            target = PullbackTarget(g, ManifoldDims(4, 2))
            start = np.full(target.dim, 0.1)
            state = ChainState(start.copy(), target(start))
            with pytest.raises(ValueError, match="grad_fn"):
                leapfrog_step(state, target, ProposalConfig(kind="leapfrog", scale=0.05),
                              np.random.default_rng(0))
            assert np.array_equal(state.vector, start)
            assert (state.accept_count, state.step_count) == (0, 0)

    def test_leapfrog_needs_a_step(self):
        target = uniform_target()
        state = ChainState(np.zeros(target.dim), target(np.zeros(target.dim)))
        with pytest.raises(ValueError, match="at least one"):
            leapfrog_step(state, target, ProposalConfig(kind="leapfrog"),
                          np.random.default_rng(0), steps=0)

    def test_leapfrog_step_advances(self):
        target = uniform_target()
        rng = np.random.default_rng(2)
        state = ChainState(np.zeros(target.dim), target(np.zeros(target.dim)))
        prop = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=3)
        out = leapfrog_step(state, target, prop, rng)
        assert out.step_count == 1
        assert out.accept_count in (0, 1)


class TestRunChain:
    def test_shapes_and_thinning(self):
        target = uniform_target(5, 2)
        run = RunConfig(iterations=300, burn_in=100, thin=4, seed=3)
        batch = run_chain(target, np.zeros(target.dim), ProposalConfig(scale=0.4), run)
        assert batch.coords_draws.shape == (50, target.dim)
        assert batch.manifold_draws.shape == (50, 5, 2)

    def test_draws_lie_on_manifold(self):
        target = uniform_target(5, 2)
        run = RunConfig(iterations=120, burn_in=20, seed=4)
        batch = run_chain(target, np.zeros(target.dim), ProposalConfig(scale=0.4), run)
        for Q in batch.manifold_draws[::10]:
            assert np.max(np.abs(Q.T @ Q - np.eye(2))) < 1e-10

    def test_same_seed_reproduces_exactly(self):
        target = uniform_target()
        run = RunConfig(iterations=200, burn_in=50, seed=5)
        prop = ProposalConfig(scale=0.3)
        b1 = run_chain(target, np.zeros(target.dim), prop, run)
        b2 = run_chain(target, np.zeros(target.dim), prop, run)
        assert np.array_equal(b1.coords_draws, b2.coords_draws)
        assert b1.acceptance_rate == b2.acceptance_rate

    def test_different_seeds_differ(self):
        target = uniform_target()
        prop = ProposalConfig(scale=0.3)
        b1 = run_chain(target, np.zeros(target.dim), prop,
                       RunConfig(iterations=200, burn_in=50, seed=6))
        b2 = run_chain(target, np.zeros(target.dim), prop,
                       RunConfig(iterations=200, burn_in=50, seed=7))
        assert not np.array_equal(b1.coords_draws, b2.coords_draws)

    def test_adaptation_moves_scale_toward_target_rate(self):
        """A far-too-large initial scale must shrink during burn-in."""
        target = uniform_target()
        run = RunConfig(iterations=2500, burn_in=2000, seed=8)
        batch = run_chain(target, np.zeros(target.dim), ProposalConfig(scale=50.0), run)
        assert batch.final_scale < 50.0
        assert 0.05 < batch.acceptance_rate < 0.7

    def test_burn_in_target_follows_proposal_kind(self):
        """Burn-in tunes leapfrog toward acceptance 0.7 and the random walk toward 0.3."""
        target = uniform_target(5, 2)
        run = RunConfig(iterations=1200, burn_in=800, seed=2)
        leapfrog = run_chain(target, np.zeros(target.dim),
                             ProposalConfig(kind="leapfrog", scale=1.0, leapfrog_steps=4), run)
        walk = run_chain(target, np.zeros(target.dim), ProposalConfig(scale=1.0), run)
        assert 0.5 < leapfrog.acceptance_rate < 0.9
        assert walk.acceptance_rate < 0.5

    def test_adaptation_freezes_after_burn_in(self):
        target = uniform_target()
        scales = [run_chain(target, np.zeros(target.dim), ProposalConfig(scale=0.5),
                            RunConfig(iterations=n, burn_in=100, seed=9)).final_scale
                  for n in (200, 400)]
        assert scales[0] == scales[1]
        assert scales[0] != 0.5

    def test_rejects_bad_init(self):
        target = uniform_target()
        with pytest.raises(ValueError):
            run_chain(target, np.zeros(3), ProposalConfig(),
                      RunConfig(iterations=10, seed=0))

    def test_leapfrog_chain_on_uniform_target(self):
        target = uniform_target(5, 2)
        prop = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=4)
        run = RunConfig(iterations=300, burn_in=100, seed=10)
        batch = run_chain(target, np.zeros(target.dim), prop, run)
        assert batch.acceptance_rate > 0.2
        for Q in batch.manifold_draws[::50]:
            assert np.max(np.abs(Q.T @ Q - np.eye(2))) < 1e-10


class TypedRouteTarget(PullbackTarget):
    """Reference target: every kept frame goes through the typed forward maps."""

    def point(self, vector):
        coords = self.coords(vector)
        if isinstance(coords, StiefelCoords):
            return cayley_forward_stiefel(coords)
        return cayley_forward_grassmann(coords)


def oracle_chain(target, init, proposal, run):
    """The random walk one step at a time: `mh_step` per step, `target.point` per kept draw.

    Returns (coords, frames, acceptance rate, final scale, final state); the
    state's counters cover burn-in and sampling.
    """
    coord_scales = coordinate_scales(target, proposal)
    rng = np.random.Generator(np.random.PCG64(run.seed))
    state = ChainState(init, target(init))
    scale = proposal.scale
    for t in range(run.burn_in):
        before = state.accept_count
        state = mh_step(state, target, proposal, rng, scale=scale, coord_scales=coord_scales)
        c_t = 1.0 / (t + 10.0) ** 0.6
        scale *= float(np.exp(c_t * (float(state.accept_count > before) - 0.3)))
    burn_in_accepts = state.accept_count
    coords, frames = [], []
    for t in range(run.iterations - run.burn_in):
        state = mh_step(state, target, proposal, rng, scale=scale, coord_scales=coord_scales)
        if (t + 1) % run.thin == 0:
            coords.append(state.vector)
            frames.append(target.point(state.vector).Q)
    rate = (state.accept_count - burn_in_accepts) / (run.iterations - run.burn_in)
    return np.array(coords), np.array(frames), rate, scale, state


def assert_chain_equals_oracle(batch, oracle):
    coords, frames, rate, scale, state = oracle
    assert np.array_equal(batch.coords_draws, coords)
    assert np.array_equal(batch.manifold_draws, frames)
    assert batch.acceptance_rate == rate
    assert batch.final_scale == scale
    counters = batch.counters
    assert (counters.steps, counters.accepts, counters.domain_exits) == (
        state.step_count, state.accept_count, state.exit_count)
    assert state.eval_count == state.step_count <= counters.target_rows


def make_density(manifold, density, p, k, seed=11):
    if density == "uniform":
        return uniform_log_density(manifold)
    rng = np.random.default_rng(seed)
    params = BinghamParams.from_data(rng.standard_normal((3 * p, p)), 1.0, np.linspace(3.0, 1.0, k))
    return bingham_log_density(params, manifold)


def outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except (CayleyError, ValueError) as exc:
        return type(exc), str(exc)


class TestRawVectorRoute:
    def test_scale_vector_matches_copy_and_slice(self):
        """scale * (eps * s) is bit-identical to scaling each block of a copy in place."""
        target = uniform_target(9, 3)
        proposal = default_proposal(target)
        eps = np.random.default_rng(0).standard_normal(target.dim)
        blocks = eps.copy()
        blocks[:target.n_b] *= proposal.per_block_scales[0]
        blocks[target.n_b:] *= proposal.per_block_scales[1]
        scale = 0.37
        assert np.array_equal(scale * (eps * coordinate_scales(target, proposal)), scale * blocks)
        plain = ProposalConfig(scale=scale)
        assert np.array_equal(scale * (eps * coordinate_scales(target, plain)), scale * eps)

    @pytest.mark.parametrize("manifold,density", [("stiefel", "uniform"), ("stiefel", "bingham"),
                                                  ("grassmann", "uniform"),
                                                  ("grassmann", "bingham")])
    def test_chain_equals_typed_route_chain(self, manifold, density):
        """The prefetching chain equals the one-step chain whose kept frames are typed."""
        dims = ManifoldDims(8, 3)
        g = make_density(manifold, density, 8, 3)
        raw = PullbackTarget(g, dims)
        proposal = default_proposal(raw, scale=0.8 if manifold == "stiefel" else 0.3)
        run = RunConfig(iterations=600, burn_in=200, thin=2, seed=21)
        init = np.zeros(raw.dim)
        batch = run_chain(raw, init, proposal, run)
        assert_chain_equals_oracle(batch, oracle_chain(TypedRouteTarget(g, dims), init, proposal,
                                                       run))
        assert 0.0 < batch.acceptance_rate < 1.0


class TestPrefetchedChain:
    """`run_chain`'s prefetching random walk equals the one-step oracle to the byte."""

    @pytest.mark.parametrize("thin", [1, 3, 10])
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 3), (8, 3), (20, 4)])
    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_chain_equals_one_step_oracle(self, manifold, density, p, k, thin):
        target = PullbackTarget(make_density(manifold, density, p, k), ManifoldDims(p, k))
        proposal = default_proposal(target)
        # Burn-in 101 is not a multiple of LOOKAHEAD = 8, and 40 * thin + 5 sampling
        # steps end the run inside a block.
        run = RunConfig(iterations=101 + 40 * thin + 5, burn_in=101, thin=thin, seed=p + k + thin)
        init = np.zeros(target.dim)
        batch = run_chain(target, init, proposal, run)
        assert_chain_equals_oracle(batch, oracle_chain(target, init, proposal, run))
        assert batch.coords_draws.shape == ((40 * thin + 5) // thin, target.dim)
        assert 0.0 < batch.acceptance_rate < 1.0

    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_thinning_past_the_run_keeps_no_draws(self, manifold):
        target = uniform_target(5, 2, manifold)
        batch = run_chain(target, np.zeros(target.dim), ProposalConfig(scale=0.3),
                          RunConfig(iterations=10, burn_in=5, thin=20, seed=1))
        assert batch.coords_draws.shape == (0, target.dim)
        assert batch.manifold_draws.shape == (0, 5, 2)
        assert batch.counters.steps == 10

    def test_counters_show_domain_exits_and_prefetch_waste(self):
        target = uniform_target(20, 4, "grassmann")
        batch = run_chain(target, np.zeros(target.dim), default_proposal(target),
                          RunConfig(iterations=2000, burn_in=500, seed=3))
        counters = batch.counters
        assert counters.steps == 2000
        assert 0 < counters.domain_exits < counters.steps - counters.accepts
        assert counters.steps < counters.target_rows <= LOOKAHEAD * counters.steps

    def test_leapfrog_counters(self):
        """Target rows are the start's gradient plus one fused call per leapfrog position."""
        target = uniform_target(5, 2)
        prop = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=4)
        batch = run_chain(target, np.zeros(target.dim), prop,
                          RunConfig(iterations=50, burn_in=10, seed=10))
        counters = batch.counters
        assert counters.steps == 50 and 0 < counters.accepts <= 50
        # Dual averaging grows the step on this broad target to about 0.4, so
        # most trajectories of path 4 * 0.05 take a single step.
        assert counters.domain_exits == 0 and counters.target_rows == 55


class TestLeapfrogAdaptation:
    """Path-length trajectories, dual averaging in burn-in, and the step cap."""

    def test_steps_follow_the_jittered_path(self):
        """Without burn-in the step stays at 0.05, so a path of 0.2 takes 3 to 5 steps."""
        target = uniform_target(5, 2)
        prop = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=4)
        batch = run_chain(target, np.zeros(target.dim), prop,
                          RunConfig(iterations=50, seed=10))
        rows = batch.counters.target_rows
        assert batch.final_scale == 0.05 and batch.counters.domain_exits == 0
        assert 1 + 50 * 3 <= rows <= 1 + 50 * 5 and rows == 205

    def test_step_freezes_at_the_average_after_burn_in(self):
        target = uniform_target()
        prop = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=4)
        batches = [run_chain(target, np.zeros(target.dim), prop,
                             RunConfig(iterations=n, burn_in=100, seed=9)) for n in (200, 400)]
        assert batches[0].final_scale == batches[1].final_scale != 0.05
        assert 0.5 < batches[1].acceptance_rate < 0.95

    def test_dual_averaging_shrinks_toward_ten_times_the_initial_step(self):
        at_target = _DualAveraging(0.02)
        for _ in range(20):
            at_target.update(0.7)
        assert at_target.step == pytest.approx(0.2) and at_target.averaged == pytest.approx(0.2)
        rejecting = _DualAveraging(0.02)
        for _ in range(20):
            rejecting.update(0.0)
        assert rejecting.step < rejecting.averaged < 0.02

    def test_trajectory_length_is_capped_where_the_step_collapses(self):
        """At the Grassmann wall burn-in drives the step far down; a trajectory stays bounded."""
        target = uniform_target(20, 4, "grassmann")
        prop = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=10)
        batch = run_chain(target, np.zeros(target.dim), prop,
                          RunConfig(iterations=200, burn_in=100, seed=1))
        assert batch.final_scale < 0.05 / MAX_STEPS_FACTOR
        counters = batch.counters
        assert counters.domain_exits > 0
        assert counters.target_rows <= 1 + 200 * MAX_STEPS_FACTOR * 10
        assert batch.acceptance_rate > 0.2


def oracle_leapfrog_chain(target, init, proposal, run):
    """One leapfrog chain one trajectory at a time, one `value_and_gradient` call per position.

    The sequential algorithm each lockstep chain must reproduce: per
    iteration the jitter, the momentum and (unless the trajectory left the
    domain) the accept variate, from the chain's own generator. Returns
    (coords, acceptance rate, final scale, counters as a tuple).
    """
    rng = np.random.Generator(np.random.PCG64(run.seed))
    x0, lp0, grad0 = init, target(init), target.gradient(init)
    path = proposal.scale * proposal.leapfrog_steps
    adapt, scale = _DualAveraging(proposal.scale), proposal.scale
    steps_taken = accepts = exits = sampling_accepts = 0
    evals = 1
    coords = []
    for t in range(run.iterations):
        if t == run.burn_in:
            scale = adapt.averaged
        steps = min(MAX_STEPS_FACTOR * proposal.leapfrog_steps,
                    max(1, round(path * rng.uniform(0.8, 1.2) / scale)))
        mom = rng.standard_normal(x0.shape[0])
        h0 = -lp0 + 0.5 * mom @ mom
        mom = mom + 0.5 * scale * grad0
        x, accept_prob, accepted = x0, 0.0, False
        for step in range(steps):
            x = x + scale * mom
            lp, grad = target.value_and_gradient(x)
            evals += 1
            if grad is None:
                exits += 1
                break
            mom = mom + (scale if step < steps - 1 else 0.5 * scale) * grad
        else:
            h1 = -lp + 0.5 * mom @ mom
            accept_prob = float(np.exp(min(0.0, h0 - h1))) if not np.isnan(h1) else 0.0
            accepted = h0 - h1 > np.log(rng.uniform())
        steps_taken += 1
        if accepted:
            x0, lp0, grad0 = x, lp, grad
            accepts += 1
        if t < run.burn_in:
            adapt.update(accept_prob)
            scale = adapt.step
        else:
            sampling_accepts += accepted
            if (t - run.burn_in + 1) % run.thin == 0:
                coords.append(x0)
    rate = sampling_accepts / (run.iterations - run.burn_in)
    return np.array(coords), rate, scale, (steps_taken, accepts, exits, evals)


class TestLockstepChains:
    """Chains advanced in lockstep through stacked calls equal each chain run alone."""

    def _assert_lockstep_equals_alone(self, target, inits, proposal, run, monkeypatch):
        """Returns the batches and, per lockstep call, its trajectory lengths and each fused
        call's (stack size, -inf rows)."""
        trajectories = []
        lockstep, fused = sampler_module._leapfrog_lockstep, target.values_and_gradients

        def recording_lockstep(*args):
            trajectories.append((list(args[4]), []))
            return lockstep(*args)

        def recording_fused(X):
            values, gradients = fused(X)
            exits = int((values == -np.inf).sum())
            trajectories[-1][1].append((X.shape[0], exits))
            return values, gradients

        monkeypatch.setattr(sampler_module, "_leapfrog_lockstep", recording_lockstep)
        monkeypatch.setattr(target, "values_and_gradients", recording_fused)
        batches = run_chains(target, inits, proposal, run)
        monkeypatch.undo()
        assert len(batches) == len(inits)
        for i, batch in enumerate(batches):
            alone = run_chain(target, inits[i], proposal, replace(run, seed=run.seed + i))
            assert np.array_equal(batch.coords_draws, alone.coords_draws)
            assert np.array_equal(batch.manifold_draws, alone.manifold_draws)
            assert batch.acceptance_rate == alone.acceptance_rate
            assert batch.final_scale == alone.final_scale
            assert batch.counters == alone.counters
            coords, rate, scale, counters = oracle_leapfrog_chain(
                target, inits[i], proposal, replace(run, seed=run.seed + i))
            assert np.array_equal(batch.coords_draws, coords.reshape(batch.coords_draws.shape))
            assert (batch.acceptance_rate, batch.final_scale) == (rate, scale)
            assert (batch.counters.steps, batch.counters.accepts, batch.counters.domain_exits,
                    batch.counters.target_rows) == counters
        return batches, trajectories

    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    def test_stiefel_pair_with_different_trajectory_lengths(self, density, monkeypatch):
        """The chains adapt their own steps, so their L_t differ and one sits idle at times.

        Some trajectory moves both chains at its first steps and then the
        longer one alone.
        """
        dims = ManifoldDims(8, 3)
        target = PullbackTarget(make_density("stiefel", density, 8, 3), dims)
        rng = np.random.default_rng(5)
        inits = np.stack([np.zeros(target.dim), 0.5 * rng.standard_normal(target.dim)])
        proposal = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=6)
        batches, trajectories = self._assert_lockstep_equals_alone(
            target, inits, proposal, RunConfig(iterations=120, burn_in=40, thin=2, seed=7),
            monkeypatch)
        assert batches[0].final_scale != batches[1].final_scale
        assert batches[0].counters.target_rows != batches[1].counters.target_rows
        assert any(sizes[:3] == [(2, 0)] * 3 and sizes[-1] == (1, 0)
                   for _, sizes in trajectories[1:])

    def test_three_chains_where_the_middle_one_ends_first(self, monkeypatch):
        """Chains 0 and 2 still moving are not a contiguous run of rows."""
        dims = ManifoldDims(8, 3)
        target = PullbackTarget(make_density("stiefel", "bingham", 8, 3), dims)
        rng = np.random.default_rng(6)
        inits = np.stack([np.zeros(target.dim)] + [0.4 * rng.standard_normal(target.dim)
                                                   for _ in range(2)])
        proposal = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=6)
        _, trajectories = self._assert_lockstep_equals_alone(
            target, inits, proposal, RunConfig(iterations=60, burn_in=20, seed=2), monkeypatch)
        assert any(steps[1] < min(steps[0], steps[2]) and sizes[0] == (3, 0)
                   and sizes[steps[1]] == (2, 0) for steps, sizes in trajectories[1:])

    def test_grassmann_pair_where_trajectories_leave_the_domain(self, monkeypatch):
        """Near the wall trajectories exit mid-way while the other chain keeps moving.

        Some trajectory moves both chains for a few steps, then one exits and
        the other chain goes on alone.
        """
        target = uniform_target(20, 4, "grassmann")
        near_wall = np.zeros(target.dim)
        near_wall[0] = 0.97
        inits = np.stack([np.zeros(target.dim), near_wall])
        proposal = ProposalConfig(kind="leapfrog", scale=0.05, leapfrog_steps=10)
        batches, trajectories = self._assert_lockstep_equals_alone(
            target, inits, proposal, RunConfig(iterations=60, burn_in=20, seed=3), monkeypatch)
        exits = [batch.counters.domain_exits for batch in batches]
        assert max(exits) > 0 and exits[0] != exits[1]
        assert any(sizes[:2] == [(2, 0)] * 2 and (2, 1) in sizes
                   and sizes[sizes.index((2, 1)) + 1:][:1] == [(1, 0)]
                   for _, sizes in trajectories[1:])

    def test_rejects_bad_inits(self):
        target = uniform_target()
        proposal = ProposalConfig(kind="leapfrog")
        for inits in (np.zeros(target.dim), np.zeros((0, target.dim)), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="inits have shape"):
                run_chains(target, inits, proposal, RunConfig(iterations=10, seed=0))


class TestPrefetchErrors:
    """Errors of prefetched rows surface only where the one-step chain would see them."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("with_fn", [False, True])
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_nan_row_raises_only_when_used(self, manifold, with_fn):
        g = (LogDensity(fn=lambda Q: Q[:, 0, 0], manifold=manifold) if with_fn
             else uniform_log_density(manifold))
        target = PullbackTarget(g, ManifoldDims(6, 2))
        X = 0.1 * np.random.default_rng(0).standard_normal((3, target.dim))
        X[1, 0] = np.nan
        value = target.rows(X)
        assert value(0) == target(X[0].copy())
        assert value(2) == target(X[2].copy())
        stacked, single = outcome(lambda: value(1)), outcome(lambda: target(X[1].copy()))
        assert stacked[0] is ConditioningError and stacked == single

    def test_grassmann_nan_row_never_reaches_lapack(self):
        """LAPACK's eigvalsh fails the whole stack on this NaN row (k = 3) unless it is masked."""
        target = uniform_target(6, 3, "grassmann")
        X = 0.1 * np.random.default_rng(1).standard_normal((3, target.dim))
        X[1, 0] = np.nan
        value = target.rows(X)
        assert value(0) == target(X[0].copy()) and value(2) == target(X[2].copy())
        with pytest.raises(ConditioningError, match="non-finite"):
            value(1)
        with pytest.raises(ConditioningError, match="non-finite"):
            target.frames(X)

    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_nan_density_raises_at_the_same_step(self, manifold):
        """g is evaluated only at rows the chain reaches, in the same order as one step at a time."""

        def density():
            calls = []

            def fn(Q):
                calls.append(1)
                return np.full(len(Q), np.nan) if len(calls) == 150 else Q[:, 0, 0]

            return LogDensity(fn=fn, manifold=manifold), calls

        dims = ManifoldDims(6, 2)
        run = RunConfig(iterations=400, burn_in=50, seed=4)
        results = []
        for chain in (run_chain, oracle_chain):
            g, calls = density()
            target = PullbackTarget(g, dims)
            raised = outcome(lambda: chain(target, np.zeros(target.dim),
                                           default_proposal(target), run))
            results.append((raised, len(calls)))
        assert results[0] == results[1]
        assert results[0] == ((ConditioningError, "pullback_log_density: log target is NaN"), 150)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_overflowing_proposals_end_as_one_step_at_a_time(self, manifold):
        """Proposals whose A^T A overflows: the same error, or the same chain, as the oracle."""
        target = uniform_target(6, 2, manifold)
        run = RunConfig(iterations=60, seed=5)
        init = np.zeros(target.dim)
        proposal = ProposalConfig(scale=1e160)
        batch = outcome(lambda: run_chain(target, init, proposal, run))
        oracle = outcome(lambda: oracle_chain(target, init, proposal, run))
        if isinstance(oracle, tuple) and isinstance(oracle[0], type):
            assert batch == oracle
        else:
            assert_chain_equals_oracle(batch, oracle)
        if manifold == "grassmann":
            assert batch == (ConditioningError, "log_jacobian_block_grassmann: non-finite coordinates")

    @settings(max_examples=60, deadline=None)
    @given(manifold=st.sampled_from(["stiefel", "grassmann"]),
           density=st.sampled_from(["uniform", "bingham"]),
           shape=st.sampled_from([(2, 1), (4, 3), (8, 3), (20, 4)]),
           n=st.integers(1, 8), size=st.floats(0.01, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_every_stacked_row_equals_its_one_row_call(self, manifold, density, shape, n, size,
                                                       seed):
        p, k = shape
        target = PullbackTarget(make_density(manifold, density, p, k), ManifoldDims(p, k))
        X = size * np.random.default_rng(seed).standard_normal((n, target.dim)) / np.sqrt(p)
        value = target.rows(X)
        for j in range(n):
            assert outcome(lambda: value(j)) == outcome(lambda: target(X[j].copy()))
        frames = outcome(lambda: target.frames(X))
        if isinstance(frames, np.ndarray):
            for j in range(n):
                assert np.array_equal(frames[j], target.point(X[j].copy()).Q)


class TestInitFromManifold:
    def test_round_trips_through_coordinates(self):
        from cayley_mcmc.diagnostics import haar_stiefel
        rng = np.random.default_rng(11)
        Q = haar_stiefel(6, 2, rng)
        vec = init_from_manifold(Q)
        target = uniform_target(6, 2)
        Q_back = target.point(vec)
        assert np.max(np.abs(Q_back.Q - Q.Q)) < 1e-10

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            init_from_manifold(np.eye(3))
