"""Metropolis-Hastings machinery: configs, steps, chains, determinism."""

import numpy as np
import pytest

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
    pullback_log_density,
    uniform_log_density,
)
from cayley_mcmc.sampler import (
    ChainState,
    ProposalConfig,
    RunConfig,
    coordinate_scales,
    default_proposal,
    init_from_manifold,
    leapfrog_step,
    mh_step,
    run_chain,
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
            g = LogDensity(fn=lambda point: float(point.Q[0, 0]), manifold=manifold)
            target = PullbackTarget(g, ManifoldDims(4, 2))
            start = np.full(target.dim, 0.1)
            state = ChainState(start.copy(), target(start))
            with pytest.raises(ValueError, match="grad_fn"):
                leapfrog_step(state, target, ProposalConfig(kind="leapfrog", scale=0.05),
                              np.random.default_rng(0))
            assert np.array_equal(state.vector, start)
            assert (state.accept_count, state.step_count) == (0, 0)

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
    """Reference target: every value and kept frame goes through the typed API."""

    def __call__(self, vector):
        return pullback_log_density(self.g, self.coords(vector))

    def point(self, vector):
        coords = self.coords(vector)
        if isinstance(coords, StiefelCoords):
            return cayley_forward_stiefel(coords)
        return cayley_forward_grassmann(coords)


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
        rng = np.random.default_rng(11)
        dims = ManifoldDims(8, 3)
        g = uniform_log_density(manifold)
        if density == "bingham":
            params = BinghamParams.from_data(rng.standard_normal((30, 8)), 1.0,
                                             np.array([4.0, 2.0, 1.0]))
            g = bingham_log_density(params, manifold)
        raw = PullbackTarget(g, dims)
        proposal = default_proposal(raw, scale=0.8 if manifold == "stiefel" else 0.3)
        run = RunConfig(iterations=600, burn_in=200, thin=2, seed=21)
        init = np.zeros(raw.dim)
        batch = run_chain(raw, init, proposal, run)
        reference = run_chain(TypedRouteTarget(g, dims), init, proposal, run)
        assert np.array_equal(batch.coords_draws, reference.coords_draws)
        assert np.array_equal(batch.manifold_draws, reference.manifold_draws)
        assert batch.acceptance_rate == reference.acceptance_rate
        assert batch.final_scale == reference.final_scale
        assert 0.0 < batch.acceptance_rate < 1.0


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
