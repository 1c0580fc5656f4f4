"""Target densities, coordinate pullbacks, and the exact entry marginal."""

import re

import numpy as np
import pytest
from scipy import integrate, stats

from cayley_mcmc.cayley import (
    GrassmannCoords,
    GrassmannPoint,
    ManifoldDims,
    StiefelCoords,
    StiefelPoint,
    cayley_forward_dense,
    cayley_forward_grassmann,
    cayley_forward_stiefel,
    grassmann_domain_margin,
)
from cayley_mcmc.densities import (
    BinghamParams,
    EntryMarginal,
    LogDensity,
    PullbackTarget,
    bingham_log_density,
    entry_marginal_log_pdf,
    pullback_log_density,
    uniform_log_density,
)
from cayley_mcmc.diagnostics import haar_stiefel, ks_statistic
from cayley_mcmc.errors import ConditioningError, DomainError
from cayley_mcmc.jacobian import (
    derivative_grassmann,
    derivative_stiefel,
    log_jacobian_block_grassmann,
    log_jacobian_naive,
    log_jacobian_stiefel,
)
from cayley_mcmc.sampler import ProposalConfig, RunConfig, run_chain
from cayley_mcmc.special_matrices import skew_at, skew_from_vech

# The refusal that every G(k,p) gradient route raises.
NO_WALL = r"wall .* lambda_max\(A\^T A\) = 1"


class TestLogDensity:
    def test_rejects_unknown_manifold(self):
        with pytest.raises(ValueError):
            LogDensity(fn=lambda q: 0.0, manifold="sphere")

    def test_uniform_is_constant_zero(self):
        g = uniform_log_density()
        rng = np.random.default_rng(0)
        assert g(haar_stiefel(5, 2, rng)) == 0.0


class TestBinghamParams:
    def test_m_diag_formula(self):
        params = BinghamParams(S=np.eye(4), sigma2=2.0, lam=np.array([5.0, 3.0, 1.5]))
        expected = (np.array([5.0, 3.0, 1.5]) / np.array([6.0, 4.0, 2.5])) / 4.0
        assert np.allclose(params.m_diag, expected)

    def test_from_data_builds_cross_product(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((10, 4))
        params = BinghamParams.from_data(Y, 1.0, np.array([2.0, 1.0]))
        assert np.allclose(params.S, Y.T @ Y)

    def test_rejects_increasing_lambda(self):
        with pytest.raises(ValueError):
            BinghamParams(S=np.eye(3), sigma2=1.0, lam=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("sigma2,lam", [(np.nan, [2.0, 1.0]), (1.0, [np.nan, 1.0]),
                                            (1.0, [2.0, np.nan]), (1.0, [np.nan]),
                                            (np.inf, [2.0, 1.0]), (1.0, [np.inf, 1.0])])
    def test_rejects_non_finite_parameters(self, sigma2, lam):
        with pytest.raises(ValueError):
            BinghamParams(S=np.eye(3), sigma2=sigma2, lam=np.array(lam))

    def test_rejects_asymmetric_s(self):
        with pytest.raises(ValueError):
            BinghamParams(S=np.array([[1.0, 5.0], [0.0, 1.0]]), sigma2=1.0,
                          lam=np.array([1.0]))


class TestBinghamDensity:
    def _params(self, rng, p=6, k=2):
        Y = rng.standard_normal((20, p))
        return BinghamParams.from_data(Y, 1.0, np.arange(k, 0, -1.0))

    def test_equals_trace_form(self):
        rng = np.random.default_rng(2)
        params = self._params(rng)
        g = bingham_log_density(params)
        Q = haar_stiefel(6, 2, rng)
        M = np.diag(params.m_diag)
        expected = np.trace(M @ Q.Q.T @ params.S @ Q.Q)
        assert abs(g(Q) - expected) < 1e-10

    def test_invariant_to_column_sign_flips(self):
        rng = np.random.default_rng(3)
        params = self._params(rng)
        g = bingham_log_density(params)
        Q = haar_stiefel(6, 2, rng)
        from cayley_mcmc.cayley import StiefelPoint
        flipped = StiefelPoint(dims=Q.dims, Q=Q.Q * np.array([1.0, -1.0]))
        assert abs(g(Q) - g(flipped)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = self._params(rng)
        g = bingham_log_density(params)
        dims = ManifoldDims(6, 2)
        target = PullbackTarget(g, dims)
        v = 0.3 * rng.standard_normal(dims.d_v)
        grad = target.gradient(v)
        for j in range(dims.d_v):
            e = np.zeros(dims.d_v)
            e[j] = 1e-6
            fd = (target(v + e) - target(v - e)) / 2e-6
            assert abs(grad[j] - fd) < 1e-5


class TestPullback:
    def test_stiefel_pullback_adds_jacobian(self):
        rng = np.random.default_rng(5)
        dims = ManifoldDims(5, 2)
        params = BinghamParams.from_data(rng.standard_normal((15, 5)), 1.0,
                                         np.array([2.0, 1.0]))
        g = bingham_log_density(params)
        coords = StiefelCoords.from_vector(dims, rng.standard_normal(dims.d_v))
        expected = g(cayley_forward_stiefel(coords)) + log_jacobian_stiefel(coords)
        assert abs(pullback_log_density(g, coords) - expected) < 1e-12

    def test_uniform_pullback_is_jacobian(self):
        rng = np.random.default_rng(6)
        dims = ManifoldDims(6, 3)
        coords = StiefelCoords.from_vector(dims, rng.standard_normal(dims.d_v))
        assert pullback_log_density(uniform_log_density(), coords) == \
            pytest.approx(log_jacobian_stiefel(coords), abs=1e-12)

    def test_grassmann_out_of_domain_is_minus_inf(self):
        dims = ManifoldDims(3, 1)
        coords = GrassmannCoords.from_vector(dims, np.array([2.0, 2.0]))
        val = pullback_log_density(uniform_log_density("grassmann"), coords)
        assert val == -np.inf

    def test_grassmann_frame_rejected_at_domain_edge_is_minus_inf(self):
        """Where GrassmannPoint would reject the frame, every target has a domain exit."""
        dims = ManifoldDims(4, 2)
        A = np.diag([np.sqrt(1.0 - 1e-13), 0.3])
        coords = GrassmannCoords.from_vector(dims, A.reshape(-1, order="F"))
        assert pullback_log_density(uniform_log_density("grassmann"), coords) == -np.inf
        g = LogDensity(fn=lambda Q: Q[:, 0, 0], manifold="grassmann")
        assert pullback_log_density(g, coords) == -np.inf

    def test_grassmann_pullback_in_domain(self):
        dims = ManifoldDims(4, 2)
        coords = GrassmannCoords.from_vector(dims, 0.2 * np.ones(4))
        val = pullback_log_density(uniform_log_density("grassmann"), coords)
        assert val == pytest.approx(log_jacobian_block_grassmann(coords), abs=1e-12)

    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_name_uniform_does_not_drop_fn(self, manifold):
        """The Jacobian-only shortcut keys on an unset fn, not on the name."""
        dims = ManifoldDims(4, 2)
        g = LogDensity(fn=lambda Q: np.full(len(Q), 1e6), manifold=manifold, name="uniform")
        target = PullbackTarget(g, dims)
        jacobian_only = PullbackTarget(uniform_log_density(manifold), dims)
        x = np.zeros(target.dim)
        assert target(x) == 1e6 + jacobian_only(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_nan_coordinate_raises(self, manifold):
        """NaN must be loud; -inf for a domain exit is the only silent rejection."""
        target = PullbackTarget(uniform_log_density(manifold), ManifoldDims(4, 2))
        x = np.zeros(target.dim)
        x[0] = np.nan
        with pytest.raises(ConditioningError):
            target(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_nan_coordinate_raises_with_fn(self, manifold):
        """With fn set the forward map runs too; NaN still raises ConditioningError."""
        target = PullbackTarget(LogDensity(fn=lambda Q: Q[:, 0, 0], manifold=manifold),
                                ManifoldDims(4, 2))
        x = np.zeros(target.dim)
        x[0] = np.nan
        with pytest.raises(ConditioningError):
            target(x)

    def test_manifold_mismatch_raises(self):
        dims = ManifoldDims(4, 2)
        coords = StiefelCoords.from_vector(dims, np.zeros(dims.d_v))
        with pytest.raises(ValueError):
            pullback_log_density(uniform_log_density("grassmann"), coords)

    def test_scalar_pullback_is_cauchy(self):
        """On V(1,2), the uniform pullback density equals the standard Cauchy."""
        dims = ManifoldDims(2, 1)
        target = PullbackTarget(uniform_log_density(), dims)
        # same normalization: log target - log cauchy is constant in a
        grid = np.array([-3.0, -0.5, 0.0, 1.0, 2.5])
        diffs = [target(np.array([a])) - stats.cauchy.logpdf(a) for a in grid]
        assert np.max(np.abs(np.diff(diffs))) < 1e-12


class TestPullbackTarget:
    def test_dimensions_and_typing(self):
        dims = ManifoldDims(6, 2)
        t_v = PullbackTarget(uniform_log_density("stiefel"), dims)
        t_g = PullbackTarget(uniform_log_density("grassmann"), dims)
        assert t_v.dim == dims.d_v and t_g.dim == dims.d_g
        assert t_v.n_b == 1 and t_g.n_b == 0
        assert isinstance(t_v.coords(np.zeros(t_v.dim)), StiefelCoords)
        assert isinstance(t_g.coords(np.zeros(t_g.dim)), GrassmannCoords)

    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    @pytest.mark.parametrize("p,k", [(2, 1), (5, 2), (12, 3)])
    def test_raw_vector_value_equals_typed_route(self, manifold, p, k):
        """The plan's raw-vector value against g at the dense p x p map plus the naive log J.

        Domain exits (-inf) fall where the oracle's margin says the point is
        outside; a NaN coordinate raises on the raw and the typed route.
        """
        rng = np.random.default_rng(p * 10 + k)
        dims = ManifoldDims(p, k)
        params = BinghamParams.from_data(rng.standard_normal((3 * p, p)), 1.0,
                                         np.linspace(3.0, 1.0, k))
        point_type, derivative = ((StiefelPoint, derivative_stiefel) if manifold == "stiefel"
                                  else (GrassmannPoint, derivative_grassmann))
        exits = 0
        for g in (uniform_log_density(manifold), bingham_log_density(params, manifold)):
            target = PullbackTarget(g, dims)
            for size in (0.1, 0.5, 1.0, 2.0, 5.0):
                for _ in range(5):
                    x = size * rng.standard_normal(target.dim) / np.sqrt(p)
                    value = target(x)
                    coords = target.coords(x)
                    if value == -np.inf:
                        assert grassmann_domain_margin(coords) <= 0
                        exits += 1
                        continue
                    oracle = (g(point_type(dims, cayley_forward_dense(coords)))
                              + log_jacobian_naive(derivative(coords)))
                    assert abs(value - oracle) <= 1e-11 * max(1.0, abs(oracle))
            nan = np.zeros(target.dim)
            nan[-1] = np.nan
            with pytest.raises(ConditioningError):
                target(nan)
            with pytest.raises(ConditioningError):
                pullback_log_density(g, target.coords(nan))
        if manifold == "grassmann":
            assert exits > 0

    def test_raw_vector_frame_equals_typed_forward_map(self):
        rng = np.random.default_rng(3)
        dims = ManifoldDims(9, 3)
        for manifold, forward in (("stiefel", cayley_forward_stiefel),
                                  ("grassmann", cayley_forward_grassmann)):
            target = PullbackTarget(uniform_log_density(manifold), dims)
            for _ in range(10):
                x = 0.2 * rng.standard_normal(target.dim)
                assert np.array_equal(target.point(x).Q, forward(target.coords(x)).Q)

    def test_uniform_grassmann_target_exits_where_the_frame_is_rejected(self):
        """The uniform target shares GrassmannPoint's edge, so a chain never keeps a rejected frame."""
        dims = ManifoldDims(4, 2)
        target = PullbackTarget(uniform_log_density("grassmann"), dims)
        edge = np.diag([np.sqrt(1.0 - 1e-13), 0.3]).reshape(-1, order="F")
        routes = (cayley_forward_grassmann, log_jacobian_block_grassmann, derivative_grassmann)
        for route in routes:
            with pytest.raises(DomainError):
                route(target.coords(edge))
        assert target(edge) == -np.inf
        # Margins 1 - lam_max on both sides of the edge, which sits near 2e-12;
        # the forward map, the closed-form log J and the derivative share it.
        for margin in (-1e-3, -1e-12, 1e-14, 5e-13, 1.9e-12, 2.1e-12, 3e-12, 1e-10, 1e-3):
            x = np.diag([np.sqrt(1.0 - margin), 0.3]).reshape(-1, order="F")
            for route in routes:
                try:
                    route(target.coords(x))
                    rejected = False
                except DomainError:
                    rejected = True
                assert (target(x) == -np.inf) == rejected, (margin, route.__name__)
        # Steps of 2e-13 from a margin of 2.5e-12 cross the edge; every kept frame is valid.
        inside = np.diag([np.sqrt(1.0 - 2.5e-12), 0.3]).reshape(-1, order="F")
        for seed in (1, 2):
            batch = run_chain(target, inside, ProposalConfig(scale=2e-13),
                              RunConfig(iterations=400, seed=seed))
            assert batch.manifold_draws.shape == (400, 4, 2)
            assert batch.acceptance_rate < 1.0

    def test_grassmann_target_has_no_gradient(self):
        """G(k,p) has no gradient route: `has_gradient` is False and every gradient call refuses."""
        rng = np.random.default_rng(9)
        dims = ManifoldDims(6, 2)
        params = BinghamParams.from_data(rng.standard_normal((20, 6)), 1.0,
                                         np.array([4.0, 2.0]))
        x = rng.standard_normal(dims.d_g)
        x *= 0.7 / np.linalg.norm(x)
        for g in (uniform_log_density("grassmann"), bingham_log_density(params, "grassmann")):
            t = PullbackTarget(g, dims)
            assert not t.has_gradient
            for call, arg in ((t.values_and_gradients, x[None]), (t.value_and_gradient, x),
                              (t.gradient, x)):
                with pytest.raises(ValueError, match=NO_WALL):
                    call(arg)
            assert np.isfinite(t(x))

    def test_uniform_stiefel_gradient_is_jacobian_gradient(self):
        rng = np.random.default_rng(7)
        dims = ManifoldDims(5, 2)
        t = PullbackTarget(uniform_log_density("stiefel"), dims)
        v = rng.standard_normal(dims.d_v)
        from cayley_mcmc.jacobian import grad_log_jacobian_stiefel
        expected = grad_log_jacobian_stiefel(StiefelCoords.from_vector(dims, v))
        assert np.allclose(t.gradient(v), expected)

    def test_gradient_of_fn_named_uniform_uses_chain_rule(self):
        rng = np.random.default_rng(8)
        dims = ManifoldDims(5, 2)
        params = BinghamParams.from_data(rng.standard_normal((15, 5)), 1.0,
                                         np.array([2.0, 1.0]))
        bingham = bingham_log_density(params)
        renamed = LogDensity(fn=bingham.fn, manifold="stiefel", name="uniform",
                             value_and_grad_fn=bingham.value_and_grad_fn)
        v = rng.standard_normal(dims.d_v)
        expected = PullbackTarget(bingham, dims).gradient(v)
        assert np.array_equal(PullbackTarget(renamed, dims).gradient(v), expected)


def log_j_gradient_complex_step(dims, x, h=1e-30):
    """Gradient of the Stiefel log J = c - (p-1) log det(I - B + A^T A) by complex steps.

    log det S is analytic in the coordinates (A^T A with the plain transpose),
    so Im log det S(x + i h e_j) / h is its partial derivative to rounding,
    with no subtraction: an oracle independent of the closed-form gradient.
    """
    p, k, n_b = dims.p, dims.k, dims.n_b
    grad = np.empty(dims.d_v)
    for j in range(dims.d_v):
        z = x.astype(complex)
        z[j] += 1j * h
        A = z[n_b:].reshape((p - k, k), order="F")
        B = skew_from_vech(z[:n_b].real, k) + 1j * skew_from_vech(z[:n_b].imag, k)
        sign, _ = np.linalg.slogdet(np.eye(k) - B + A.T @ A)
        grad[j] = -(p - 1) * np.angle(sign) / h
    return grad


class TestAdjointGradient:
    """The Stiefel pullback gradient is an adjoint: no derivative matrix, same numbers."""

    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 2), (6, 3), (50, 3)])
    def test_matches_dense_derivative_oracle(self, density, p, k):
        rng = np.random.default_rng(10 * p + k)
        dims = ManifoldDims(p, k)
        params = BinghamParams.from_data(rng.standard_normal((3 * p, p)), 1.0,
                                         np.linspace(3.0, 1.0, k))
        g = uniform_log_density() if density == "uniform" else bingham_log_density(params)
        target = PullbackTarget(g, dims)
        for _ in range(3):
            x = 0.5 * rng.standard_normal(dims.d_v)
            oracle = log_j_gradient_complex_step(dims, x)
            if g.fn is not None:
                coords = StiefelCoords.from_vector(dims, x)
                G = g.value_and_grad_fn(cayley_forward_dense(coords)[None])[1][0]
                oracle = oracle + derivative_stiefel(coords).matrix.T @ G.reshape(-1, order="F")
            grad = target.gradient(x)
            assert np.max(np.abs(grad - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_value_and_gradient_is_value_and_gradient(self, manifold, density):
        """On G(k,p) the value stands and both gradient routes refuse with the wall message."""
        rng = np.random.default_rng(3)
        p, k = 12, 3
        dims = ManifoldDims(p, k)
        params = BinghamParams.from_data(rng.standard_normal((3 * p, p)), 1.0,
                                         np.linspace(3.0, 1.0, k))
        g = (uniform_log_density(manifold) if density == "uniform"
             else bingham_log_density(params, manifold))
        target = PullbackTarget(g, dims)
        for _ in range(5):
            x = rng.standard_normal(target.dim)
            x *= 0.7 / np.linalg.norm(x)
            if manifold == "grassmann":
                assert np.isfinite(target(x))
                for call in (target.value_and_gradient, target.gradient):
                    with pytest.raises(ValueError, match=NO_WALL):
                        call(x)
                continue
            value, grad = target.value_and_gradient(x)
            assert value == pytest.approx(target(x), rel=1e-13, abs=1e-13)
            assert np.array_equal(grad, target.gradient(x))

    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    def test_grassmann_exit_has_no_gradient(self, density):
        """Outside the G(k,p) domain the value is -inf, and the gradient is refused, not None."""
        rng = np.random.default_rng(4)
        dims = ManifoldDims(4, 2)
        params = BinghamParams.from_data(rng.standard_normal((12, 4)), 1.0, np.array([2.0, 1.0]))
        g = (uniform_log_density("grassmann") if density == "uniform"
             else bingham_log_density(params, "grassmann"))
        target = PullbackTarget(g, dims)
        outside = np.diag([1.5, 0.3]).reshape(-1, order="F")
        assert target(outside) == -np.inf
        assert target.rows(outside[None])(0) == -np.inf
        for call in (target.value_and_gradient, target.gradient):
            with pytest.raises(ValueError, match=NO_WALL):
                call(outside)


class TestStackedKernel:
    """The stacked kernels: every row is its one-row call, and a bad row stays its own.

    On V(k,p) the kernel is `values_and_gradients`. On G(k,p) it is `rows`,
    the values the random walk uses, and `values_and_gradients` refuses.
    """

    def _target(self, manifold, density, p, k):
        rng = np.random.default_rng(10 * p + k)
        params = BinghamParams.from_data(rng.standard_normal((3 * p, p)), 1.0,
                                         np.linspace(3.0, 1.0, k))
        g = (uniform_log_density(manifold) if density == "uniform"
             else bingham_log_density(params, manifold))
        return PullbackTarget(g, ManifoldDims(p, k))

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 2), (50, 3), (200, 5)])
    def test_every_row_equals_its_one_row_call(self, p, k, manifold, density, n):
        target = self._target(manifold, density, p, k)
        rng = np.random.default_rng(n)
        for size in (0.3, 1.0, 2.5):
            X = size * rng.standard_normal((n, target.dim)) / np.sqrt(p)
            if manifold == "grassmann":
                value = target.rows(X)
                for j in range(n):
                    assert value(j) == target(X[j].copy())
                with pytest.raises(ValueError, match=NO_WALL):
                    target.values_and_gradients(X)
                continue
            values, gradients = target.values_and_gradients(X)
            assert values.shape == (n,) and gradients.shape == (n, target.dim)
            for j in range(n):
                value, gradient = target.value_and_gradient(X[j].copy())
                assert values[j] == value
                assert np.array_equal(gradients[j], gradient)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 2), (50, 3), (200, 5)])
    def test_nan_and_ill_conditioned_rows_raise(self, p, k, manifold, density):
        """A NaN row raises ConditioningError; so does ||A|| = 1e8 on V(k,p), k >= 2.

        At k = 1 the 1 x 1 resolvent 1 + a^2 is perfectly conditioned, and on
        G(k,p) such a row lies outside the domain, a silent exit. On G(k,p)
        only the NaN row's `value(1)` raises; its neighbours stay finite.
        """
        target = self._target(manifold, density, p, k)
        X = 0.1 * np.random.default_rng(1).standard_normal((3, target.dim)) / np.sqrt(p)
        nan = X.copy()
        nan[1, -1] = np.nan
        huge = X.copy()
        huge[1, target.n_b] = 1e8
        if manifold == "grassmann":
            value = target.rows(nan)
            with pytest.raises(ConditioningError):
                value(1)
            for j in (0, 2):
                assert value(j) == target(X[j].copy()) > -np.inf
            value = target.rows(huge)
            assert value(1) == -np.inf
            for j in (0, 2):
                assert value(j) == target(X[j].copy()) > -np.inf
            return
        with pytest.raises(ConditioningError):
            target.values_and_gradients(nan)
        if k >= 2:
            with pytest.raises(ConditioningError, match="reciprocal condition number"):
                target.values_and_gradients(huge)
        else:
            values, gradients = target.values_and_gradients(huge)
            assert values[1] > -np.inf and not np.isnan(gradients[1]).any()

    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 2), (50, 3), (200, 5)])
    def test_grassmann_exit_leaves_its_neighbours(self, p, k, density):
        target = self._target("grassmann", density, p, k)
        X = 0.3 * np.random.default_rng(2).standard_normal((5, target.dim)) / np.sqrt(p)
        inside = target.rows(X)
        inside_values = [inside(j) for j in range(5)]
        X[2] *= 10.0 / np.linalg.norm(X[2])
        value = target.rows(X)
        assert value(2) == -np.inf
        for j in (0, 1, 3, 4):
            assert value(j) == inside_values[j] > -np.inf

    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_rows_where_g_is_minus_inf_have_no_gradient(self, manifold):
        """A density's -inf is an exit of its row, as a domain exit is: the others stay.

        On V(k,p) the row's gradient row is NaN and its one-row gradient None;
        on G(k,p) there is no gradient at all, and `rows` reads -inf there.
        """
        def fn(Q):
            return np.where(Q[:, 0, 0] < 0.9, -np.inf, Q[:, 0, 0])

        def value_and_grad_fn(Q):
            G = np.zeros(Q.shape)
            G[:, 0, 0] = 1.0
            return fn(Q), G

        target = PullbackTarget(LogDensity(fn=fn, manifold=manifold,
                                           value_and_grad_fn=value_and_grad_fn),
                                ManifoldDims(6, 2))
        X = 0.05 * np.random.default_rng(4).standard_normal((6, target.dim))
        X[[1, 4], 0 if manifold == "grassmann" else target.n_b] = 0.5
        if manifold == "grassmann":
            value = target.rows(X)
            assert [j for j in range(6) if value(j) == -np.inf] == [1, 4]
            for j in range(6):
                assert value(j) == target(X[j].copy())
            with pytest.raises(ValueError, match=NO_WALL):
                target.values_and_gradients(X)
            return
        values, gradients = target.values_and_gradients(X)
        assert [j for j in range(6) if values[j] == -np.inf] == [1, 4]
        for j in range(6):
            assert values[j] == target.value_and_gradient(X[j].copy())[0]
            assert np.isnan(gradients[j]).all() == (j in (1, 4))
        assert target.value_and_gradient(X[1].copy()) == (-np.inf, None)
        with pytest.raises(DomainError):
            target.gradient(X[4].copy())

    def test_grassmann_frame_rejected_leaves_its_neighbours(self, monkeypatch):
        """A frame GrassmannPoint rejects is an exit of its row only, and g never sees it.

        Inside the domain every frame passes GrassmannPoint's checks, so the
        rejection is forced here for the middle row.
        """
        import cayley_mcmc.densities as densities

        target = self._target("grassmann", "bingham", 6, 2)
        X = 0.1 * np.random.default_rng(3).standard_normal((3, target.dim))
        expected = [target(x.copy()) for x in X]
        assert all(value > -np.inf for value in expected)
        rejected = target.frames(X[1:2])[0]
        real = densities.GrassmannPoint

        def point(dims, Q):
            if np.array_equal(Q, rejected):
                raise DomainError("GrassmannPoint: top block not positive definite")
            return real(dims=dims, Q=Q)

        monkeypatch.setattr(densities, "GrassmannPoint", point)
        seen = []
        g = target.g

        def fn(Q):
            seen.append(Q.copy())
            return g.fn(Q)

        target = PullbackTarget(LogDensity(fn=fn, manifold="grassmann"), target.dims)
        value = target.rows(X)
        assert value(1) == -np.inf
        for j in (0, 2):
            assert value(j) == expected[j]
        assert len(seen) == 2
        for Q, j in zip(seen, (0, 2)):
            assert np.array_equal(Q[0], target.frames(X[j:j + 1])[0])


def same_bits(a, b) -> bool:
    """a and b have the same shape and the same bytes: signed zeros and NaN payloads count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def raised(fn):
    """fn()'s result, or the type and message of the ConditioningError, DomainError or ValueError
    it raised."""
    try:
        return fn()
    except (ConditioningError, DomainError, ValueError) as exc:
        return type(exc), str(exc)


def earlier_stiefel_kernel(params, X, p, k):
    """The fused V(k,p) kernel in its earlier arithmetic, the oracle of the exact rewrites.

    S = I + A^T A - B with B scattered from b, P = solve(S, I), the frame
    [2P - I; (2A)P], g's gradient 2 S Q M (params None: the uniform target)
    and the adjoint gradient with M_b = U - cP, -(M_a + M_a^T) A^T and the
    skew block picked from M_b - M_b^T. Returns (frames, values, gradients).
    """
    n, n_b, eye = X.shape[0], k * (k - 1) // 2, np.eye(k)
    A = X[:, n_b:].reshape(n, k, p - k).swapaxes(1, 2)
    rows, cols = np.tril_indices(k, -1)
    order = np.lexsort((rows, cols))  # column-major strict lower triangle
    rows, cols = rows[order], cols[order]
    B = np.zeros((n, k, k))
    B[:, rows, cols] = X[:, :n_b]
    B[:, cols, rows] = -X[:, :n_b]
    S = eye + A.swapaxes(1, 2) @ A - B
    values = ((p * k - k * (k + 1) // 2 + k * (k - 1) / 4.0) * np.log(2.0)
              - (p - 1) * np.linalg.slogdet(S)[1])
    P = np.linalg.solve(S, eye)
    Q = np.concatenate([2.0 * P - eye, 2.0 * A @ P], axis=-2)
    U = 0.0
    if params is not None:
        SQ = params.S @ Q
        values = (params.m_diag * np.einsum("...ij,...ij->...j", Q, SQ)).sum(axis=-1) + values
        G = 2.0 * SQ * params.m_diag
        Pt = P.swapaxes(-1, -2)
        U = 2.0 * (Pt @ (G[:, :k] + A.swapaxes(-1, -2) @ G[:, k:]) @ Pt)
    cP = (p - 1) * P
    M_b, M_a = U - cP, U + cP
    grad_at = -(M_a + M_a.swapaxes(-1, -2)) @ A.swapaxes(-1, -2)
    if params is not None:
        grad_at += 2.0 * (P @ G[:, k:].swapaxes(-1, -2))
    skew = (M_b - M_b.swapaxes(-1, -2))[:, rows, cols]
    return Q, values, np.concatenate([skew, grad_at.reshape(n, -1)], axis=-1)


class TestExactRewrites:
    """The per-shape plan's constants, and kernels that keep the earlier arithmetic's bits."""

    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_plan_constants_are_read_only(self, manifold):
        from cayley_mcmc.special_matrices import _identity

        target = PullbackTarget(uniform_log_density(manifold), ManifoldDims(7, 3))
        for constant in (*target._skew_gather, _identity(3)):
            with pytest.raises(ValueError, match="read-only"):
                constant[...] = 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_gathered_skew_block_equals_the_scattered_one(self, k):
        """B, gathered from b and negated in place, has the bits of b and -b written into a zero
        matrix: signed zeros, NaN of either sign, infinities and subnormals included."""
        target = PullbackTarget(uniform_log_density(), ManifoldDims(k + 4, k))
        X = np.random.default_rng(k).standard_normal((8, target.dim))
        if target.n_b:
            X[:, 0] = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e300]
        B = skew_at(X, k, target._skew_gather)
        rows, cols = np.tril_indices(k, -1)
        order = np.lexsort((rows, cols))  # column-major strict lower triangle
        rows, cols = rows[order], cols[order]
        for j in range(8):
            expected = np.zeros((k, k))
            expected[rows, cols] = X[j, :target.n_b]
            expected[cols, rows] = -X[j, :target.n_b]
            assert same_bits(B[j], expected)
            assert same_bits(skew_from_vech(X[j, :target.n_b], k), expected)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 2), (50, 3), (200, 5)])
    def test_fused_stiefel_kernel_keeps_the_earlier_arithmetic(self, p, k, density, n):
        """inv for solve, 2[P; AP] - I for [2P - I; 2AP], S Q (2M) for 2 S Q M, the in-place
        doubling of U, 2 P G2^T - (M_a + M_a^T) A^T and the +-1 product for the skew block."""
        rng = np.random.default_rng(p * k + n)
        params = None if density == "uniform" else BinghamParams.from_data(
            rng.standard_normal((3 * p, p)), 1.0, np.linspace(3.0, 1.0, k))
        frames = []
        if params is None:
            g = uniform_log_density()
        else:
            bingham = bingham_log_density(params)

            def value_and_grad_fn(Q):
                frames.append(Q.copy())
                return bingham.value_and_grad_fn(Q)

            g = LogDensity(fn=bingham.fn, manifold="stiefel", value_and_grad_fn=value_and_grad_fn)
        target = PullbackTarget(g, ManifoldDims(p, k))
        for size in (0.05, 0.5, 3.0):
            X = size * rng.standard_normal((n, target.dim)) / np.sqrt(p)
            frames.clear()
            values, gradients = target.values_and_gradients(X)
            Q, expected_values, expected = earlier_stiefel_kernel(params, X, p, k)
            assert same_bits(values, expected_values) and same_bits(gradients, expected)
            assert len(frames) == (params is not None)
            assert not frames or same_bits(frames[0], Q)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("density", ["uniform", "bingham", "fn"])
    def test_non_finite_or_huge_skew_entry(self, density, bad):
        """A non-finite b_l reaches only its own two entries of B, and the row fails as it did
        with B scattered from b: the same value or exception class and message through
        `target(x)`, `rows(X)(j)` and `values_and_gradients`. Rows that `rows` never
        reaches do not raise."""
        dims = ManifoldDims(6, 3)
        params = BinghamParams.from_data(np.random.default_rng(0).standard_normal((20, 6)), 1.0,
                                         np.array([3.0, 2.0, 1.0]))
        g = {"uniform": uniform_log_density(), "bingham": bingham_log_density(params),
             "fn": LogDensity(fn=lambda Q: Q[:, 0, 0], manifold="stiefel")}[density]
        target = PullbackTarget(g, dims)
        X = 0.1 * np.random.default_rng(1).standard_normal((3, target.dim))
        X[1, 1] = bad
        finite = np.isfinite(bad)
        B = skew_at(X, dims.k, target._skew_gather)
        assert np.isfinite(B[[0, 2]]).all()
        assert (~np.isfinite(B[1])).sum() == (0 if finite else 2)
        value = target.rows(X)
        for route in (lambda: target(X[1].copy()), lambda: value(1)):
            got = raised(route)
            if finite and density == "uniform":
                assert got == log_jacobian_stiefel(StiefelCoords.from_vector(dims, X[1]))
            elif finite:
                assert got[0] is ConditioningError
                assert re.fullmatch(r"cayley_forward_stiefel: reciprocal condition number "
                                    r"1\.\d+e-200 below cutoff", got[1])
            elif density == "uniform" and np.isnan(bad):
                assert got == (ConditioningError, "pullback_log_density: log target is NaN")
            elif density == "uniform":
                # An infinite b_l makes S singular in floating point: a silent rejection.
                assert got == -np.inf
            else:
                assert got == (ConditioningError, "cayley_forward_stiefel: non-finite coordinates")
        for j in (0, 2):
            assert value(j) == target(X[j].copy())
        if target.has_gradient:
            got = raised(lambda: target.values_and_gradients(X))
            if finite:
                assert got[0] is ConditioningError
                assert re.fullmatch(r"PullbackTarget\.value_and_gradient: reciprocal condition "
                                    r"number 1\.\d+e-200 below cutoff", got[1])
            else:
                assert got == (ConditioningError,
                               "PullbackTarget.value_and_gradient: non-finite coordinates")


class TestOneStiefelFrame:
    """Every V(k,p) route takes its frame from one guarded P = S^{-1}, so the typed value, the
    stacked rows, the fused kernel and the frame maps agree bit for bit."""

    @pytest.mark.parametrize("density", ["uniform", "bingham"])
    @pytest.mark.parametrize("p,k", [(2, 1), (4, 2), (50, 3), (200, 5)])
    def test_value_rows_and_frames_match_the_fused_kernel(self, p, k, density):
        rng = np.random.default_rng(7 * p + k)
        frames = []
        if density == "uniform":
            g = uniform_log_density()
        else:
            bingham = bingham_log_density(BinghamParams.from_data(
                rng.standard_normal((3 * p, p)), 1.0, np.linspace(3.0, 1.0, k)))

            def value_and_grad_fn(Q):
                frames.append(Q.copy())
                return bingham.value_and_grad_fn(Q)

            g = LogDensity(fn=bingham.fn, manifold="stiefel", value_and_grad_fn=value_and_grad_fn)
        target = PullbackTarget(g, ManifoldDims(p, k))
        X = rng.standard_normal((20, target.dim)) / np.sqrt(p)
        values = target.values_and_gradients(X)[0]
        stacked = frames[:]
        value = target.rows(X)
        for j, x in enumerate(X):
            frames.clear()
            assert target(x) == target.value_and_gradient(x)[0]
            assert value(j) == values[j]
            if density == "bingham":
                assert same_bits(target.point(x).Q, frames[0][0])
                assert same_bits(cayley_forward_stiefel(target.coords(x)).Q, frames[0][0])
        if density == "bingham":
            assert same_bits(target.frames(X), stacked[0])


class TestEntryMarginal:
    def test_pdf_integrates_to_one(self):
        m = EntryMarginal(10)
        grid = np.linspace(-1, 1, 20001)
        assert abs(np.trapezoid(m.pdf(grid), grid) - 1.0) < 1e-6

    def test_cdf_endpoints(self):
        m = EntryMarginal(7)
        assert m.cdf(-1.0) == 0.0
        assert m.cdf(1.0) == 1.0
        assert abs(m.cdf(0.0) - 0.5) < 1e-12

    def test_cdf_type_follows_input_not_size(self):
        """A float for a scalar; an array of the input's shape for an array, even of one entry."""
        m = EntryMarginal(7)
        assert type(m.cdf(0.3)) is float and type(m.cdf(np.float64(0.3))) is float
        for x in ([0.3], np.array([0.3]), np.array([[0.3, -0.2]])):
            out = m.cdf(x)
            assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
            assert out.ravel().tolist() == [m.cdf(v) for v in np.ravel(x).tolist()]

    def test_log_pdf_consistent_with_pdf(self):
        m = EntryMarginal(8)
        for x in (-0.5, 0.0, 0.7):
            assert abs(np.exp(m.log_pdf(x)) - float(m.pdf(np.array(x)))) < 1e-12
        assert m.log_pdf(1.5) == -np.inf
        assert entry_marginal_log_pdf(0.2, 8) == m.log_pdf(0.2)

    @pytest.mark.parametrize("p", [2, 3, 5, 53])
    def test_exact_law_matches_quadrature(self, p):
        """The incomplete-beta CDF and beta normalizer against numerical quadrature."""
        m = EntryMarginal(p)
        density = lambda x: (1.0 - x * x) ** (0.5 * (p - 3))
        norm = integrate.quad(density, -1.0, 1.0)[0]
        assert m.pdf(np.array(0.3)) == pytest.approx(density(0.3) / norm, rel=1e-9)
        grid = np.array([-0.999, -0.7, -0.2, -1e-3, 0.0, 0.05, 0.4, 0.9])
        oracle = [integrate.quad(density, -1.0, x)[0] / norm for x in grid]
        assert np.max(np.abs(m.cdf(grid) - oracle)) < 1e-9
        assert m.cdf(-2.0) == 0.0 and m.cdf(2.0) == 1.0

    @pytest.mark.parametrize("p,k", [(5, 3), (20, 2)])
    def test_matches_exact_haar_sampling(self, p, k):
        """KS distance against direct Gram-Schmidt draws must be small."""
        rng = np.random.default_rng(42)
        samples = np.array([haar_stiefel(p, k, rng).Q[0, 0] for _ in range(4000)])
        assert ks_statistic(samples, EntryMarginal(p).cdf) < 0.035
