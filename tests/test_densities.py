"""Target densities, coordinate pullbacks, and the exact entry marginal."""

import numpy as np
import pytest
from scipy import stats

from cayley_mcmc.cayley import (
    GrassmannCoords,
    ManifoldDims,
    StiefelCoords,
    cayley_forward_stiefel,
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
from cayley_mcmc.errors import ConditioningError
from cayley_mcmc.jacobian import log_jacobian_block_grassmann, log_jacobian_stiefel


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

    def test_grassmann_pullback_in_domain(self):
        dims = ManifoldDims(4, 2)
        coords = GrassmannCoords.from_vector(dims, 0.2 * np.ones(4))
        val = pullback_log_density(uniform_log_density("grassmann"), coords)
        assert val == pytest.approx(log_jacobian_block_grassmann(coords), abs=1e-12)

    @pytest.mark.parametrize("manifold", ["stiefel", "grassmann"])
    def test_name_uniform_does_not_drop_fn(self, manifold):
        """The Jacobian-only shortcut keys on an unset fn, not on the name."""
        dims = ManifoldDims(4, 2)
        g = LogDensity(fn=lambda q: 1e6, manifold=manifold, name="uniform")
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
        target = PullbackTarget(LogDensity(fn=lambda q: float(q.Q[0, 0]), manifold=manifold),
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

    def test_gradient_unavailable_on_grassmann(self):
        dims = ManifoldDims(6, 2)
        t_g = PullbackTarget(uniform_log_density("grassmann"), dims)
        assert not t_g.has_gradient
        with pytest.raises(ValueError):
            t_g.gradient(np.zeros(t_g.dim))

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
                             grad_fn=bingham.grad_fn)
        v = rng.standard_normal(dims.d_v)
        expected = PullbackTarget(bingham, dims).gradient(v)
        assert np.array_equal(PullbackTarget(renamed, dims).gradient(v), expected)


class TestEntryMarginal:
    def test_pdf_integrates_to_one(self):
        m = EntryMarginal(10, 3)
        grid = np.linspace(-1, 1, 20001)
        assert abs(np.trapezoid(m.pdf(grid), grid) - 1.0) < 1e-6

    def test_cdf_endpoints(self):
        m = EntryMarginal(7, 2)
        assert m.cdf(-1.0) == 0.0
        assert m.cdf(1.0) == 1.0
        assert abs(m.cdf(0.0) - 0.5) < 1e-12

    def test_log_pdf_consistent_with_pdf(self):
        m = EntryMarginal(8, 3)
        for x in (-0.5, 0.0, 0.7):
            assert abs(np.exp(m.log_pdf(x)) - float(m.pdf(np.array(x)))) < 1e-12
        assert m.log_pdf(1.5) == -np.inf
        assert entry_marginal_log_pdf(0.2, 8, 3) == m.log_pdf(0.2)

    @pytest.mark.parametrize("p,k", [(5, 3), (20, 2)])
    def test_matches_exact_haar_sampling(self, p, k):
        """KS distance against direct Gram-Schmidt draws must be small."""
        rng = np.random.default_rng(42)
        samples = np.array([haar_stiefel(p, k, rng).Q[0, 0] for _ in range(4000)])
        assert ks_statistic(samples, EntryMarginal(p, k).cdf) < 0.035
