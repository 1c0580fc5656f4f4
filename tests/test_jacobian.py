"""Derivative matrices and the log-Jacobian routes against the naive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import ortho_group

from cayley_mcmc.cayley import GrassmannCoords, ManifoldDims, StiefelCoords, cayley_forward_dense
from cayley_mcmc.densities import LogDensity, PullbackTarget, uniform_log_density
from cayley_mcmc.errors import ConditioningError, DomainError
from cayley_mcmc.jacobian import (
    LOG2,
    derivative_grassmann,
    derivative_stiefel,
    grad_log_jacobian_stiefel,
    log_jacobian_block_grassmann,
    log_jacobian_block_stiefel,
    log_jacobian_naive,
    log_jacobian_stiefel,
)
from cayley_mcmc.special_matrices import gamma_stiefel


def stiefel_coords(p, k, rng, scale=1.0):
    dims = ManifoldDims(p, k)
    return StiefelCoords.from_vector(dims, scale * rng.standard_normal(dims.d_v))


def grassmann_coords(p, k, rng, radius=0.8):
    dims = ManifoldDims(p, k)
    psi = rng.standard_normal(dims.d_g)
    psi *= radius / max(1.0, np.linalg.norm(psi))
    return GrassmannCoords.from_vector(dims, psi)


def near_edge_coords(p, k, lam_max, seed):
    """Grassmann coordinates whose largest eigenvalue of A^T A is lam_max."""
    A = np.random.default_rng(seed).standard_normal((p - k, k))
    A *= np.sqrt(lam_max) / np.linalg.norm(A, 2)
    return GrassmannCoords(dims=ManifoldDims(p, k), a_vec=A.reshape(-1, order="F"))


SHAPES = st.integers(2, 20).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1)))


def fd_derivative(forward, vector, make_coords, h=1e-6):
    """Central finite differences of a vectorized forward map."""
    base = forward(make_coords(vector))
    D = np.empty((base.size, vector.size))
    for j in range(vector.size):
        e = np.zeros_like(vector)
        e[j] = h
        hi = forward(make_coords(vector + e))
        lo = forward(make_coords(vector - e))
        D[:, j] = (hi - lo).reshape(-1, order="F") / (2 * h)
    return D


class TestDerivativeMatrix:
    @pytest.mark.parametrize("p,k", [(4, 2), (6, 3)])
    def test_stiefel_matches_finite_differences(self, p, k):
        rng = np.random.default_rng(p * k)
        dims = ManifoldDims(p, k)
        phi = rng.standard_normal(dims.d_v)
        D = derivative_stiefel(StiefelCoords.from_vector(dims, phi)).matrix
        D_fd = fd_derivative(cayley_forward_dense, phi,
                             lambda v: StiefelCoords.from_vector(dims, v))
        assert np.max(np.abs(D - D_fd)) < 1e-6

    @pytest.mark.parametrize("p,k", [(4, 2), (6, 3)])
    def test_grassmann_matches_finite_differences(self, p, k):
        rng = np.random.default_rng(10 + p * k)
        dims = ManifoldDims(p, k)
        psi = grassmann_coords(p, k, rng).psi
        D = derivative_grassmann(GrassmannCoords.from_vector(dims, psi)).matrix
        D_fd = fd_derivative(cayley_forward_dense, psi,
                             lambda v: GrassmannCoords.from_vector(dims, v))
        assert np.max(np.abs(D - D_fd)) < 1e-6

    def test_matches_kronecker_formula(self):
        """Column assembly equals 2 [I^T (I-X)^-T kron (I-X)^-1] Gamma."""
        rng = np.random.default_rng(3)
        p, k = 5, 2
        phi = stiefel_coords(p, k, rng)
        from cayley_mcmc.cayley import embed_skew
        X = embed_skew(phi)
        Cinv = np.linalg.inv(np.eye(p) - X)
        lift = np.kron(Cinv[:, :k].T, Cinv)
        dense = 2.0 * lift @ gamma_stiefel(p, k).toarray().astype(float)
        D = derivative_stiefel(phi).matrix
        assert np.max(np.abs(D - dense)) < 1e-12

    def test_grassmann_rejects_out_of_domain(self):
        dims = ManifoldDims(3, 1)
        with pytest.raises(DomainError):
            derivative_grassmann(GrassmannCoords.from_vector(dims, np.array([1.0, 1.0])))


class TestJacobianRoutes:
    """The naive definition is the oracle; every other route must match it."""

    @pytest.mark.parametrize("p,k", [(4, 2), (5, 3), (6, 3), (8, 4)])
    def test_block_equals_naive_stiefel(self, p, k):
        rng = np.random.default_rng(p + 7 * k)
        for _ in range(20):
            phi = stiefel_coords(p, k, rng)
            naive = log_jacobian_naive(derivative_stiefel(phi))
            block = log_jacobian_block_stiefel(phi)
            assert abs(block - naive) <= 1e-8 * max(1.0, abs(naive))

    @pytest.mark.parametrize("p,k", [(4, 2), (5, 3), (6, 3), (8, 4)])
    def test_block_equals_naive_grassmann(self, p, k):
        rng = np.random.default_rng(p + 11 * k)
        for _ in range(20):
            psi = grassmann_coords(p, k, rng)
            naive = log_jacobian_naive(derivative_grassmann(psi))
            block = log_jacobian_block_grassmann(psi)
            assert abs(block - naive) <= 1e-8 * max(1.0, abs(naive))

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.floats(0.9, 1.0 - 1e-6), st.integers(0, 2**32 - 1))
    def test_grassmann_closed_form_near_domain_edge(self, pk, lam_max, seed):
        """The eigenvalue formula matches the oracle as lam_max(A^T A) -> 1."""
        psi = near_edge_coords(*pk, lam_max, seed)
        naive = log_jacobian_naive(derivative_grassmann(psi))
        assert abs(log_jacobian_block_grassmann(psi) - naive) <= 1e-8 * max(1.0, abs(naive))

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 3), (6, 2), (7, 3), (12, 5)])
    def test_grassmann_equivariance(self, p, k):
        """log J(U A W^T) = log J(A) for orthogonal U and W, on both routes.

        A -> U A W^T conjugates the Cayley map by an isometry of R^p, which
        is why J depends on the eigenvalues of A^T A alone.
        """
        rng = np.random.default_rng(p * 17 + k)
        dims = ManifoldDims(p, k)
        for _ in range(5):
            psi = grassmann_coords(p, k, rng)
            U = ortho_group.rvs(p - k, random_state=rng) if p - k > 1 else -np.eye(1)
            W = ortho_group.rvs(k, random_state=rng) if k > 1 else -np.eye(1)
            moved = GrassmannCoords(dims=dims,
                                    a_vec=(U @ psi.a_matrix() @ W.T).reshape(-1, order="F"))
            for route in (log_jacobian_block_grassmann,
                          lambda c: log_jacobian_naive(derivative_grassmann(c))):
                base = route(psi)
                assert abs(route(moved) - base) <= 1e-10 * max(1.0, abs(base))

    def test_grassmann_domain_and_nan(self):
        dims = ManifoldDims(3, 1)
        with pytest.raises(DomainError):
            log_jacobian_block_grassmann(GrassmannCoords.from_vector(dims, np.array([1.0, 0.0])))
        with pytest.raises(ConditioningError):
            log_jacobian_block_grassmann(GrassmannCoords.from_vector(dims, np.array([np.nan, 0.0])))

    @pytest.mark.parametrize("p,k", [(4, 2), (6, 3), (12, 5), (50, 3)])
    def test_closed_form_equals_block(self, p, k):
        """The block-route name is the closed form; check it against the oracle."""
        assert log_jacobian_block_stiefel is log_jacobian_stiefel
        rng = np.random.default_rng(p * 13 + k)
        for _ in range(10):
            phi = stiefel_coords(p, k, rng)
            naive = log_jacobian_naive(derivative_stiefel(phi))
            assert abs(log_jacobian_stiefel(phi) - naive) <= 1e-8 * max(1.0, abs(naive))

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 2), (8, 3)])
    def test_value_at_zero_coordinates(self, p, k):
        """J(0) = 2^{d_V} 2^{k(k-1)/4} exactly."""
        dims = ManifoldDims(p, k)
        phi = StiefelCoords.from_vector(dims, np.zeros(dims.d_v))
        expected = (dims.d_v + k * (k - 1) / 4.0) * LOG2
        assert abs(log_jacobian_block_stiefel(phi) - expected) < 1e-12
        assert abs(log_jacobian_stiefel(phi) - expected) < 1e-12

    def test_scalar_case_closed_form(self):
        """On V(1,2): J(a) = 2 / (1 + a^2)."""
        dims = ManifoldDims(2, 1)
        for a in (0.0, 0.5, -1.7, 3.0):
            phi = StiefelCoords.from_vector(dims, np.array([a]))
            assert abs(log_jacobian_stiefel(phi)
                       - (np.log(2.0) - np.log1p(a * a))) < 1e-12


class TestClosedFormGradient:
    @pytest.mark.parametrize("p,k", [(4, 2), (6, 3), (10, 4)])
    def test_matches_finite_differences(self, p, k):
        rng = np.random.default_rng(p + k)
        dims = ManifoldDims(p, k)
        phi_vec = rng.standard_normal(dims.d_v)
        grad = grad_log_jacobian_stiefel(StiefelCoords.from_vector(dims, phi_vec))
        for j in range(dims.d_v):
            e = np.zeros(dims.d_v)
            e[j] = 1e-6
            fd = (log_jacobian_stiefel(StiefelCoords.from_vector(dims, phi_vec + e))
                  - log_jacobian_stiefel(StiefelCoords.from_vector(dims, phi_vec - e))) / 2e-6
            assert abs(grad[j] - fd) < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, 1e200])
    def test_unusable_coordinates_raise(self, bad):
        """A NaN or overflowing coordinate raises, as the target's gradient does."""
        dims = ManifoldDims(4, 2)
        phi_vec = np.full(dims.d_v, 0.1)
        phi_vec[-1] = bad
        with pytest.raises(ConditioningError):
            grad_log_jacobian_stiefel(StiefelCoords.from_vector(dims, phi_vec))
        with pytest.raises(ConditioningError):
            PullbackTarget(uniform_log_density("stiefel"), dims).gradient(phi_vec)


class TestGrassmannGradient:
    """The spectral gradients on G(k,p) near the domain edge, against oracles."""

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.floats(0.9, 1.0 - 1e-6), st.integers(0, 2**32 - 1))
    def test_chain_rule_matches_derivative_matrix(self, pk, lam_max, seed):
        """The k x k VJP equals D^T vec(G) with D the dense derivative matrix."""
        psi = near_edge_coords(*pk, lam_max, seed)
        C = np.random.default_rng(seed + 1).standard_normal((psi.dims.p, psi.dims.k))
        fn = lambda Q: np.sum(C * Q, axis=(-2, -1))
        g = LogDensity(fn=fn, manifold="grassmann",
                       value_and_grad_fn=lambda Q: (fn(Q), np.broadcast_to(C, Q.shape)))
        log_j = PullbackTarget(uniform_log_density("grassmann"), psi.dims)
        chain = PullbackTarget(g, psi.dims).gradient(psi.psi) - log_j.gradient(psi.psi)
        oracle = derivative_grassmann(psi).matrix.T @ C.reshape(-1, order="F")
        assert np.max(np.abs(chain - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.floats(0.9, 1.0 - 1e-6), st.integers(0, 2**32 - 1))
    def test_log_jacobian_gradient_matches_central_differences(self, pk, lam_max, seed):
        psi = near_edge_coords(*pk, lam_max, seed)
        # A step of h moves lam_max by at most 2h + h^2, so x +- h stays in the domain.
        h = min(1e-6, 0.1 * (1.0 - lam_max))
        x = psi.psi
        fd = np.empty_like(x)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            fd[j] = (log_jacobian_block_grassmann(GrassmannCoords(psi.dims, x + e))
                     - log_jacobian_block_grassmann(GrassmannCoords(psi.dims, x - e))) / (2 * h)
        grad = PullbackTarget(uniform_log_density("grassmann"), psi.dims).gradient(psi.psi)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


class TestVolume:
    """The pullback of the uniform density integrates to the manifold's volume.

    At k = 1 the frame is a unit vector and log J depends on |phi| alone, so
    the integral over the coordinates is radial: the area of S^{p-2} times
    the integral of J(r e_1) r^{p-2} over r. On V(1,p) it runs over all r
    and gives vol S^{p-1} = 2 pi^{p/2} / Gamma(p/2); on G(1,p) it runs over
    the domain r < 1, and r -> 1/r maps the integrand onto itself, so it
    gives half of that.
    """

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    @pytest.mark.parametrize("manifold,upper,share", [("stiefel", np.inf, 1.0),
                                                      ("grassmann", 1.0, 0.5)])
    def test_k1_volume_is_sphere_area(self, p, manifold, upper, share):
        target = PullbackTarget(uniform_log_density(manifold), ManifoldDims(p, 1))
        e1 = np.eye(p - 1)[0]
        radial = integrate.quad(lambda r: np.exp(target(r * e1)) * r ** (p - 2), 0.0, upper,
                                epsabs=0.0, epsrel=1e-13)[0]
        volume = 2.0 * np.pi ** ((p - 1) / 2) / special.gamma((p - 1) / 2) * radial
        sphere = 2.0 * np.pi ** (p / 2) / special.gamma(p / 2)
        assert volume == pytest.approx(share * sphere, rel=1e-12)
