"""Derivative matrices and the log-Jacobian routes against the naive oracle."""

import numpy as np
import pytest

from cayley_mcmc.cayley import GrassmannCoords, ManifoldDims, StiefelCoords, cayley_forward_dense
from cayley_mcmc.errors import DomainError
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
