"""Forward/inverse map consistency and domain handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_mcmc.cayley import (
    GrassmannCoords,
    GrassmannPoint,
    ManifoldDims,
    StiefelCoords,
    StiefelPoint,
    canonicalize_grassmann,
    cayley_forward_dense,
    cayley_forward_grassmann,
    cayley_forward_stiefel,
    cayley_inverse_grassmann,
    cayley_inverse_stiefel,
    embed_skew,
    grassmann_domain_margin,
)
from cayley_mcmc.errors import CayleyError, ConditioningError, DomainError

DIMS = [(3, 1), (5, 3), (8, 4), (20, 5)]


def random_stiefel_coords(dims, rng, scale=1.0):
    return StiefelCoords.from_vector(dims, scale * rng.standard_normal(dims.d_v))


def random_grassmann_coords(dims, rng, radius=0.9):
    psi = rng.standard_normal(dims.d_g)
    psi *= radius / max(1.0, np.linalg.norm(psi))
    return GrassmannCoords.from_vector(dims, psi)


def near_edge_coords(p, k, lam_max, seed):
    """Grassmann coordinates whose largest eigenvalue of A^T A is lam_max."""
    A = np.random.default_rng(seed).standard_normal((p - k, k))
    A *= np.sqrt(lam_max) / np.linalg.norm(A, 2)
    return GrassmannCoords(dims=ManifoldDims(p, k), a_vec=A.reshape(-1, order="F"))


SHAPES = st.integers(2, 20).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1)))


class TestDims:
    def test_dimension_formulas(self):
        d = ManifoldDims(7, 3)
        assert d.d_v == 7 * 3 - 6
        assert d.d_g == 4 * 3
        assert d.n_b == 3

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ManifoldDims(3, 3)
        with pytest.raises(ValueError):
            ManifoldDims(3, 0)


class TestForwardStiefel:
    @pytest.mark.parametrize("p,k", DIMS)
    def test_output_is_orthonormal(self, p, k):
        rng = np.random.default_rng(p + k)
        dims = ManifoldDims(p, k)
        Q = cayley_forward_stiefel(random_stiefel_coords(dims, rng)).Q
        assert np.max(np.abs(Q.T @ Q - np.eye(k))) < 1e-12

    @pytest.mark.parametrize("p,k", DIMS)
    def test_block_formula_matches_dense_resolvent(self, p, k):
        rng = np.random.default_rng(10 * p + k)
        dims = ManifoldDims(p, k)
        phi = random_stiefel_coords(dims, rng)
        Q_block = cayley_forward_stiefel(phi).Q
        Q_dense = cayley_forward_dense(phi)
        assert np.max(np.abs(Q_block - Q_dense)) < 1e-12

    def test_zero_coordinates_give_truncated_identity(self):
        dims = ManifoldDims(6, 2)
        phi = StiefelCoords.from_vector(dims, np.zeros(dims.d_v))
        Q = cayley_forward_stiefel(phi).Q
        assert np.array_equal(Q, np.eye(6)[:, :2])


class TestRoundTripStiefel:
    @pytest.mark.parametrize("p,k", DIMS)
    def test_coords_round_trip(self, p, k):
        rng = np.random.default_rng(100 + p * k)
        dims = ManifoldDims(p, k)
        for _ in range(20):
            phi = random_stiefel_coords(dims, rng)
            back = cayley_inverse_stiefel(cayley_forward_stiefel(phi))
            assert np.max(np.abs(back.phi - phi.phi)) < 1e-10

    @pytest.mark.parametrize("p,k", DIMS)
    def test_point_round_trip(self, p, k):
        rng = np.random.default_rng(200 + p * k)
        dims = ManifoldDims(p, k)
        for _ in range(20):
            Q = cayley_forward_stiefel(random_stiefel_coords(dims, rng))
            back = cayley_forward_stiefel(cayley_inverse_stiefel(Q))
            assert np.max(np.abs(back.Q - Q.Q)) < 1e-10

    def test_inverse_rejects_reflected_frame(self):
        """I + Q1 singular means Q is outside the image of the map."""
        dims = ManifoldDims(3, 1)
        Q = StiefelPoint(dims=dims, Q=np.array([[-1.0], [0.0], [0.0]]))
        with pytest.raises(DomainError):
            cayley_inverse_stiefel(Q)


class TestGrassmann:
    @pytest.mark.parametrize("p,k", DIMS)
    def test_round_trip(self, p, k):
        rng = np.random.default_rng(300 + p * k)
        dims = ManifoldDims(p, k)
        for _ in range(20):
            psi = random_grassmann_coords(dims, rng)
            back = cayley_inverse_grassmann(cayley_forward_grassmann(psi))
            assert np.max(np.abs(back.psi - psi.psi)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.floats(0.9, 1.0 - 1e-6), st.integers(0, 2**32 - 1))
    def test_near_domain_edge(self, pk, lam_max, seed):
        """The spectral forward map matches the dense resolvent and inverts as lam_max -> 1."""
        psi = near_edge_coords(*pk, lam_max, seed)
        Q = cayley_forward_grassmann(psi)
        assert np.max(np.abs(Q.Q - cayley_forward_dense(psi))) < 1e-12
        assert np.array_equal(Q.top_block, Q.top_block.T)
        back = cayley_inverse_grassmann(Q)
        assert np.max(np.abs(back.psi - psi.psi)) < 1e-10

    def test_forward_output_has_spd_top_block(self):
        rng = np.random.default_rng(4)
        dims = ManifoldDims(6, 2)
        Q = cayley_forward_grassmann(random_grassmann_coords(dims, rng))
        Q1 = Q.top_block
        assert np.max(np.abs(Q1 - Q1.T)) < 1e-12
        assert np.linalg.eigvalsh(Q1).min() > 0

    def test_forward_rejects_out_of_domain(self):
        dims = ManifoldDims(3, 1)
        psi = GrassmannCoords.from_vector(dims, np.array([1.0, 1.0]))
        assert grassmann_domain_margin(psi) <= 0
        with pytest.raises(DomainError):
            cayley_forward_grassmann(psi)

    def test_domain_margin_sign(self):
        dims = ManifoldDims(4, 2)
        inside = GrassmannCoords.from_vector(dims, 0.1 * np.ones(4))
        assert grassmann_domain_margin(inside) > 0

    def test_canonicalize_preserves_column_space(self):
        rng = np.random.default_rng(8)
        dims = ManifoldDims(7, 3)
        Q = cayley_forward_stiefel(random_stiefel_coords(dims, rng, scale=0.5))
        rep = canonicalize_grassmann(Q)
        # same column space: projectors agree
        P1 = Q.Q @ Q.Q.T
        P2 = rep.Q @ rep.Q.T
        assert np.max(np.abs(P1 - P2)) < 1e-12

    def test_canonicalize_fixes_representatives(self):
        rng = np.random.default_rng(9)
        dims = ManifoldDims(6, 2)
        rep = cayley_forward_grassmann(random_grassmann_coords(dims, rng))
        again = canonicalize_grassmann(StiefelPoint(dims=dims, Q=rep.Q))
        assert np.max(np.abs(again.Q - rep.Q)) < 1e-12


class TestNonFiniteCoordinates:
    """A NaN coordinate raises ConditioningError, which library callers catch as CayleyError."""

    @pytest.mark.parametrize("index", [0, 3])
    def test_stiefel_forward(self, index):
        dims = ManifoldDims(4, 2)
        phi = np.zeros(dims.d_v)
        phi[index] = np.nan  # index 0 is the skew block b, index 3 an entry of A
        with pytest.raises(ConditioningError) as info:
            cayley_forward_stiefel(StiefelCoords.from_vector(dims, phi))
        assert isinstance(info.value, CayleyError)

    def test_grassmann_forward(self):
        dims = ManifoldDims(4, 2)
        psi = np.zeros(dims.d_g)
        psi[0] = np.nan
        with pytest.raises(ConditioningError) as info:
            cayley_forward_grassmann(GrassmannCoords.from_vector(dims, psi))
        assert isinstance(info.value, CayleyError)


class TestPointValidation:
    def test_rejects_non_orthonormal(self):
        dims = ManifoldDims(4, 2)
        with pytest.raises(ValueError):
            StiefelPoint(dims=dims, Q=np.ones((4, 2)))

    def test_grassmann_point_requires_spd_top_block(self):
        dims = ManifoldDims(3, 1)
        with pytest.raises(DomainError):
            GrassmannPoint(dims=dims, Q=np.array([[-1.0], [0.0], [0.0]]))

    def test_embed_skew_is_skew(self):
        rng = np.random.default_rng(11)
        dims = ManifoldDims(5, 2)
        X = embed_skew(random_stiefel_coords(dims, rng))
        assert np.max(np.abs(X + X.T)) == 0.0


class TestCoordinateContainers:
    def test_from_vector_round_trip(self):
        dims = ManifoldDims(5, 2)
        phi = np.arange(float(dims.d_v))
        coords = StiefelCoords.from_vector(dims, phi)
        assert np.array_equal(coords.phi, phi)
        assert coords.b_matrix().shape == (2, 2)
        assert coords.a_matrix().shape == (3, 2)

    def test_wrong_length_rejected(self):
        dims = ManifoldDims(5, 2)
        with pytest.raises(ValueError):
            StiefelCoords.from_vector(dims, np.zeros(3))
        with pytest.raises(ValueError):
            GrassmannCoords.from_vector(dims, np.zeros(3))
