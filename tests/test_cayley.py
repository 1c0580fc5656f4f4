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
    check_frames,
    embed_skew,
    grassmann_domain_margin,
)
from cayley_mcmc.densities import PullbackTarget, uniform_log_density
from cayley_mcmc.errors import CayleyError, ConditioningError, DomainError
from cayley_mcmc.jacobian import derivative_stiefel

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


class TestResolventGuard:
    """S = I + A^T A - B has sigma_min >= 1, so rcond falls below 1e-14 only for huge A."""

    def test_ill_conditioned_forward_map_raises(self):
        dims = ManifoldDims(4, 2)
        phi = StiefelCoords(dims=dims, b=np.zeros(1), a_vec=np.array([1e8, 0.0, 0.0, 0.0]))
        with pytest.raises(ConditioningError, match="reciprocal condition number"):
            cayley_forward_stiefel(phi)
        with pytest.raises(ConditioningError, match="reciprocal condition number"):
            derivative_stiefel(phi)

    @pytest.mark.parametrize("size", [1e6, 1e7])
    def test_large_but_well_conditioned_passes(self, size):
        """At 1e6 the cheap bound clears S; at 1e7 the SVD runs and finds rcond 1."""
        dims = ManifoldDims(4, 2)
        phi = StiefelCoords(dims=dims, b=np.array([0.5]), a_vec=size * np.array([1.0, 0.0, 0.0, 1.0]))
        Q = cayley_forward_stiefel(phi).Q
        assert np.max(np.abs(Q.T @ Q - np.eye(2))) < 1e-10


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

    @pytest.mark.parametrize("p,k", [(4, 2), (6, 3), (9, 4)])
    def test_inverse_rejects_minus_one_eigenvalue(self, p, k):
        """A top block Q1 = V diag(-1, cos theta) V^T makes I + Q1 singular at k >= 2."""
        rng = np.random.default_rng(p * k)
        theta = rng.uniform(0.2, 1.3, k - 1)
        top = np.diag(np.concatenate([[-1.0], np.cos(theta)]))
        bottom = np.zeros((p - k, k))
        bottom[np.arange(k - 1), np.arange(1, k)] = np.sin(theta)
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        Q = StiefelPoint(dims=ManifoldDims(p, k), Q=np.vstack([V @ top @ V.T, bottom @ V.T]))
        with pytest.raises(DomainError):
            cayley_inverse_stiefel(Q)

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.floats(2.0, 4.0), st.integers(0, 2**32 - 1))
    def test_round_trip_near_singular_top_block(self, pk, log_t, seed):
        """phi -> Q -> phi stays accurate as I + Q1 approaches singularity.

        With ||A||_2^2 = t, I + Q1 = 2 S^{-1} has s = sigma_min(I + Q1)
        = 2/sigma_max(S) <= 2/(1 + t). The inverse solves with I + Q1 and
        multiplies Q2 by I + F = 2 (I + Q1)^{-1}, of norm 2/s, so the error
        in phi is a multiple of eps/s times (1 + 2/s). t stops at 1e4, where
        the forward map's max |Q^T Q - I| (about 1e-12) is still far below
        the StiefelPoint tolerance.
        """
        p, k = pk
        dims = ManifoldDims(p, k)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((p - k, k))
        A *= np.sqrt(10.0**log_t) / np.linalg.norm(A, 2)
        phi = StiefelCoords(dims=dims, b=rng.standard_normal(dims.n_b),
                            a_vec=A.reshape(-1, order="F"))
        Q = cayley_forward_stiefel(phi)
        s = np.linalg.svd(np.eye(k) + Q.top_block, compute_uv=False)[-1]
        assert s <= (1.0 + 1e-6) * 2.0 / (1.0 + 10.0**log_t)
        back = cayley_inverse_stiefel(Q)
        eps = np.finfo(float).eps
        assert np.max(np.abs(back.phi - phi.phi)) <= 8.0 * (eps / s) * (1.0 + 2.0 / s)


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

    @pytest.mark.parametrize("point_type", [StiefelPoint, GrassmannPoint])
    @pytest.mark.parametrize("p,k", [(4, 2), (6, 3)])
    def test_rejects_nan_frames(self, p, k, point_type):
        """A NaN fails every check: an all-NaN frame, or one with a NaN row in either block,
        raises the orthonormality ValueError, and LAPACK never sees the NaN top block. So does
        a stack whose second frame is NaN, through `check_frames` and `PullbackTarget.frames`."""
        dims = ManifoldDims(p, k)
        grassmann = point_type is GrassmannPoint
        good = np.eye(p)[:, :k]
        for row in (slice(None), 0, p - 1):
            Q = good.copy()
            Q[row] = np.nan
            with pytest.raises(ValueError, match="not orthonormal: .* = nan"):
                point_type(dims=dims, Q=Q)
        stack = np.stack([good, np.full((p, k), np.nan), good])
        with pytest.raises(ValueError, match="not orthonormal: .* = nan"):
            check_frames(stack, grassmann=grassmann)
        target = PullbackTarget(uniform_log_density("grassmann" if grassmann else "stiefel"),
                                dims)
        target._frames = lambda X: stack
        with pytest.raises(ValueError, match="not orthonormal: .* = nan"):
            target.frames(np.zeros((3, target.dim)))

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
