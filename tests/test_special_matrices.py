"""Exactness tests for the coordinate layout and the structural matrices.

Everything here is integer arithmetic, so comparisons are exact, not
approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_mcmc.cayley import (
    GrassmannCoords,
    ManifoldDims,
    StiefelCoords,
    embed_skew,
    embed_skew_grassmann,
)
from cayley_mcmc.special_matrices import (
    commutation_matrix,
        dtilde_matrix,
    gamma_grassmann,
    gamma_stiefel,
    skew_from_vech,
    transpose_perm,
    unvec,
    vec,
    vech_strict,
)


def _embed_skew(b_vec, a_mat, p, k):
    B = skew_from_vech(b_vec, k)
    X = np.zeros((p, p))
    X[:k, :k] = B
    X[k:, :k] = a_mat
    X[:k, k:] = -a_mat.T
    return X


def _skew_loop(b, n):
    """Reference packing: strict subdiagonal filled column by column."""
    B = np.zeros((n, n))
    l = 0
    for j in range(n):
        for i in range(j + 1, n):
            B[i, j], B[j, i] = b[l], -b[l]
            l += 1
    return B


class TestVecOps:
    def test_vec_is_column_major(self):
        M = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(M), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 3))
        assert np.array_equal(unvec(vec(M), 4, 3), M)

    def test_vech_strict_extracts_subdiagonal(self):
        M = np.arange(9.0).reshape(3, 3)
        # column-major over strict subdiagonal: (1,0), (2,0), (2,1)
        assert np.array_equal(vech_strict(M), np.array([3.0, 6.0, 7.0]))

    def test_skew_from_vech_round_trip(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(6)
        B = skew_from_vech(b, 4)
        assert np.array_equal(B, -B.T)
        assert np.array_equal(vech_strict(B), b)


class TestCommutationMatrix:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_transposes_vec(self, m, n):
        rng = np.random.default_rng(m * 17 + n)
        A = rng.standard_normal((m, n))
        K = commutation_matrix(m, n)
        assert np.array_equal(K.apply(vec(A)), vec(A.T))

    def test_is_a_permutation(self):
        K = commutation_matrix(3, 5).toarray()
        assert np.array_equal(K @ K.T, np.eye(15))
        assert K.sum() == 15

    def test_column_permutation_matches_matrix(self):
        """Indexing columns by transpose_perm is right-multiplication by K."""
        M = np.random.default_rng(5).standard_normal((7, 12))
        assert np.array_equal(M[:, transpose_perm(4, 3)], M @ commutation_matrix(4, 3).toarray())


class TestDtildeMatrix:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_maps_vech_to_vec_of_skew(self, n):
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n * (n - 1) // 2)
        Dt = dtilde_matrix(n)
        assert np.array_equal(Dt.matvec(b), vec(skew_from_vech(b, n)))

    def test_columns_are_orthogonal_with_norm_two(self):
        Dt = dtilde_matrix(4).toarray()
        assert np.array_equal(Dt.T @ Dt, 2 * np.eye(6))

    def test_n_one_is_empty(self):
        Dt = dtilde_matrix(1)
        assert Dt.toarray().shape == (1, 0)


class TestGammaMatrices:
    """Both maps must turn coordinate vectors into vec of the skew embedding."""

    @pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 9) for k in range(1, p)])
    def test_stiefel_gamma_embeds_coordinates(self, p, k):
        rng = np.random.default_rng(p * 31 + k)
        n_b = k * (k - 1) // 2
        b = rng.standard_normal(n_b)
        A = rng.standard_normal((p - k, k))
        phi = np.concatenate([b, vec(A)])
        X = _embed_skew(b, A, p, k)
        assert np.array_equal(gamma_stiefel(p, k).matvec(phi), vec(X))

    @pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 9) for k in range(1, p)])
    def test_grassmann_gamma_embeds_coordinates(self, p, k):
        rng = np.random.default_rng(p * 31 + k)
        A = rng.standard_normal((p - k, k))
        X = _embed_skew(np.zeros(k * (k - 1) // 2), A, p, k)
        assert np.array_equal(gamma_grassmann(p, k).matvec(vec(A)), vec(X))

    @pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 9) for k in range(1, p)])
    def test_dense_construction_agrees(self, p, k):
        """The indexed build equals the Theta/K/Dtilde product formula."""
        n_b = k * (k - 1) // 2
        Theta1 = np.zeros((k, p))
        Theta1[:, :k] = np.eye(k)
        Theta2 = np.zeros((p - k, p))
        Theta2[:, k:] = np.eye(p - k)
        Kpp = commutation_matrix(p, p).toarray()
        right = (np.eye(p * p) - Kpp) @ np.kron(Theta1.T, Theta2.T)
        assert np.array_equal(gamma_grassmann(p, k).toarray(), right)
        if n_b:
            lift = np.kron(Theta1.T, Theta1.T) @ dtilde_matrix(k).toarray()
            dense = np.hstack([lift, right])
        else:
            dense = right
        assert np.array_equal(gamma_stiefel(p, k).toarray(), dense)


class TestCoordinateLayout:
    """Properties of the one index table, over all 1 <= k < p <= 30."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))),
           st.integers(0, 2**32 - 1))
    def test_gamma_embeds_coordinates(self, pk, seed):
        p, k = pk
        dims = ManifoldDims(p, k)
        rng = np.random.default_rng(seed)
        phi = rng.integers(-9, 10, size=dims.d_v).astype(float)
        X = embed_skew(StiefelCoords.from_vector(dims, phi))
        assert np.array_equal(gamma_stiefel(p, k).toarray() @ phi, vec(X))
        psi = phi[dims.n_b:]
        X = embed_skew_grassmann(GrassmannCoords.from_vector(dims, psi))
        assert np.array_equal(gamma_grassmann(p, k).toarray() @ psi, vec(X))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 2**32 - 1))
    def test_vech_inverts_skew_from_vech(self, n, seed):
        b = np.random.default_rng(seed).standard_normal(n * (n - 1) // 2)
        B = skew_from_vech(b, n)
        assert np.array_equal(B, _skew_loop(b, n))
        assert np.array_equal(vech_strict(B), b)
