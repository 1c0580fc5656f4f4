"""Haar sampling, the Gaussian coupling, and chain-quality summaries."""

import numpy as np
import pytest
from scipy import stats

from cayley_mcmc.diagnostics import (
    acf_ess,
    approx_inverse_cayley,
    coupling_epsilon,
    haar_stiefel,
    haar_stiefel_coupled,
    ks_statistic,
    principal_angles,
    scale_matrix_apply,
)


class TestHaarSampling:
    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(0)
        Q = haar_stiefel(8, 3, rng).Q
        assert np.max(np.abs(Q.T @ Q - np.eye(3))) < 1e-12

    def test_rotation_invariance_of_entry_distribution(self):
        """Rotating by a fixed orthogonal matrix must not change marginals."""
        rng = np.random.default_rng(1)
        p, n = 6, 3000
        H = np.linalg.qr(np.random.default_rng(99).standard_normal((p, p)))[0]
        raw = np.array([haar_stiefel(p, 2, rng).Q[0, 0] for _ in range(n)])
        rng2 = np.random.default_rng(1)
        rotated = np.array([(H @ haar_stiefel(p, 2, rng2).Q)[0, 0] for _ in range(n)])
        # same underlying stream: both samples target the same distribution
        both = np.sort(np.concatenate([raw, rotated]))
        grid = np.searchsorted(np.sort(raw), both) / n
        grid2 = np.searchsorted(np.sort(rotated), both) / n
        assert np.max(np.abs(grid - grid2)) < 0.06

    def test_coupled_gaussian_reproduces_frame(self):
        rng = np.random.default_rng(2)
        Q, Z = haar_stiefel_coupled(7, 2, rng)
        Qz, R = np.linalg.qr(Z)
        Qz = Qz * np.sign(np.diag(R))
        assert np.max(np.abs(Q.Q - Qz)) < 1e-12

    def test_rejects_bad_dims(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            haar_stiefel(3, 3, rng)


class TestCoupling:
    def test_approx_inverse_layout(self):
        M = np.arange(12.0).reshape(4, 3)
        out = approx_inverse_cayley(M)
        M1 = M[:3, :]
        assert np.allclose(out[:3],
                           np.array([(M1 - M1.T)[1, 0], (M1 - M1.T)[2, 0], (M1 - M1.T)[2, 1]]))
        assert np.allclose(out[3:], M[3:, :].reshape(-1, order="F"))

    def test_scale_matrix_blocks(self):
        p, k = 6, 2
        d_v = p * k - k * (k + 1) // 2
        v = np.ones(d_v)
        out = scale_matrix_apply(v, p, k)
        assert out[0] == pytest.approx(np.sqrt(p / 2.0))
        assert np.allclose(out[1:], np.sqrt(p))

    def test_scale_matrix_rejects_k_not_below_p(self):
        # At p = k = 3 the b block alone has d_v = 3 entries; ManifoldDims rejects the shape.
        with pytest.raises(ValueError, match="require 1 <= k < p, got p=3, k=3"):
            scale_matrix_apply(np.ones(3), 3, 3)

    def test_epsilon_shrinks_with_p(self):
        rng = np.random.default_rng(4)
        med = []
        for p in (20, 200):
            eps = [coupling_epsilon(p, 2, rng).epsilon for _ in range(40)]
            med.append(np.median(eps))
        assert med[1] < med[0]

    def test_z_coordinates_are_standard_normal(self):
        rng = np.random.default_rng(5)
        z = np.concatenate([coupling_epsilon(40, 2, rng).z for _ in range(100)])
        assert ks_statistic(z, stats.norm.cdf) < 0.03


class TestPrincipalAngles:
    def test_identical_frames_give_zero(self):
        rng = np.random.default_rng(6)
        Q = haar_stiefel(6, 3, rng).Q
        assert np.max(principal_angles(Q, Q)) < 1e-7

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(7)
        Q = haar_stiefel(6, 3, rng).Q
        flipped = Q * np.array([1.0, -1.0, 1.0])
        assert np.allclose(principal_angles(Q, flipped), principal_angles(Q, Q))

    def test_orthogonal_columns_give_right_angle(self):
        Q = np.eye(4)[:, :2]
        V = np.eye(4)[:, 2:4]
        assert np.allclose(principal_angles(Q, V), np.pi / 2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            principal_angles(np.eye(3), np.eye(4))


class TestKsStatistic:
    def test_exact_uniform_value(self):
        # empirical CDF of {0.5} vs U(0,1): sup distance is 0.5
        assert ks_statistic(np.array([0.5]), lambda x: x) == pytest.approx(0.5)

    def test_large_normal_sample_is_close(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20000)
        assert ks_statistic(x, stats.norm.cdf) < 0.015

    def test_wrong_distribution_is_detected(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5000) * 2.0
        assert ks_statistic(x, stats.norm.cdf) > 0.1

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), lambda x: x)


class TestAcfEss:
    def test_iid_sequence_has_near_full_ess(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(5000)
        d = acf_ess(x)
        assert d.acf[0] == 1.0
        assert d.ess > 3000

    def test_correlated_sequence_has_reduced_ess(self):
        rng = np.random.default_rng(11)
        x = np.zeros(5000)
        for t in range(1, 5000):
            x[t] = 0.95 * x[t - 1] + rng.standard_normal()
        d = acf_ess(x)
        assert d.acf[1] > 0.9
        assert d.ess < 500

    def test_constant_sequence_raises(self):
        with pytest.raises(ValueError):
            acf_ess(np.ones(100))

    def test_ess_capped_at_sample_size(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(200)
        assert acf_ess(x).ess <= 200
