import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigengeo import (
    CriticalValue,
    OrthogonalEnsemble,
    calibrate,
    eigen_log_density_kernel,
    eigen_lrt_stat,
    full_lrt_stat,
    haar_sample,
    o2_equidistant,
    power_curve,
)
from eigengeo.hypothesis_tests import (
    EIGEN_LRT,
    FULL_LRT,
    _stat_batch,
    figure3_alternative,
    figure3_thetas,
)
from eigengeo.wishart_sim import sample_batch
from conftest import random_orthogonal


class TestFullLrt:
    def test_zero_at_scaled_identity(self):
        for p, n in ((2, 10), (3, 7)):
            stat = full_lrt_stat(n * np.eye(p), n)
            assert abs(stat.value) < 1e-12
            assert stat.kind == FULL_LRT

    def test_p1_maximized_at_n(self):
        n = 10
        grid = np.linspace(1.0, 40.0, 2000)
        vals = [full_lrt_stat(np.array([[s]]), n).value for s in grid]
        assert abs(grid[int(np.argmax(vals))] - n) < 0.05

    def test_rotation_invariance(self, rng):
        S = np.diag([9.0, 4.0, 2.0])
        O = random_orthogonal(rng, 3)
        a = full_lrt_stat(S, 5).value
        b = full_lrt_stat(O @ S @ O.T, 5).value
        assert abs(a - b) < 1e-10


class TestEigenDensityKernel:
    def test_scaled_identity_collapse(self):
        ens = o2_equidistant(100)
        eigs = np.array([3.0, 1.0])
        for c in (0.5, 2.0):
            got = eigen_log_density_kernel(eigs, c * np.eye(2), 5, ens)
            want = -0.5 * 5 * np.log(c**2) - 0.5 * eigs.sum() / c
            assert_allclose(got, want, atol=1e-12)

    def test_quadrature_refinement(self):
        eigs = np.array([3.0, 1.0])
        sigma = np.diag([2.0, 1.0])
        k100 = eigen_log_density_kernel(eigs, sigma, 5, o2_equidistant(100))
        k200 = eigen_log_density_kernel(eigs, sigma, 5, o2_equidistant(200))
        assert abs(k100 - k200) < 1e-6

    def test_haar_right_translation_invariance(self, rng):
        # Replacing every node H by HQ resamples the same Haar integral.
        eigs = np.array([4.0, 2.0, 1.0])
        sigma = np.diag([2.0, 1.0, 0.5])
        base = haar_sample(3, 20_000, 99)
        Q = random_orthogonal(rng, 3)
        shifted = OrthogonalEnsemble(
            np.einsum("kij,jl->kil", base.matrices, Q), base.weights, base.kind
        )
        a = eigen_log_density_kernel(eigs, sigma, 6, base)
        b = eigen_log_density_kernel(eigs, sigma, 6, shifted)
        assert abs(a - b) < 0.05

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            eigen_log_density_kernel(np.array([1.0, 3.0]), np.eye(2), 5, o2_equidistant(10))


class TestEigenLrt:
    def test_p1_closed_form(self):
        ens = OrthogonalEnsemble(np.ones((1, 1, 1)), np.array([1.0]), "haar-mc")
        for l, n in ((7.3, 12), (2.0, 5), (40.0, 9)):
            stat = eigen_lrt_stat(np.array([l]), n, ens)
            lam = l / n
            want = -0.5 * l - (-0.5 * n * np.log(lam) - 0.5 * l / lam)
            assert abs(stat.value - want) < 1e-9

    def test_never_positive(self, rng):
        ens = o2_equidistant(100)
        for _ in range(10):
            x = rng.standard_normal((10, 2))
            eigs = np.linalg.eigvalsh(x.T @ x)[::-1]
            stat = eigen_lrt_stat(eigs, 10, ens)
            assert stat.value <= 1e-12
            assert stat.kind == EIGEN_LRT

    def test_depends_only_on_eigenvalues(self):
        # Two covariances with equal spectra feed identical statistics.
        ens = o2_equidistant(50)
        eigs = np.array([12.0, 4.0])
        assert eigen_lrt_stat(eigs, 10, ens).value == eigen_lrt_stat(eigs, 10, ens).value


class TestCalibration:
    def test_threshold_is_order_statistic(self):
        reps, alpha = 2000, 0.05
        cv = calibrate(FULL_LRT, alpha, 2, 10, reps, 7)
        S_batch = sample_batch(np.eye(2), 10, reps, 7, "h0-calibration")
        stats = np.sort(_stat_batch(FULL_LRT, S_batch, 10, None, 7))
        assert cv.threshold == stats[int(np.floor(alpha * reps))]
        below = np.mean(stats < cv.threshold)
        assert abs(below - alpha) <= 1.0 / reps + 1e-12

    def test_median_at_half(self):
        reps = 2000
        cv = calibrate(FULL_LRT, 0.5, 2, 10, reps, 7)
        S_batch = sample_batch(np.eye(2), 10, reps, 7, "h0-calibration")
        stats = _stat_batch(FULL_LRT, S_batch, 10, None, 7)
        assert abs(np.mean(stats < cv.threshold) - 0.5) < 0.02

    def test_size_recheck_fresh_seed(self):
        reps = 4000
        cv = calibrate(FULL_LRT, 0.05, 2, 10, reps, 7)
        fresh = sample_batch(np.eye(2), 10, reps, 1234, "fresh-size")
        rate = np.mean(_stat_batch(FULL_LRT, fresh, 10, None, 7) < cv.threshold)
        assert abs(rate - 0.05) < 3 * np.sqrt(0.05 * 0.95 / reps)

    def test_eigen_size_recheck(self):
        reps = 1500
        ens = o2_equidistant(100)
        cv = calibrate(EIGEN_LRT, 0.05, 2, 10, reps, 7, ens)
        fresh = sample_batch(np.eye(2), 10, reps, 99, "fresh-size")
        rate = np.mean(_stat_batch(EIGEN_LRT, fresh, 10, ens, 7) < cv.threshold)
        assert abs(rate - 0.05) < 3 * np.sqrt(0.05 * 0.95 / reps) + 0.01

    def test_rejects_small_reps(self):
        with pytest.raises(ValueError):
            calibrate(FULL_LRT, 0.05, 2, 10, 100, 0)

    def test_critical_value_validation(self):
        with pytest.raises(ValueError):
            CriticalValue(1.5, 0.0, 1000, 0, FULL_LRT)


class TestPowerCurve:
    def test_size_and_far_alternative(self):
        reps = 3000
        cv = calibrate(FULL_LRT, 0.05, 2, 10, reps, 3)
        points = power_curve(
            FULL_LRT, [np.eye(2), np.diag([5.0, 1.0])], cv, 10, reps, 3
        )
        null_point, far_point = points
        assert abs(null_point.power - 0.05) < 3 * np.sqrt(0.05 * 0.95 / reps)
        # Frozen from an independent 200k-rep oracle: power 0.8794 +- 0.0007.
        assert far_point.power > 0.8
        assert abs(far_point.power - 0.8794) < 4 * np.sqrt(0.88 * 0.12 / reps)

    def test_kind_mismatch_rejected(self):
        cv = calibrate(FULL_LRT, 0.05, 2, 10, 1000, 0)
        with pytest.raises(ValueError):
            power_curve(EIGEN_LRT, [np.eye(2)], cv, 10, 1000, 0)

    def test_default_ensemble_built_once(self, monkeypatch):
        import eigengeo.hypothesis_tests as ht

        built = []

        def counting(p, seed=0):
            built.append(p)
            return o2_equidistant(100)

        monkeypatch.setattr(ht, "default_test_ensemble", counting)
        cv = CriticalValue(0.05, -1.0, 1000, 0, EIGEN_LRT)
        alts = [np.diag([1.5, 1.0]), np.diag([2.0, 1.0]), np.diag([3.0, 1.0])]
        power_curve(EIGEN_LRT, alts, cv, 10, 20, 0)
        assert built == [2]


class TestFigure3Protocol:
    def test_theta_fan(self):
        thetas = figure3_thetas()
        assert thetas.size == 51
        assert_allclose(thetas[0], np.pi / 4)
        assert_allclose(thetas[-1], np.pi / 4 - np.pi)
        sub = figure3_thetas(11)
        assert sub.size == 11
        assert_allclose(sub[0], thetas[0])
        assert_allclose(sub[-1], thetas[-1])

    def test_alternative_eigenvalues(self):
        sigma = figure3_alternative(np.pi / 4)
        assert_allclose(np.diag(sigma), [1.5, 1.5])
        sigma = figure3_alternative(np.pi / 4 - np.pi)
        assert_allclose(np.diag(sigma), [0.5, 0.5])

    def test_thinning_must_divide(self):
        with pytest.raises(ValueError):
            figure3_thetas(12)
