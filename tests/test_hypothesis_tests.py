import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize
from scipy.special import i0e, logsumexp

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
    replication_rng,
    sample_product_sum,
)
import eigengeo.hypothesis_tests as ht
from eigengeo import DimensionMismatch, OptimizerFailure
from eigengeo.estimators import ExactO2, frame_posterior_step, projected_diagonals
from eigengeo.hypothesis_tests import (
    EIGEN_LRT,
    FULL_LRT,
    _profile_sup,
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

    def test_is_profile_objective_at_diagonal_sigma(self):
        # The eigen-LRT takes its sup over lam of this function.
        ens = haar_sample(3, 8192, 0)
        eigs = np.array([40.0, 15.0, 5.0])
        lam = np.array([3.0, 1.5, 0.6])
        got = eigen_log_density_kernel(eigs, np.diag(lam), 10, ens)
        objective, _ = frame_posterior_step(
            projected_diagonals(eigs[None, :], ens), np.log(lam)[None, :], 10, ens
        )
        assert abs(got - objective[0]) < 1e-10
        assert abs(got - (-25.0253)) < 5e-5

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            eigen_log_density_kernel(np.array([1.0, 3.0]), np.eye(2), 5, o2_equidistant(10))


class TestSampleEigenvalueGuards:
    # The eigenvalue-only test and its kernel follow the gap policy of
    # spd_manifold.separated_rows, as lambda_star_from_eigs does.
    def test_near_tie_refused(self):
        eigs = np.array([10.0, 10.0 - 1e-9])
        ens = o2_equidistant(100)
        with pytest.raises(ValueError, match="gaps"):
            eigen_lrt_stat(eigs, 10, ens)
        with pytest.raises(ValueError, match="gaps"):
            eigen_log_density_kernel(eigs, np.eye(2), 10, ens)

    def test_wrong_sized_ensemble_refused(self):
        eigs = np.array([30.0, 10.0, 4.0])
        ens = o2_equidistant(10)
        with pytest.raises(DimensionMismatch, match="2.*3"):
            eigen_lrt_stat(eigs, 10, ens)
        with pytest.raises(DimensionMismatch, match="2.*3"):
            eigen_log_density_kernel(eigs, np.eye(3), 10, ens)
        with pytest.raises(DimensionMismatch, match="2.*3"):
            eigen_log_density_kernel(eigs, np.eye(2), 10, ens)
        with pytest.raises(DimensionMismatch, match="2.*3"):
            calibrate(EIGEN_LRT, 0.05, 3, 10, 1000, 0, ens)


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


def node_diagonals(eigs, ensemble):
    """diag(H_k^T L H_k) for every node, from explicit matrix products."""
    H = ensemble.matrices
    return np.diagonal(np.swapaxes(H, 1, 2) @ np.diag(eigs) @ H, axis1=1, axis2=2)


def profile_objective(diags, n, ensemble, log_lam):
    """The profile objective written out independently of the library's
    posterior step: -(n/2) sum(log lam) + log sum_k w_k exp(-sum_i
    diag_i(H_k^T L H_k) / (2 lam_i)), for one log_lam or a stack of them."""
    log_lam = np.asarray(log_lam, dtype=float)
    terms = np.log(ensemble.weights) - 0.5 * np.exp(-log_lam) @ diags.T
    return -0.5 * n * log_lam.sum(axis=-1) + logsumexp(terms, axis=-1)


def wishart_eig_rows(p, n, count, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        scale = np.sqrt(rng.uniform(0.3, 3.0, p))
        x = rng.standard_normal((n, p)) * scale
        rows.append(np.linalg.eigvalsh(x.T @ x)[::-1])
    return np.array(rows)


class TestProfileMaximizer:
    def test_p2_not_below_dense_log_grid(self):
        ens = o2_equidistant(100)
        eigs = wishart_eig_rows(2, 10, 6, 11)
        sup, _ = _profile_sup(eigs, 10, ens)
        for row, best in zip(eigs, sup):
            lo, hi = np.log(row.min() / 10) - 0.5, np.log(row.max() / 10) + 0.5
            g = np.linspace(lo, hi, 301)
            grid = np.stack([a.ravel() for a in np.meshgrid(g, g)], axis=1)
            diags = node_diagonals(row, ens)
            assert best >= profile_objective(diags, 10, ens, grid).max() - 1e-9

    def test_p2_gradient_certificate(self):
        ens = o2_equidistant(100)
        eigs = wishart_eig_rows(2, 10, 8, 12)
        _, argmax = _profile_sup(eigs, 10, ens)
        h = 1e-5
        for row, x in zip(eigs, argmax):
            diags = node_diagonals(row, ens)
            grad = [
                (profile_objective(diags, 10, ens, x + h * e) - profile_objective(diags, 10, ens, x - h * e))
                / (2 * h)
                for e in np.eye(2)
            ]
            assert np.max(np.abs(grad)) <= 1e-6

    def test_p3_not_below_nelder_mead(self):
        ens = haar_sample(3, 1024, 5)
        eigs = wishart_eig_rows(3, 10, 4, 13)
        sup, _ = _profile_sup(eigs, 10, ens)
        rng = np.random.default_rng(14)
        for row, best in zip(eigs, sup):
            diags = node_diagonals(row, ens)
            base = np.log(row / 10)
            starts = [base, base[::-1], np.full(3, base.mean())]
            starts += [base + rng.normal(0.0, 0.5, 3) for _ in range(3)]
            nm = max(
                -minimize(lambda x: -profile_objective(diags, 10, ens, x), x0, method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000}).fun
                for x0 in starts
            )
            assert best >= nm - 1e-9

    def test_p3_finds_mode_at_another_ordering(self):
        # Nodes at the six permutation matrices, the heaviest reversing the
        # order: the highest mode sits near the reversed l/n, which EM from
        # the descending starts misses.
        perms = np.array([np.eye(3)[list(o)] for o in itertools.permutations(range(3))])
        ens = OrthogonalEnsemble(perms, np.array([0.17, 0.26, 0.01, 0.01, 0.14, 0.41]), "haar-mc")
        row = np.array([60.0, 12.0, 3.0])
        sup, _ = _profile_sup(row[None, :], 10, ens)
        g = np.linspace(np.log(0.3) - 0.3, np.log(6.0) + 0.3, 81)
        grid = np.stack([a.ravel() for a in np.meshgrid(g, g, g)], axis=1)
        assert sup[0] >= profile_objective(node_diagonals(row, ens), 10, ens, grid).max() - 1e-9

    # A 100-node grid runs each start over all rows at once; a 4096-node
    # grid runs one row's starts at a time against that row's shared D.
    LOOP_ORDERS = ((100, False), (4096, True))

    def test_budget_exhausted_raises(self, monkeypatch):
        leading = []

        def counted(D, log_lam, n, ensemble):
            leading.append(D.shape[0])
            return frame_posterior_step(D, log_lam, n, ensemble)

        monkeypatch.setattr(ht, "MAX_CYCLES", 1)
        monkeypatch.setattr(ht, "frame_posterior_step", counted)
        eigs = wishart_eig_rows(2, 10, 20, 15)
        for K, shared in self.LOOP_ORDERS:
            leading.clear()
            with pytest.raises(OptimizerFailure, match="gradient tolerance"):
                _profile_sup(eigs, 10, o2_equidistant(K))
            assert leading and (set(leading) == {1}) == shared

    def test_lost_ground_raises(self, monkeypatch):
        calls = []

        def sinking(D, x, f, update, n, logw, lo, hi):
            calls.append((D.shape, x.shape))
            return x, f - 1.0

        monkeypatch.setattr(ht, "_squarem", sinking)
        eigs = wishart_eig_rows(2, 10, 3, 16)
        for K, shared in self.LOOP_ORDERS:
            calls.clear()
            with pytest.raises(OptimizerFailure, match="lost ground"):
                _profile_sup(eigs, 10, o2_equidistant(K))
            # Starts: the 2! orderings of l/n, the mean, midpoint and null.
            if shared:
                assert calls == [((1, 2, K), (5, 2))] * 3
            else:
                assert calls == [((3, 2, K), (3, 2))] * 5

    @pytest.mark.parametrize("p", [3, 4])
    def test_batch_is_row_by_row_bits(self, p):
        # A row's starts run against its own diagonal, so its sup and
        # argmax do not depend on the other rows of the batch.
        ens = haar_sample(p, 1024, p)
        eigs = wishart_eig_rows(p, 10, 5, 20 + p)
        sup, argmax = _profile_sup(eigs, 10, ens)
        for r, row in enumerate(eigs):
            one_sup, one_argmax = _profile_sup(row[None, :], 10, ens)
            assert one_sup[0] == sup[r]
            assert np.array_equal(one_argmax[0], argmax[r])

    def test_haar_p3_rows_pinned(self):
        # The benchmark's four haar-p3 eigen-LRT rows, pinned to the values
        # of the earlier maximizer that ran one start at a time.
        ens = haar_sample(3, 8192, 0)
        want = [-6.156489118741263, -9.145944921759238, -0.3410134636226836, -7.764692505375727]
        for r, value in enumerate(want):
            S = sample_product_sum(np.diag([3.0, 2.0, 1.0]), 10, replication_rng(0, "haar-lrt", r))
            eigs = np.linalg.eigvalsh(S.matrix)[::-1]
            assert abs(eigen_lrt_stat(eigs, 10, ens).value - value) <= 1e-12


def exact_objective_on_trace_line(row, n, t):
    """The exact p = 2 profile objective at lam = m (1 + t, 1 - t), m the
    mean of l/n, written out with scipy's i0e: -(n/2) sum(log lam) - a +
    log I0(b)."""
    m = row.mean() / n
    lam = m * np.stack([1.0 + t, 1.0 - t], axis=-1)
    a = 0.25 * row.sum() * (1.0 / lam).sum(axis=-1)
    b = np.abs(0.25 * (row[0] - row[1]) * (1.0 / lam[..., 0] - 1.0 / lam[..., 1]))
    return -0.5 * n * np.log(lam).sum(axis=-1) - a + np.log(i0e(b)) + b


class TestExactProfile:
    # The exact integral runs the profile search from two starts, l/n and
    # the mean; every stationary point lies on the trace line, so a dense
    # 1-D grid over its half t in [0, c] is an oracle for the sup.
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 50, 1000])
    def test_two_start_sup_not_below_dense_trace_line(self, n):
        rng = np.random.default_rng(n)
        knee = np.sqrt(2.0 / n)  # where the mean turns from maximum to saddle
        cs = np.concatenate([knee * np.array([0.9, 0.99, 1.01, 1.1, 1.5]), rng.uniform(0.01, 0.99, 25)])
        cs = cs[cs < 0.999]
        rows = 10.0 * n * np.stack([1.0 + cs, 1.0 - cs], axis=1)
        sup, _ = _profile_sup(rows, n, ExactO2())
        for row, c, best in zip(rows, cs, sup):
            oracle = exact_objective_on_trace_line(row, n, np.linspace(0.0, c, 20_001)).max()
            assert best >= oracle - 1e-10

    def test_sup_matches_grid_sup(self):
        eigs = wishart_eig_rows(2, 10, 40, 17)
        exact, _ = _profile_sup(eigs, 10, ExactO2())
        grid, _ = _profile_sup(eigs, 10, o2_equidistant(100))
        assert_allclose(exact, grid, rtol=0.0, atol=1e-10)

    def test_statistic_never_positive(self):
        for row in wishart_eig_rows(2, 10, 200, 18):
            assert eigen_lrt_stat(row, 10, ExactO2()).value <= 0.0

    def test_kernel_at_rotated_sigma_matches_grid(self, rng):
        # The exact integral is Haar-invariant: its kernel at Sigma is the
        # profile objective at Sigma's eigenvalues.
        eigs = np.array([14.0, 6.0])
        for _ in range(5):
            R = random_orthogonal(rng, 2)
            sigma = (R * rng.uniform(0.3, 3.0, 2)) @ R.T
            got = eigen_log_density_kernel(eigs, sigma, 10, ExactO2())
            want = eigen_log_density_kernel(eigs, sigma, 10, o2_equidistant(400))
            assert abs(got - want) < 1e-12


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

    def test_wrong_sized_ensemble_refused_before_drawing(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("drew replications for a refused ensemble")

        monkeypatch.setattr(ht, "sample_batch", never)
        monkeypatch.setattr(ht, "white_batch", never)
        cv = CriticalValue(0.05, -1.0, 1000, 0, EIGEN_LRT)
        for ens in (o2_equidistant(10), ExactO2()):
            with pytest.raises(DimensionMismatch, match="2.*3"):
                calibrate(EIGEN_LRT, 0.05, 3, 10, 100_000, 0, ens)
            with pytest.raises(DimensionMismatch, match="2.*3"):
                power_curve(EIGEN_LRT, [np.eye(3)], cv, 10, 100_000, 0, ens)

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

        monkeypatch.setattr(ht, "default_ensemble", counting)
        cv = CriticalValue(0.05, -1.0, 1000, 0, EIGEN_LRT)
        alts = [np.diag([1.5, 1.0]), np.diag([2.0, 1.0]), np.diag([3.0, 1.0])]
        power_curve(EIGEN_LRT, alts, cv, 10, 20, 0)
        assert built == [2]

    def test_alternatives_recolor_one_shared_draw(self, monkeypatch):
        # Same bits as drawing every alternative's batch afresh.
        seen = []

        def recording(kind, S_batch, n, ensemble, seed):
            seen.append(S_batch)
            return ht._full_lrt_batch(S_batch, n)

        monkeypatch.setattr(ht, "_stat_batch", recording)
        monkeypatch.setenv("EIGENGEO_THREADS", "1")
        cv = CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT)
        alts = [np.eye(2), np.diag([2.0, 1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])]
        power_curve(FULL_LRT, alts, cv, 10, 200, 11)
        assert len(seen) == len(alts)
        for S_batch, alt in zip(seen, alts):
            assert S_batch.tobytes() == sample_batch(alt, 10, 200, 11, "power").tobytes()

    def test_no_alternatives(self):
        cv = CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT)
        assert power_curve(FULL_LRT, [], cv, 10, 200, 0) == []


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

    def test_each_stream_drawn_once(self, monkeypatch):
        import eigengeo.wishart_sim as ws

        drawn = []
        real = ws.white_batch

        def spy(p, n, reps, seed, stream):
            drawn.append(stream)
            return real(p, n, reps, seed, stream)

        # sample_batch looks white_batch up in wishart_sim, the tests in ht.
        monkeypatch.setattr(ws, "white_batch", spy)
        monkeypatch.setattr(ht, "white_batch", spy)
        study = ht.figure3_experiment(reps=1000, seed=2, theta_count=3)
        assert sorted(drawn) == ["h0-calibration", "power", "size-check"]
        # The shared draws give the public calibrate/power_curve results.
        fan = [figure3_alternative(t) for t in study.thetas]
        for kind, cv, power in (
            (FULL_LRT, study.cv_full, study.power_full),
            (EIGEN_LRT, study.cv_eigen, study.power_eigen),
        ):
            assert calibrate(kind, 0.05, 2, 10, 1000, 2) == cv
            points = power_curve(kind, fan, cv, 10, 1000, 2)
            assert [pt.power for pt in points] == power.tolist()

    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": 1.5}, {"reps": 999}, {"ensemble": haar_sample(3, 10, 0)}],
        ids=["alpha", "reps", "ensemble"],
    )
    def test_refused_before_drawing(self, monkeypatch, kwargs):
        import eigengeo.wishart_sim as ws

        def never(*args, **kwargs):
            raise AssertionError("drew replications for a refused experiment")

        monkeypatch.setattr(ws, "white_batch", never)
        monkeypatch.setattr(ht, "white_batch", never)
        with pytest.raises((ValueError, DimensionMismatch)):
            ht.figure3_experiment(**{"reps": 1000, "theta_count": 3, **kwargs})
