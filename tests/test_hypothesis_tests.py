import itertools
import tracemalloc

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
    lambda_hat,
    lambda_star_from_eigs,
    lbar,
    o2_equidistant,
    power_curve,
    replication_rng,
    sample_product_sum,
)
import eigengeo.hypothesis_tests as ht
from eigengeo import DimensionMismatch, NearDegenerateSpectrum, OptimizerFailure
from eigengeo.estimators import ExactO2
from eigengeo.hypothesis_tests import (
    EIGEN_LRT,
    FULL_LRT,
    _lrt_batch,
    _profile_sup,
    figure3_alternative,
    figure3_thetas,
)
from eigengeo.spd_manifold import descending_eigenvalues
from eigengeo.wishart_sim import color_batch, sample_batch, white_batch
from conftest import assert_read_only, random_orthogonal


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

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_kernel_is_the_log_det_formula(self, p):
        # The statistic's determinant-and-trace form, on 10^4 Wishart rows at
        # the null and at a random covariance.  Near the null the statistic is
        # a difference of terms of size trace/2 and pn/2, so it is compared
        # relative to those terms as well as to itself.
        n = 10
        A = np.random.default_rng(p).standard_normal((p, p))
        for sigma in (np.eye(p), A @ A.T / p + np.eye(p)):
            S = sample_batch(sigma, n, 10_000, p, "lrt-oracle")
            _, logdet = np.linalg.slogdet(S)
            trace = np.trace(S, axis1=1, axis2=2)
            want = 0.5 * p * n * (1.0 - np.log(n)) - 0.5 * trace + 0.5 * n * logdet
            got = _lrt_batch(FULL_LRT, descending_eigenvalues(S), n, None)
            assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(want) + 0.5 * (trace + p * n)))
        assert full_lrt_stat(n * np.eye(p), n).value == 0.0

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

    def test_invariant_under_rotating_sigma(self, rng):
        # The frame average is over Haar measure, so the kernel at Q Sigma Q^T
        # is the kernel at Sigma for a quadrature ensemble too.
        ens = haar_sample(3, 512, 0)
        eigs = np.array([40.0, 15.0, 5.0])
        R = random_orthogonal(rng, 3)
        sigma = (R * np.array([3.0, 1.5, 0.6])) @ R.T
        want = eigen_log_density_kernel(eigs, sigma, 10, ens)
        for _ in range(20):
            Q = random_orthogonal(rng, 3)
            assert abs(eigen_log_density_kernel(eigs, Q @ sigma @ Q.T, 10, ens) - want) <= 1e-12

    def test_is_profile_objective_at_diagonal_sigma(self):
        # The eigen-LRT takes its sup over lam of this function.
        ens = haar_sample(3, 8192, 0)
        eigs = np.array([40.0, 15.0, 5.0])
        lam = np.array([3.0, 1.5, 0.6])
        got = eigen_log_density_kernel(eigs, np.diag(lam), 10, ens)
        objective, _ = ens.step(ens.diagonals(eigs[None, :]), np.log(lam)[None, None, :], 10)
        assert abs(got - objective[0, 0]) < 1e-10
        assert abs(got - (-25.0253)) < 5e-5

    def test_rejects_unsorted(self):
        with pytest.raises(NearDegenerateSpectrum):
            eigen_log_density_kernel(np.array([1.0, 3.0]), np.eye(2), 5, o2_equidistant(10))


class TestSampleEigenvalueGuards:
    # The eigenvalue-only test and its kernel refuse sample eigenvalues with
    # spd_manifold.check_eigenvalue_gaps, as lambda_star does.
    def test_near_tie_refused(self):
        eigs = np.array([10.0, 10.0 - 1e-9])
        ens = o2_equidistant(100)
        with pytest.raises(NearDegenerateSpectrum, match="gap .* below the tolerance"):
            eigen_lrt_stat(eigs, 10, ens)
        with pytest.raises(NearDegenerateSpectrum, match="gap .* below the tolerance"):
            eigen_log_density_kernel(eigs, np.eye(2), 10, ens)

    def test_wrong_sized_ensemble_refused(self):
        # One refusal, with one message, wherever an ensemble meets p = 3.
        eigs = np.array([30.0, 10.0, 4.0])
        ens = o2_equidistant(10)
        cv = CriticalValue(0.05, -1.0, 1000, 0, EIGEN_LRT)
        calls = [
            lambda: eigen_lrt_stat(eigs, 10, ens),
            lambda: eigen_log_density_kernel(eigs, np.eye(3), 10, ens),
            lambda: lambda_star_from_eigs(eigs, 10, ens),
            lambda: calibrate(EIGEN_LRT, 0.05, 3, 10, 1000, 0, ens),
            lambda: power_curve(EIGEN_LRT, [np.eye(3)], cv, 10, 1000, 0, ens),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch, match="^ensemble dim 2 does not match p = 3$"):
                call()
        with pytest.raises(DimensionMismatch, match="Sigma dim 2 does not match 3 eigenvalues"):
            eigen_log_density_kernel(eigs, np.eye(2), 10, ens)

    @pytest.mark.parametrize("n", [0, -3, "p - 1"])
    @pytest.mark.parametrize(
        "ens", [ExactO2(), haar_sample(3, 64, 0)], ids=["exact-o2", "haar-p3"]
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda eigs, n, ens: lambda_star_from_eigs(eigs, n, ens),
            lambda eigs, n, ens: eigen_lrt_stat(eigs, n, ens),
            lambda eigs, n, ens: eigen_log_density_kernel(eigs, np.eye(eigs.size), n, ens),
            lambda eigs, n, ens: lbar(np.diag(eigs), n),
            lambda eigs, n, ens: lambda_hat(np.diag(eigs), n, np.eye(eigs.size)),
            lambda eigs, n, ens: full_lrt_stat(np.diag(eigs), n),
            lambda eigs, n, ens: sample_product_sum(np.diag(eigs), n, replication_rng(0, "s", 0)),
            lambda eigs, n, ens: white_batch(eigs.size, n, 10, 0, "s"),
        ],
        ids=["lambda_star_from_eigs", "eigen_lrt_stat", "eigen_log_density_kernel", "lbar", "lambda_hat",
             "full_lrt_stat", "sample_product_sum", "white_batch"],
    )
    def test_fewer_observations_than_dimensions_refused(self, call, ens, n):
        # One refusal, spd_manifold.check_sample_size, with one message.
        # Without it the first three gave inf, nan, a silent 0.0 statistic
        # or a numeric failure instead of an input error.
        eigs = np.array([3.0, 1.0] if ens.dim == 2 else [3.0, 2.0, 1.0])
        n = ens.dim - 1 if n == "p - 1" else n
        with pytest.raises(ValueError, match=rf"^need n >= p, got n={n}, p={eigs.size}$"):
            call(eigs, n, ens)


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

    def test_budget_exhausted_raises(self, monkeypatch):
        shapes = []
        step = OrthogonalEnsemble.step

        def counted(self, D, log_lam, n):
            shapes.append(log_lam.shape)
            return step(self, D, log_lam, n)

        monkeypatch.setattr(ht, "MAX_CYCLES", 1)
        monkeypatch.setattr(OrthogonalEnsemble, "step", counted)
        eigs = wishart_eig_rows(2, 10, 20, 15)
        # A 100-node grid runs each start over DRAW_CHUNK rows at once, blocks
        # of (rows, 1, p); a 4096-node grid runs one row's five starts at a
        # time, blocks of (1, starts, p).  SQUAREM drops certified points
        # along the non-unit axis only.
        for K, block, unit in ((100, (20, 1, 2), 1), (4096, (1, 5, 2), 0)):
            shapes.clear()
            with pytest.raises(OptimizerFailure, match="gradient tolerance"):
                _profile_sup(eigs, 10, o2_equidistant(K))
            assert shapes[0] == block and all(shape[unit] == 1 for shape in shapes)

    def test_lost_ground_raises(self, monkeypatch):
        calls = []

        def sinking(D, x, f, update, n, logw, lo, hi):
            calls.append((D.shape, x.shape))
            return x, f - 1.0

        monkeypatch.setattr(ht, "_squarem", sinking)
        eigs = wishart_eig_rows(2, 10, 3, 16)
        # Starts: the 2! orderings of l/n, the mean, midpoint and null: five
        # blocks of all three rows, or three rows of all five starts.
        for K, want in ((100, [((3, 2, 100), (3, 1, 2))] * 5), (4096, [((1, 2, 4096), (1, 5, 2))] * 3)):
            calls.clear()
            with pytest.raises(OptimizerFailure, match="lost ground"):
                _profile_sup(eigs, 10, o2_equidistant(K))
            assert calls == want

    @pytest.mark.parametrize(
        "make",
        [lambda: o2_equidistant(100), lambda: haar_sample(3, 64, 3), lambda: haar_sample(3, 1024, 3),
         lambda: haar_sample(4, 1024, 4)],
        ids=["equidistant-100", "haar-p3-64", "haar-p3-1024", "haar-p4-1024"],
    )
    def test_batch_is_row_by_row_bits(self, make):
        # step and diagonals compute each row from its own products, so a
        # lone row's sup, argmax and lambda_star are the bits it gets inside
        # a batch, on the small-grid blocks (100 and 64 nodes) and the
        # row-at-a-time layout (1024 nodes) alike.
        ens = make()
        eigs = wishart_eig_rows(ens.dim, 10, 9, 20 + ens.dim)
        sup, argmax = _profile_sup(eigs, 10, ens)
        star = lambda_star_from_eigs(eigs, 10, ens)
        for r in range(len(eigs)):
            one_sup, one_argmax = _profile_sup(eigs[r : r + 1], 10, ens)
            assert one_sup[0] == sup[r]
            assert np.array_equal(one_argmax[0], argmax[r])
            assert np.array_equal(lambda_star_from_eigs(eigs[r], 10, ens), star[r])

    @pytest.mark.parametrize("count", [5, 9])
    def test_small_grid_blocks_are_bit_neutral(self, monkeypatch, count):
        # Blocks of 4 rows and a last lone row (4 + 1, 4 + 4 + 1) give the
        # bits of one block.
        ens = o2_equidistant(100)
        eigs = wishart_eig_rows(2, 10, count, 30 + count)
        want = _profile_sup(eigs, 10, ens)
        monkeypatch.setattr(ht, "DRAW_CHUNK", 4)
        for got, ref in zip(_profile_sup(eigs, 10, ens), want):
            assert np.array_equal(got, ref)

    def test_small_grid_memory_is_bounded_by_blocks(self):
        # Small grids run DRAW_CHUNK rows at a time, so only one block's
        # diagonals (1.6 kB per row at 100 nodes) are held, not every row's.
        ens = o2_equidistant(100)

        def peak(reps):
            eigs = descending_eigenvalues(sample_batch(np.diag([2.0, 1.0]), 10, reps, 3, "sup-peak"))
            tracemalloc.start()
            try:
                _profile_sup(eigs, 10, ens)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8192) - peak(2048) < 4e6

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
    # The exact integral's profile search is a root find on the trace line,
    # whose end point competes with the mean; every stationary point lies on
    # that line, so a dense 1-D grid over its half t in [0, c] is an oracle
    # for the sup.
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 50, 1000])
    def test_two_start_sup_not_below_dense_trace_line(self, n):
        rng = np.random.default_rng(n)
        knee = np.sqrt(2.0 / n)  # where the mean turns from maximum to saddle
        # Rows at the knee itself, where the root is multiple (5-fold at n = 4).
        at_knee = 1.0 + np.array([0.0, 1e-8, -1e-8, 1e-6, -1e-6, -1e-4, 1e-3, -1e-3])
        cs = np.concatenate([knee * np.array([0.9, 0.99, 1.01, 1.1, 1.5]), knee * at_knee,
                             rng.uniform(0.01, 0.99, 25)])
        cs = cs[cs < 0.999]
        rows = 10.0 * n * np.stack([1.0 + cs, 1.0 - cs], axis=1)
        sup, argmax = _profile_sup(rows, n, ExactO2())
        for row, c, best in zip(rows, cs, sup):
            oracle = exact_objective_on_trace_line(row, n, np.linspace(0.0, c, 20_001)).max()
            assert best >= oracle - 1e-10
        _, update = ExactO2().step(rows, argmax[:, None], n)
        assert np.all(0.5 * n * np.abs(update[:, 0] * np.exp(-argmax) - 1.0).max(axis=1) <= ht.GRAD_TOL)

    def test_trace_line_facts(self):
        # The two facts the trace-line search rests on, for the EM image
        # T(t) read off ExactO2.step: T(t) > t on one interval that ends at
        # the largest root t*, and T is concave on [t*, c] when t* > 0.
        t = np.linspace(1e-4, 1.0 - 1e-4, 4001)
        for n in [2, 3, 4, 5, 10, 50]:
            for c in np.linspace(0.02, 0.99, 49):
                rows = np.array([[1.0 + c, 1.0 - c]])
                lam = np.stack([1.0 + t, 1.0 - t], axis=1) / n
                _, u = ExactO2().step(rows, np.log(lam)[None], n)
                T = (u[0, :, 0] - u[0, :, 1]) / (u[0, :, 0] + u[0, :, 1])
                above = T > t
                assert np.count_nonzero(np.diff(above.astype(int)) == 1) + above[0] <= 1
                if above.any():
                    right = (t >= t[above].max()) & (t <= c)
                    assert np.diff(T[right], 2).max(initial=0.0) <= 1e-12

    def test_budget_exhausted_raises(self, monkeypatch):
        calls = []
        step = ExactO2.step

        def counted(self, D, log_lam, n):
            calls.append(D.shape[0])
            return step(self, D, log_lam, n)

        monkeypatch.setattr(ht, "MAX_CYCLES", 1)
        monkeypatch.setattr(ExactO2, "step", counted)
        eigs = wishart_eig_rows(2, 10, 20, 15)
        with pytest.raises(OptimizerFailure, match="gradient tolerance"):
            _profile_sup(eigs, 10, ExactO2())
        # The mean and l/n as two starts, then the budget of 3 * MAX_CYCLES
        # trace-line steps.
        assert len(calls) == 1 + 3

    def test_lost_ground_raises(self, monkeypatch):
        calls = []

        def sinking(D, x, f, update, n, ensemble):
            calls.append((D.shape, x.shape))
            return x, f - 1.0

        monkeypatch.setattr(ht, "_trace_line_root", sinking)
        # Well separated rows: l/n scores above the mean, so the sunk end
        # point is below the starts.
        rows = 100.0 * np.array([[1.8, 0.2], [1.5, 0.5], [1.9, 0.1]])
        with pytest.raises(OptimizerFailure, match="lost ground"):
            _profile_sup(rows, 10, ExactO2())
        assert calls == [((3, 2), (3, 2))]

    def test_step_rows_per_row_on_fig3_calibration(self, monkeypatch):
        # A timer-free guard on the search's cost: posterior-step points
        # (rows x starts) per row on fig3's null calibration stream (SQUAREM
        # took 16.8).
        rows = []
        step = ExactO2.step

        def counted(self, D, log_lam, n):
            rows.append(log_lam.shape[0] * log_lam.shape[1])
            return step(self, D, log_lam, n)

        monkeypatch.setattr(ExactO2, "step", counted)
        W = white_batch(2, 10, 1000, 1, "h0-calibration")
        _profile_sup(descending_eigenvalues(color_batch(W, np.eye(2))), 10, ExactO2())
        assert sum(rows) <= 10 * 1000

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


class InterfaceOnly:
    """A frame integral that exposes only the interface the library may
    use, forwarded to a real integral."""

    def __init__(self, real):
        self._real = real
        self.dim, self.size, self.kind = real.dim, real.size, real.kind
        self.symmetric = real.symmetric

    def diagonals(self, eig_rows):
        return self._real.diagonals(eig_rows)

    def step(self, D, log_lam, n):
        return self._real.step(D, log_lam, n)

    def _posterior(self, D, log_lam, n):
        return self._real._posterior(D, log_lam, n)


class TestFrameIntegralInterface:
    # The 100-node grid runs each start over all rows at once; the 1024-node
    # p = 3 ensemble runs one row's starts at a time.
    @pytest.mark.parametrize(
        "real",
        [o2_equidistant(100), haar_sample(3, 1024, 3), ExactO2()],
        ids=["equidistant-p2", "haar-p3", "exact-o2"],
    )
    def test_callers_use_only_the_interface(self, real):
        fake = InterfaceOnly(real)
        eigs = wishart_eig_rows(real.dim, 10, 6, 40 + real.dim)
        got, want = lambda_star_from_eigs(eigs, 10, fake), lambda_star_from_eigs(eigs, 10, real)
        assert np.array_equal(got, want)
        for row in eigs:
            assert np.array_equal(lambda_star_from_eigs(row, 10, fake), lambda_star_from_eigs(row, 10, real))
        for got, want in zip(_profile_sup(eigs, 10, fake), _profile_sup(eigs, 10, real)):
            assert np.array_equal(got, want)
        R = random_orthogonal(np.random.default_rng(41), real.dim)
        sigma = (R * np.linspace(2.0, 0.5, real.dim)) @ R.T
        for row in eigs[:2]:
            got = eigen_log_density_kernel(row, sigma, 10, fake)
            assert got == eigen_log_density_kernel(row, sigma, 10, real)


class TestCalibration:
    def test_threshold_is_order_statistic(self):
        reps, alpha = 2000, 0.05
        cv = calibrate(FULL_LRT, alpha, 2, 10, reps, 7)
        S_batch = sample_batch(np.eye(2), 10, reps, 7, "h0-calibration")
        stats = np.sort(_lrt_batch(FULL_LRT, descending_eigenvalues(S_batch), 10, None))
        assert cv.threshold == stats[int(np.floor(alpha * reps))]
        below = np.mean(stats < cv.threshold)
        assert abs(below - alpha) <= 1.0 / reps + 1e-12

    @pytest.mark.parametrize("alpha, reps, index", [(0.043, 5000, 215), (0.05, 1000, 50), (0.1, 10_000, 1000)])
    def test_index_from_alpha_as_written(self, alpha, reps, index):
        # 0.043 * 5000 is 214.99999999999997 in binary floating point.
        stats = np.random.default_rng(reps).permutation(reps).astype(float)
        assert ht._critical_value(FULL_LRT, alpha, 0, stats).threshold == index
        assert ht._critical_value(FULL_LRT, np.float64(alpha), 0, stats).threshold == index

    def test_calibrate_takes_the_decimal_index(self):
        S_batch = sample_batch(np.eye(2), 10, 5000, 7, "h0-calibration")
        stats = np.sort(_lrt_batch(FULL_LRT, descending_eigenvalues(S_batch), 10, None))
        assert calibrate(FULL_LRT, 0.043, 2, 10, 5000, 7).threshold == stats[215]

    def test_median_at_half(self):
        reps = 2000
        cv = calibrate(FULL_LRT, 0.5, 2, 10, reps, 7)
        S_batch = sample_batch(np.eye(2), 10, reps, 7, "h0-calibration")
        stats = _lrt_batch(FULL_LRT, descending_eigenvalues(S_batch), 10, None)
        assert abs(np.mean(stats < cv.threshold) - 0.5) < 0.02

    def test_size_recheck_fresh_seed(self):
        reps = 4000
        cv = calibrate(FULL_LRT, 0.05, 2, 10, reps, 7)
        fresh = sample_batch(np.eye(2), 10, reps, 1234, "fresh-size")
        rate = np.mean(_lrt_batch(FULL_LRT, descending_eigenvalues(fresh), 10, None) < cv.threshold)
        assert abs(rate - 0.05) < 3 * np.sqrt(0.05 * 0.95 / reps)

    def test_eigen_size_recheck(self):
        reps = 1500
        ens = o2_equidistant(100)
        cv = calibrate(EIGEN_LRT, 0.05, 2, 10, reps, 7, ens)
        fresh = sample_batch(np.eye(2), 10, reps, 99, "fresh-size")
        rate = np.mean(_lrt_batch(EIGEN_LRT, descending_eigenvalues(fresh), 10, ens) < cv.threshold)
        assert abs(rate - 0.05) < 3 * np.sqrt(0.05 * 0.95 / reps) + 0.01

    @pytest.mark.parametrize("kind", [FULL_LRT, EIGEN_LRT])
    def test_mixed_alternative_dims_refused_before_drawing(self, monkeypatch, kind):
        # p = 2 then 3 failed inside the p = 2 colouring, and 3 then 2 in a
        # matmul, both after every white Gram was drawn.
        def never(*args, **kwargs):
            raise AssertionError("drew replications for mixed alternatives")

        monkeypatch.setattr(ht, "white_batch", never)
        monkeypatch.setattr(ht, "default_ensemble", never)
        cv = CriticalValue(0.05, -1.0, 1000, 0, kind)
        alts = [np.eye(2), 2.0 * np.eye(2), np.eye(3), np.eye(2)]
        with pytest.raises(DimensionMismatch, match="^alternative 2 dim 3 does not match p = 2 of alternative 0$"):
            power_curve(kind, alts, cv, 10, 50, 0)
        alts = [np.eye(3), np.eye(2), np.eye(2)]
        with pytest.raises(DimensionMismatch, match="^alternative 1 dim 2 does not match p = 3 of alternative 0$"):
            power_curve(kind, alts, cv, 10, 50, 0)

    def test_critical_value_validation(self):
        with pytest.raises(ValueError):
            CriticalValue(1.5, 0.0, 1000, 0, FULL_LRT)


class TestPowerCurve:
    def test_rejects_is_elementwise(self):
        # power_curve counts rejections with this rule.
        cv = CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT)
        assert cv.rejects(np.array([-2.0, -1.0, 0.5])).tolist() == [True, False, False]
        assert cv.rejects(ht.TestStatistic(-2.0, FULL_LRT, 10, 2)) and not cv.rejects(-1.0)

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

        def recording(kind, eig_rows, n, ensemble):
            seen.append(eig_rows)
            return _lrt_batch(kind, eig_rows, n, ensemble)

        monkeypatch.setattr(ht, "_lrt_batch", recording)
        monkeypatch.setenv("EIGENGEO_THREADS", "1")
        cv = CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT)
        alts = [np.eye(2), np.diag([2.0, 1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])]
        power_curve(FULL_LRT, alts, cv, 10, 200, 11)
        # The three 200-row streams are scored stacked, in order, in one call.
        assert len(seen) == 1
        want = [descending_eigenvalues(sample_batch(alt, 10, 200, 11, "power")) for alt in alts]
        assert seen[0].tobytes() == np.concatenate(want).tobytes()

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

    def test_each_draw_coloured_and_decomposed_once(self, monkeypatch):
        # Both tests score one spectrum per stream and alternative: 2 + T
        # colourings and decompositions for T angles, and no determinant.
        calls = {"color_batch": 0, "descending_eigenvalues": 0, "slogdet": 0}

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        spy(ht, "color_batch")
        spy(ht, "descending_eigenvalues")
        spy(np.linalg, "slogdet")
        ht.figure3_experiment(reps=1000, seed=2, theta_count=3)
        assert calls == {"color_batch": 5, "descending_eigenvalues": 5, "slogdet": 0}

    @pytest.mark.parametrize("reps, calls", [(1000, 2), (10_000, 2 * 5)])
    def test_one_call_per_test_and_stream_group(self, monkeypatch, reps, calls):
        # At 1000 reps the five streams (calibration, size check, three
        # angles) fit one block; at 10 000 each stream is its own.
        seen = []

        def recording(kind, eig_rows, n, ensemble):
            seen.append((kind, len(eig_rows)))
            return _lrt_batch(kind, eig_rows, n, ensemble)

        monkeypatch.setattr(ht, "_lrt_batch", recording)
        ht.figure3_experiment(reps=reps, seed=2, theta_count=3)
        assert len(seen) == calls
        assert sum(rows for _, rows in seen) == 2 * 5 * reps
        assert sorted(kind for kind, _ in seen) == [EIGEN_LRT] * (calls // 2) + [FULL_LRT] * (calls // 2)

    def test_reports_refuse_writes(self):
        assert_read_only(ht.figure3_experiment(reps=1000, seed=2, theta_count=3))
        cv = CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT)
        assert_read_only(power_curve(FULL_LRT, [np.diag([2.0, 1.0])], cv, 10, 50, 0)[0])

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: ht.figure3_experiment(reps=1000, theta_count=3, alpha=1.5), ValueError, "^alpha must be in"),
            (lambda: ht.figure3_experiment(reps=999, theta_count=3), ValueError, "^calibration needs reps >= 1000"),
            (lambda: ht.figure3_experiment(reps=1000, theta_count=3, ensemble=haar_sample(3, 10, 0)),
             DimensionMismatch, "^ensemble dim 3 does not match p = 2$"),
            (lambda: calibrate(FULL_LRT, 0.0, 2, 10, 1000, 0), ValueError, "^alpha must be in"),
            (lambda: calibrate(FULL_LRT, 0.05, 2, 10, 999, 0), ValueError, "^calibration needs reps >= 1000"),
            (lambda: calibrate(EIGEN_LRT, 0.05, 3, 10, 1000, 0, ExactO2()),
             DimensionMismatch, "^ensemble dim 2 does not match p = 3$"),
            (lambda: calibrate(EIGEN_LRT, 0.05, 3, 10, 100_000, 0, o2_equidistant(10)),
             DimensionMismatch, "^ensemble dim 2 does not match p = 3$"),
            (lambda: calibrate("nope", 0.05, 2, 10, 1000, 0), ValueError, "^unknown test kind 'nope'$"),
            (lambda: power_curve(EIGEN_LRT, [np.eye(3)], CriticalValue(0.05, -1.0, 1000, 0, EIGEN_LRT), 10, 50, 0,
                                 ExactO2()), DimensionMismatch, "^ensemble dim 2 does not match p = 3$"),
            (lambda: power_curve(EIGEN_LRT, [np.eye(3)], CriticalValue(0.05, -1.0, 1000, 0, EIGEN_LRT), 10, 100_000,
                                 0, o2_equidistant(10)), DimensionMismatch, "^ensemble dim 2 does not match p = 3$"),
            (lambda: power_curve("nope", [np.eye(2)], CriticalValue(0.05, -1.0, 1000, 0, "nope"), 10, 50, 0),
             ValueError, "^unknown test kind 'nope'$"),
            (lambda: power_curve(EIGEN_LRT, [np.eye(2), np.eye(3)], CriticalValue(0.05, -1.0, 1000, 0, EIGEN_LRT),
                                 10, 50, 0), DimensionMismatch, "^alternative 1 dim 3 does not match p = 2"),
        ],
        ids=["alpha", "reps", "ensemble", "calibrate-alpha", "calibrate-reps", "calibrate-ensemble",
             "calibrate-grid-ensemble", "calibrate-kind", "power_curve-ensemble", "power_curve-grid-ensemble",
             "power_curve-kind", "power_curve-mixed-dims"],
    )
    def test_refused_before_drawing(self, monkeypatch, call, error, match):
        # fig3, calibrate and power_curve share one driver, which makes every
        # refusal before any draw; power_curve drew its Grams before it found
        # an unknown kind.
        import eigengeo.wishart_sim as ws

        def never(*args, **kwargs):
            raise AssertionError("drew replications for refused input")

        for module in (ws, ht):
            monkeypatch.setattr(module, "white_batch", never)
            monkeypatch.setattr(module, "color_batch", never)
        with pytest.raises(error, match=match):
            call()

    def test_power_drawn_after_the_calibration_group(self, monkeypatch):
        # At 10 000 reps every stream is a group alone, so the fan's shared
        # Grams are drawn after both tests have scored the calibration group.
        events = []
        real_white, real_lrt = ht.white_batch, ht._lrt_batch

        def white(p, n, reps, seed, stream):
            events.append(stream)
            return real_white(p, n, reps, seed, stream)

        def lrt(kind, eig_rows, n, ensemble):
            events.append(kind)
            return real_lrt(kind, eig_rows, n, ensemble)

        monkeypatch.setattr(ht, "white_batch", white)
        monkeypatch.setattr(ht, "_lrt_batch", lrt)
        ht.figure3_experiment(reps=10_000, theta_count=3)
        assert events[:3] == ["h0-calibration", FULL_LRT, EIGEN_LRT]
        assert events.count("power") == 1


def study_fields(study):
    """A power study or a list of PowerPoints as comparable bytes and values."""
    items = study if isinstance(study, list) else [study]
    return [
        np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
        for item in items
        for v in vars(item).values()
    ]


class TestStreamGroups:
    def test_groups_pack_whole_streams_in_order(self, monkeypatch):
        # A 16-row budget stands for STREAM_BLOCK_ROWS = 2**14 rows: the row
        # counts of the calls give the group sizes, in stream order.
        seen = []

        def recording(kind, eig_rows, n, ensemble):
            seen.append(len(eig_rows))
            return _lrt_batch(kind, eig_rows, n, ensemble)

        monkeypatch.setattr(ht, "_lrt_batch", recording)
        monkeypatch.setattr(ht, "STREAM_BLOCK_ROWS", 16)
        monkeypatch.setenv("EIGENGEO_THREADS", "1")
        cv = CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT)
        # More than half the budget (9 and 17 rows): each stream alone.
        for count, reps, sizes in [(5, 3, [5]), (53, 2, [8] * 6 + [5]), (3, 9, [1, 1, 1]), (3, 8, [2, 1]),
                                   (2, 17, [1, 1])]:
            seen.clear()
            power_curve(FULL_LRT, [np.eye(2)] * count, cv, 10, reps, 0)
            assert seen == [reps * size for size in sizes]

    @pytest.mark.parametrize(
        "run",
        [
            lambda: ht.figure3_experiment(reps=1000, seed=3, theta_count=3, ensemble=ExactO2()),
            lambda: ht.figure3_experiment(reps=1000, seed=3, theta_count=3, ensemble=o2_equidistant(40)),
            lambda: power_curve(EIGEN_LRT, [np.eye(2), np.diag([2.0, 1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])],
                                CriticalValue(0.05, -2.0, 1000, 0, EIGEN_LRT), 10, 300, 4),
            lambda: power_curve(EIGEN_LRT, [np.eye(3), np.diag([2.0, 1.0, 0.5]), np.diag([3.0, 1.0, 1.0])],
                                CriticalValue(0.05, -2.0, 1000, 0, EIGEN_LRT), 10, 30, 4, haar_sample(3, 64, 0)),
            lambda: calibrate(EIGEN_LRT, 0.05, 2, 10, 1000, 3, o2_equidistant(40)),
        ],
        ids=["fig3-exact", "fig3-equidistant", "power-p2", "power-p3-haar", "calibrate"],
    )
    def test_grouping_never_shows_in_the_bits(self, monkeypatch, run):
        # One stream per call against every stream in one call, on one and two threads.
        results = []
        for rows, threads in itertools.product((1, 1 << 30), ("1", "2")):
            monkeypatch.setattr(ht, "STREAM_BLOCK_ROWS", rows)
            monkeypatch.setenv("EIGENGEO_THREADS", threads)
            results.append(study_fields(run()))
        assert all(got == results[0] for got in results[1:])
