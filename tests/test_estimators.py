from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import i0e, i1e

from eigengeo import (
    DimensionMismatch,
    EigenEstimate,
    NearDegenerateSpectrum,
    OrthogonalEnsemble,
    haar_sample,
    lambda_hat,
    lambda_star,
    lambda_star_from_eigs,
    lbar,
    o2_equidistant,
    sample_product_sum,
    replication_rng,
)
from eigengeo.estimators import (
    EQUIDISTANT_O2, EXACT_O2, GAMMA_FRAME, HAAR_MC, LBAR, STAR,
    ExactO2, default_ensemble, frame_posterior_step, log_i0_and_ratio, projected_diagonals,
)
from eigengeo.wishart_sim import sample_batch
from conftest import random_orthogonal, rotation


class TestLbar:
    def test_diagonal_example(self):
        est = lbar(np.diag([4.0, 2.0]), 2)
        assert_allclose(est.values, [2.0, 1.0])
        assert est.method == LBAR

    def test_rotation_invariance(self, rng):
        S = np.diag([5.0, 2.0, 1.0])
        O = random_orthogonal(rng, 3)
        assert_allclose(lbar(O @ S @ O.T, 4).values, lbar(S, 4).values, atol=1e-12)

    def test_trace_identity(self, rng):
        A = rng.standard_normal((5, 3))
        S = A.T @ A + 3 * np.eye(3)
        est = lbar(S, 7)
        assert abs(est.values.sum() - np.trace(S) / 7) < 1e-10 * np.trace(S)

    def test_monte_carlo_bias_direction(self):
        # At identity covariance the top sample eigenvalue is pushed up and
        # the bottom one down.
        S_batch = sample_batch(np.eye(2), 10, 100_000, 11, "test-lbar-bias")
        lbars = np.linalg.eigvalsh(S_batch)[:, ::-1] / 10
        means = lbars.mean(axis=0)
        stderr = lbars.std(axis=0, ddof=1) / np.sqrt(lbars.shape[0])
        assert means[0] - 1.0 > 3 * stderr[0]
        assert 1.0 - means[1] > 3 * stderr[1]


class TestLambdaHat:
    def test_identity_frame_diagonal(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        est = lambda_hat(S, 1, np.eye(2))
        assert_allclose(est.values, [2.0, 1.0])
        assert est.method == GAMMA_FRAME

    def test_nan_frame_refused(self):
        gamma = np.eye(3)
        gamma[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            lambda_hat(np.diag([3.0, 2.0, 1.0]), 10, gamma)


    def test_sample_frame_reproduces_lbar(self, rng):
        S = sample_product_sum(np.diag([2.0, 1.0, 0.5]), 8, rng)
        w, H = np.linalg.eigh(S.matrix)
        H = H[:, ::-1]
        assert_allclose(lambda_hat(S, 8, H).values, lbar(S, 8).values, atol=1e-12)

    def test_monte_carlo_unbiased(self):
        sigma = np.diag([1.0, 0.8])
        S_batch = sample_batch(sigma, 10, 100_000, 5, "test-lh-unbiased")
        vals = S_batch[:, [0, 1], [0, 1]] / 10
        means = vals.mean(axis=0)
        stderr = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        assert np.all(np.abs(means - [1.0, 0.8]) < 3 * stderr)


class TestEigenEstimate:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_entries_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            EigenEstimate(np.array([1.0, bad, 0.1]), LBAR)


class TestO2Equidistant:
    def test_two_points(self):
        ens = o2_equidistant(2)
        assert ens.kind == EQUIDISTANT_O2
        assert_allclose(ens.matrices[0], np.eye(2))
        assert_allclose(ens.matrices[1], rotation(np.pi / 2), atol=1e-15)

    def test_fifty_points_orthogonal(self):
        ens = o2_equidistant(50)
        assert ens.size == 50
        for m in ens.matrices:
            assert np.abs(m.T @ m - np.eye(2)).max() < 1e-14
            assert_allclose(np.linalg.det(m), 1.0)

    def test_exact_trig_average(self):
        ens = o2_equidistant(50)
        d = np.diag([2.0, 1.0])
        avg = sum(w * (g.T @ d @ g)[0, 0] for g, w in zip(ens.matrices, ens.weights))
        assert abs(avg - 1.5) < 1e-12


class TestHaarSample:
    def test_orthonormal_columns(self, rng):
        ens = haar_sample(4, 32, rng)
        assert ens.kind == HAAR_MC
        for m in ens.matrices:
            assert np.abs(m.T @ m - np.eye(4)).max() < 1e-12

    def test_mean_conjugated_diagonal(self):
        ens = haar_sample(2, 100_000, 12345)
        d = np.array([2.0, 1.0])
        firsts = np.einsum("kj,j,kj->k", ens.matrices[:, :, 0], d, ens.matrices[:, :, 0])
        mean = firsts.mean()
        stderr = firsts.std(ddof=1) / np.sqrt(firsts.size)
        assert abs(mean - 1.5) < 3 * stderr

    def test_seed_determinism(self):
        a = haar_sample(3, 5, 77).matrices
        b = haar_sample(3, 5, 77).matrices
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_per_matrix_qr_loop(self, p):
        # Reference: one QR per matrix over the same generator's draws.
        gen = np.random.default_rng(2024)
        want = np.empty((64, p, p))
        for k in range(64):
            q, r = np.linalg.qr(gen.standard_normal((p, p)))
            want[k] = q * np.sign(np.diag(r))
        assert np.array_equal(haar_sample(p, 64, 2024).matrices, want)


class TestOrthogonalEnsemble:
    def test_rejects_non_orthogonal_member_by_index(self):
        mats = haar_sample(3, 6, 5).matrices.copy()
        mats[4] *= 1.001
        with pytest.raises(ValueError, match="member 4 is not orthogonal"):
            OrthogonalEnsemble(mats, np.full(6, 1.0 / 6), HAAR_MC)


class TestProjectedDiagonals:
    ENSEMBLES = [
        pytest.param(lambda: haar_sample(3, 512, 1), id="haar-p3"),
        pytest.param(lambda: haar_sample(4, 512, 2), id="haar-p4"),
        pytest.param(lambda: haar_sample(5, 512, 3), id="haar-p5"),
        pytest.param(lambda: o2_equidistant(100), id="equidistant-p2"),
    ]

    @staticmethod
    def einsum_oracle(eig_rows, ens):
        # Reference: square every node, then contract with einsum (nodes last).
        return np.einsum("kji,rj->rik", ens.matrices**2, eig_rows)

    @pytest.mark.parametrize("make", ENSEMBLES)
    def test_one_row_bit_equal(self, make, rng):
        # A descending view of eigvalsh output, the row lambda_star and
        # eigen_lrt_stat pass, gives the bits of its contiguous copy (both
        # go through BLAS) and agrees with the einsum to rounding.
        ens = make()
        row = np.sort(rng.uniform(1.0, 20.0, ens.dim))[::-1][None, :]
        got = projected_diagonals(row, ens)
        assert got.shape == (1, ens.dim, ens.size)
        assert np.array_equal(got, projected_diagonals(np.ascontiguousarray(row), ens))
        assert_allclose(got, self.einsum_oracle(row, ens), rtol=1e-15, atol=0)
        brute = np.array([np.diagonal(H.T @ np.diag(row[0]) @ H) for H in ens.matrices])
        assert_allclose(got[0].T, brute, rtol=1e-14)

    @pytest.mark.parametrize("make", ENSEMBLES)
    def test_batch_within_rounding(self, make, rng):
        ens = make()
        rows = np.sort(rng.uniform(1.0, 20.0, (200, ens.dim)), axis=1)[:, ::-1]
        assert_allclose(projected_diagonals(rows, ens), self.einsum_oracle(rows, ens), rtol=1e-15, atol=0)

    def test_squared_nodes_read_only_layout(self):
        ens = haar_sample(3, 7, 4)
        q = ens.squared_nodes
        assert q.shape == (3, 3 * 7) and q.dtype == np.float64
        assert not q.flags.writeable
        assert ens.squared_nodes is q
        assert np.array_equal(q.reshape(3, 3, 7), np.transpose(ens.matrices**2, (1, 2, 0)))

    def test_replaced_ensemble_gets_fresh_squares(self):
        ens = haar_sample(3, 64, 4)
        row = np.array([[9.0, 4.0, 1.0]])
        projected_diagonals(row, ens)  # fills the cache
        other = replace(ens, matrices=haar_sample(3, 64, 5).matrices)
        assert_allclose(projected_diagonals(row, other), self.einsum_oracle(row, other), rtol=1e-15, atol=0)
        assert not np.array_equal(other.squared_nodes, ens.squared_nodes)


class TestFramePosteriorStep:
    @pytest.mark.parametrize("make", TestProjectedDiagonals.ENSEMBLES)
    def test_shared_diagonal_matches_per_row(self, make, rng):
        # A D with one leading row serves every row of log_lam (two GEMMs)
        # and agrees with that D repeated per row (batched products).
        ens = make()
        row = np.sort(rng.uniform(1.0, 20.0, ens.dim))[::-1][None, :]
        D = projected_diagonals(row, ens)
        log_lam = np.log(row / 10) + rng.normal(0.0, 0.3, (9, ens.dim))
        f, update = frame_posterior_step(D, log_lam, 10, ens)
        g, per_row = frame_posterior_step(np.repeat(D, 9, axis=0), log_lam, 10, ens)
        assert f.shape == (9,) and update.shape == (9, ens.dim)
        assert_allclose(f, g, rtol=1e-14, atol=0)
        assert_allclose(update, per_row, rtol=1e-14, atol=0)


class TestLambdaStar:
    def test_equal_eigenvalues_give_mean(self):
        ens = o2_equidistant(50)
        got = lambda_star_from_eigs(np.array([10.0, 10.0]), 10, ens, check_gaps=False)
        assert_allclose(got, [1.0, 1.0], atol=1e-12)

    def test_distinctness_guard(self):
        ens = o2_equidistant(50)
        with pytest.raises(NearDegenerateSpectrum):
            lambda_star_from_eigs(np.array([10.0, 10.0]), 10, ens)

    def test_wrong_sized_ensemble_refused(self):
        with pytest.raises(DimensionMismatch, match="2.*3"):
            lambda_star_from_eigs(np.array([30.0, 10.0, 4.0]), 10, o2_equidistant(10))
        with pytest.raises(DimensionMismatch, match="2.*3"):
            lambda_star(np.diag([3.0, 1.0, 0.4]), 10, o2_equidistant(10))

    def test_large_n_recovers_lbar(self):
        ens = o2_equidistant(50)
        n = 10**6
        lbar_target = np.array([2.0, 1.0])
        got = lambda_star_from_eigs(n * lbar_target, n, ens)
        assert np.abs(got - lbar_target).max() < 1e-3

    def test_shrinkage_direction_and_trace(self):
        ens = o2_equidistant(50)
        got = lambda_star_from_eigs(np.array([20.0, 10.0]), 10, ens)
        assert got[0] < 2.0
        assert got[1] > 1.0
        assert abs(got.sum() - 3.0) < 1e-10 * 3.0

    def test_trace_preserved_any_ensemble(self, rng):
        for ens in (o2_equidistant(7), haar_sample(2, 64, 3)):
            eigs = np.sort(rng.uniform(1.0, 30.0, 2))[::-1]
            got = lambda_star_from_eigs(eigs, 5, ens)
            want = eigs.sum() / 5
            assert abs(got.sum() - want) < 1e-10 * want

    def test_scale_equivariance(self, rng):
        ens = o2_equidistant(50)
        A = rng.standard_normal((12, 2))
        S = A.T @ A
        base = lambda_star(S, 12, ens).values
        for c in (0.1, 10.0):
            scaled = lambda_star(c * S, 12, ens).values
            assert np.abs(scaled - c * base).max() < 1e-10 * c * base.max()

    def test_singleton_identity_ensemble_is_lbar(self, rng):
        ens = OrthogonalEnsemble(np.eye(3)[None, :, :], np.array([1.0]), "haar-mc")
        A = rng.standard_normal((9, 3))
        S = A.T @ A + np.eye(3)
        assert_allclose(
            lambda_star(S, 9, ens).values, lbar(S, 9).values, atol=1e-12
        )

    def test_order_preserved_on_wishart_draws(self):
        ens = o2_equidistant(50)
        S_batch = sample_batch(np.diag([1.0, 0.6]), 10, 1000, 4, "test-star-order")
        eigs = np.linalg.eigvalsh(S_batch)[:, ::-1]
        vals = lambda_star_from_eigs(eigs, 10, ens, check_gaps=False)
        assert np.all(vals[:, 0] >= vals[:, 1])

    def test_p3_matches_per_node_posterior_mean(self, rng):
        # Weight and value on the same frame: node H gets log-weight
        # -(n/2) trace(L^-1 H^T L H) and value diag(H^T L H) / n.
        ens = haar_sample(3, 300, 21)
        n = 8
        for _ in range(3):
            eigs = np.sort(rng.uniform(1.0, 30.0, 3))[::-1]
            L = np.diag(eigs)
            log_w, vals = [], []
            for H in ens.matrices:
                M = H.T @ L @ H
                log_w.append(-0.5 * n * np.trace(np.linalg.inv(L) @ M))
                vals.append(np.diag(M) / n)
            w = np.exp(np.array(log_w) - max(log_w))
            want = (w[:, None] * np.array(vals)).sum(axis=0) / w.sum()
            assert_allclose(lambda_star_from_eigs(eigs, n, ens), want, rtol=1e-12)

    def test_p2_values_match_earlier_pairing(self, rng):
        # Before weights and values were paired on H^T L H, the weights used
        # trace(L^-1 H L H^T); on the rotation grid the two agree.
        ens = o2_equidistant(50)
        eigs = np.sort(rng.uniform(1.0, 30.0, (200, 2)), axis=1)[:, ::-1]
        W = ens.matrices**2
        exponents = -5.0 * np.einsum("ri,kji,rj->rk", eigs, W, 1.0 / eigs)
        rel = np.exp(exponents - exponents.max(axis=1, keepdims=True))
        earlier = np.einsum("rk,rki->ri", rel, np.einsum("rj,kji->rki", eigs / 10, W))
        earlier /= rel.sum(axis=1, keepdims=True)
        assert_allclose(lambda_star_from_eigs(eigs, 10, ens), earlier, rtol=1e-12)

    def test_metadata(self, rng):
        ens = o2_equidistant(13)
        A = rng.standard_normal((8, 2))
        est = lambda_star(A.T @ A, 8, ens)
        assert est.method == STAR
        assert est.meta["ensemble_size"] == 13


# Bessel arguments: 0, tiny values, both sides of the series/asymptotic seam
# at 20, and a sweep up to 1e4.
BESSEL_X = np.concatenate([
    [0.0, 1e-300, 1e-20, 1e-8, 1e-5, 1e-3],
    np.linspace(0.01, 40.0, 2000),
    np.nextafter(20.0, [0.0, 20.0, 40.0]),
    np.linspace(19.9, 20.1, 41),
    np.geomspace(40.0, 1e4, 300),
])


class TestBesselHelpers:
    def test_ratio_matches_scipy(self):
        _, ratio = log_i0_and_ratio(BESSEL_X)
        assert_allclose(ratio, i1e(BESSEL_X) / i0e(BESSEL_X), rtol=1e-13, atol=0.0)

    def test_log_i0_matches_scipy(self):
        log_i0, _ = log_i0_and_ratio(BESSEL_X)
        big = BESSEL_X >= 1.0
        # log(i0e) + x cancels below x = 1, so compare I0 e^-x there.
        assert_allclose(log_i0[big], np.log(i0e(BESSEL_X[big])) + BESSEL_X[big], rtol=1e-13, atol=0.0)
        assert_allclose(np.exp(log_i0[~big] - BESSEL_X[~big]), i0e(BESSEL_X[~big]), rtol=1e-13, atol=0.0)

    def test_log_i0_relative_at_tiny_x(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([[1e-300, 1e-20, 1e-8, 1e-5, 1e-3], np.linspace(0.01, 1.0, 50)])
        with mpmath.workdps(60):
            want = [float(mpmath.log(mpmath.besseli(0, mpmath.mpf(float(v))))) for v in x]
        assert_allclose(log_i0_and_ratio(x)[0], want, rtol=1e-13, atol=0.0)

    def test_no_overflow_where_np_i0_does(self):
        x = np.array([700.0, 800.0, 1e6, 1e300])
        log_i0, ratio = log_i0_and_ratio(x)
        assert np.all(np.isfinite(log_i0)) and np.all((ratio > 0.99) & (ratio <= 1.0))


def exact_and_grid_rows(seed, count=50, n=10):
    """Wishart sample eigenvalue rows and population eigenvalues near l/n."""
    rng = np.random.default_rng(seed)
    eigs = np.empty((count, 2))
    for r in range(count):
        x = rng.standard_normal((n, 2)) * np.sqrt(rng.uniform(0.2, 3.0, 2))
        eigs[r] = np.linalg.eigvalsh(x.T @ x)[::-1]
    log_lam = np.log(eigs / n) + rng.normal(0.0, 0.5, (count, 2))
    return eigs, log_lam


class TestExactO2:
    def test_is_the_p2_default_and_has_no_nodes(self):
        ens = default_ensemble(2)
        assert isinstance(ens, ExactO2) and ens.kind == EXACT_O2
        assert ens.dim == 2 and ens.size == 0
        assert default_ensemble(3).size == 4096

    def test_step_matches_dense_grid(self):
        grid = o2_equidistant(400)
        eigs, log_lam = exact_and_grid_rows(31)
        f, update = frame_posterior_step(projected_diagonals(eigs, ExactO2()), log_lam, 10, ExactO2())
        g, grid_update = frame_posterior_step(projected_diagonals(eigs, grid), log_lam, 10, grid)
        assert_allclose(f, g, rtol=0.0, atol=1e-12)
        assert_allclose(update, grid_update, rtol=1e-12, atol=0.0)

    def test_symmetric_under_swapping_lambda(self):
        # The objective is symmetric and the EM map equivariant.
        eigs, log_lam = exact_and_grid_rows(32)
        f, update = frame_posterior_step(eigs, log_lam, 10, ExactO2())
        g, swapped = frame_posterior_step(eigs, log_lam[:, ::-1], 10, ExactO2())
        assert_allclose(f, g, rtol=1e-15, atol=0.0)
        assert_allclose(update, swapped[:, ::-1], rtol=1e-15, atol=0.0)

    def test_lambda_star_matches_dense_grid(self):
        eigs, _ = exact_and_grid_rows(33)
        got = lambda_star_from_eigs(eigs, 10, ExactO2())
        assert_allclose(got, lambda_star_from_eigs(eigs, 10, o2_equidistant(400)), rtol=1e-12, atol=0.0)
        assert_allclose(got.sum(axis=1), eigs.sum(axis=1) / 10, rtol=1e-14)

    def test_metadata_and_dimension(self):
        est = lambda_star(np.diag([20.0, 10.0]), 10, ExactO2())
        assert est.meta == {"ensemble_kind": EXACT_O2, "ensemble_size": 0}
        with pytest.raises(DimensionMismatch, match="2.*3"):
            lambda_star(np.diag([3.0, 1.0, 0.4]), 10, ExactO2())
