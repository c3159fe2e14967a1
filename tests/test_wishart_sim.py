import re
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eigengeo.wishart_sim as ws
from eigengeo import (
    DimensionMismatch,
    EigengeoError,
    NotPositiveDefinite,
    SpdMatrix,
    bias_majorization_check,
    figure4_experiment,
    figure5_experiment,
    figure6_experiment,
    haar_sample,
    kl_risk,
    lambda_star,
    lambda_star_from_eigs,
    lbar,
    replication_rng,
    sample_product_sum,
)
from eigengeo.cli import main
from eigengeo.hypothesis_tests import FULL_LRT, CriticalValue, power_curve
from eigengeo.estimators import ExactO2, default_ensemble, o2_equidistant
from eigengeo.spd_manifold import _p2_eigenvalues, descending_eigenvalues, separated_rows
from eigengeo.wishart_sim import (
    DRAW_CHUNK,
    _batch_identity_frame,
    _batch_lbar,
    _batch_star,
    _ratio_scenario,
    _risk_grid,
    _risk_point,
    color_batch,
    kl_loss_diag,
    sample_batch,
    white_batch,
    worker_count,
)

from conftest import assert_read_only

DRAW_SEEDS = (0, 7, 2**63 + 5)
DRAW_STREAMS = ("bias", "power")


def fresh_philox_normals(p, n, reps, seed, stream):
    """Reference draws: a Philox built afresh for every replication, keyed
    [seed, crc32(stream) << 32 ^ rep]."""
    high = zlib.crc32(stream.encode()) << 32
    return np.stack(
        [
            np.random.Generator(np.random.Philox(key=np.array([seed, high ^ r], dtype=np.uint64)))
            .standard_normal((n, p))
            for r in range(reps)
        ]
    )


def gram(z):
    """Z^T Z of each (n, p) block, one 2-d matmul per replication."""
    return np.stack([block.T @ block for block in z])


class TestSampling:
    def test_seed_determinism(self):
        sigma = np.diag([2.0, 1.0])
        a = sample_product_sum(sigma, 5, replication_rng(9, "s", 0)).matrix
        b = sample_product_sum(sigma, 5, replication_rng(9, "s", 0)).matrix
        assert np.array_equal(a, b)

    def test_distinct_replications_differ(self):
        sigma = np.eye(2)
        a = sample_product_sum(sigma, 5, replication_rng(9, "s", 0)).matrix
        b = sample_product_sum(sigma, 5, replication_rng(9, "s", 1)).matrix
        assert not np.array_equal(a, b)

    def test_mean_matches_population(self):
        sigma = np.diag([2.0, 1.0])
        S_batch = sample_batch(sigma, 10, 100_000, 21, "test-mean")
        means = S_batch.mean(axis=0) / 10
        stderr = S_batch.std(axis=0, ddof=1) / 10 / np.sqrt(S_batch.shape[0])
        assert np.all(np.abs(means - sigma) < 3 * stderr + 1e-12)

    def test_minimal_n_is_spd_with_distinct_eigs(self):
        S = sample_product_sum(np.eye(2), 2, replication_rng(3, "s", 5))
        eigs = np.linalg.eigvalsh(S.matrix)
        assert eigs[0] > 0
        assert eigs[1] - eigs[0] > 1e-8

    def test_requires_enough_observations(self):
        with pytest.raises(ValueError):
            sample_product_sum(np.eye(3), 2, replication_rng(0, "s", 0))

    def test_batch_requires_enough_observations(self):
        with pytest.raises(ValueError):
            sample_batch(np.eye(3), 2, 10, 0, "s")
        with pytest.raises(ValueError, match="n >= p"):
            white_batch(3, 2, 10, 0, "s")

    BAD_SIGMAS = {
        "asymmetric": [[1.0, 5.0], [0.0, 1.0]],
        "non-finite": [[1.0, np.nan], [np.nan, 1.0]],
        "indefinite": [[1.0, 2.0], [2.0, 1.0]],
        "indefinite-p3": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
    }

    @pytest.mark.parametrize("sigma", BAD_SIGMAS.values(), ids=BAD_SIGMAS)
    def test_samplers_refuse_a_bad_covariance_as_spd_matrix_does(self, monkeypatch, sigma):
        # The Cholesky factor reads only the lower triangle: an asymmetric
        # Sigma was sampled as its lower half, a NaN one gave NaN samples and
        # an indefinite one raised numpy's LinAlgError.
        with pytest.raises(NotPositiveDefinite) as want:
            SpdMatrix(np.array(sigma))
        message = f"^{re.escape(str(want.value))}$"
        W = white_batch(len(sigma), 10, 5, 0, "s")
        with pytest.raises(NotPositiveDefinite, match=message):
            color_batch(W, sigma)

        def never(*args, **kwargs):
            raise AssertionError("drew replications for a refused covariance")

        monkeypatch.setattr(ws, "white_batch", never)
        with pytest.raises(NotPositiveDefinite, match=message):
            sample_batch(sigma, 10, 5, 0, "s")


class TestSubstreams:
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("stream", DRAW_STREAMS)
    def test_batch_matches_per_replication_generators(self, p, seed, stream):
        # Three replications past the first chunk of the draw buffer.
        n, reps = 10, DRAW_CHUNK + 3
        z = fresh_philox_normals(p, n, reps, seed, stream)
        W = white_batch(p, n, reps, seed, stream)
        assert W.tobytes() == gram(z).tobytes()
        assert not W.flags.writeable
        loop = [replication_rng(seed, stream, r).standard_normal((n, p)) for r in range(reps)]
        assert np.stack(loop).tobytes() == z.tobytes()
        # sample_product_sum is one replication of the batch, bit for bit.
        sigma = np.diag(np.arange(p, 0, -1.0)) + 0.1 * (1.0 - np.eye(p))
        S_want = np.stack(
            [sample_product_sum(sigma, n, replication_rng(seed, stream, r)).matrix for r in range(reps)]
        )
        S = sample_batch(sigma, n, reps, seed, stream)
        assert S.tobytes() == S_want.tobytes()
        assert np.array_equal(S, S.swapaxes(1, 2))

    @pytest.mark.parametrize(
        "sigma",
        [np.array([[2.0, 0.4], [0.4, 0.7]]), np.array([[2.0, 0.4, 0.1], [0.4, 1.0, -0.3], [0.1, -0.3, 0.7]])],
        ids=["p2-columns", "p3-gemm"],
    )
    def test_color_batch_is_the_congruence_of_the_gram(self, sigma):
        p = sigma.shape[0]
        z = fresh_philox_normals(p, 10, 50, 3, "congruence")
        x = z @ np.linalg.cholesky(sigma).T
        assert_allclose(color_batch(gram(z), sigma), gram(x), rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("general", [False, True], ids=["identity", "general"])
    def test_color_batch_peaks_at_twice_its_output(self, general):
        # The transposed stacks are explicit copies, each freed before the
        # next is made; the bytes are those of the overlapping in-place form.
        p, reps = 5, 20_000
        sigma = np.diag(np.arange(p, 0, -1.0)) + 0.1 * (1.0 - np.eye(p)) if general else np.eye(p)
        W = white_batch(p, 10, reps, 0, "color-peak")
        A = np.linalg.cholesky(sigma)
        AW = (W.reshape(reps * p, p) @ A.T).reshape(reps, p, p).swapaxes(1, 2)
        want = (AW.reshape(reps * p, p) @ A.T).reshape(reps, p, p)
        want += want.swapaxes(1, 2)
        want *= 0.5
        del AW
        tracemalloc.start()
        try:
            S = color_batch(W, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.tobytes() == want.tobytes()
        assert peak <= 2.1 * S.nbytes

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_kl_risk_draws_match_per_replication_generators(self, seed):
        sigma = np.diag([3.0, 2.0, 1.0])
        seen = []

        def recording(S, n):
            seen.append(S.matrix)
            return np.diag(S.matrix) / n

        kl_risk(recording, sigma, 10, 30, seed, stream="kl-check")
        want = color_batch(gram(fresh_philox_normals(3, 10, 30, seed, "kl-check")), sigma)
        assert np.stack(seen).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "seed, rep", [(-1, 0), (2**64, 0), (0, -1), (0, 2**32)]
    )
    def test_aliasing_keys_refused(self, seed, rep):
        # seed -1 would wrap onto 2**64 - 1, and rep 2**32 would spill into
        # the stream-name bits of the key.
        with pytest.raises(ValueError, match=r"2\*\*"):
            replication_rng(seed, "s", rep)

    def test_white_batch_refuses_reps_past_the_key_range_before_drawing(self, monkeypatch):
        # The replication range is checked once per batch, so the refusal
        # comes before any buffer or generator is built.
        def never(*args, **kwargs):
            raise AssertionError("white_batch built a buffer")

        monkeypatch.setattr(np, "empty", never)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            white_batch(2, 10, 2**32 + 1, 0, "s")

    @pytest.mark.parametrize("reps", [0, -1])
    @pytest.mark.parametrize(
        "run",
        [
            lambda reps: figure4_experiment(reps=reps),
            lambda reps: kl_risk(lambda S, n: np.ones(2), np.eye(2), 10, reps, 0),
            lambda reps: power_curve(FULL_LRT, [np.eye(2)], CriticalValue(0.05, -1.0, 1000, 0, FULL_LRT), 10, reps, 0),
            lambda reps: sample_batch(np.eye(2), 10, reps, 0, "s"),
        ],
        ids=["figure4_experiment", "kl_risk", "power_curve", "sample_batch"],
    )
    def test_empty_or_negative_reps_refused_by_white_batch(self, run, reps):
        # One check, in white_batch, gives every caller the same message.
        with pytest.raises(ValueError, match=rf"^reps must be >= 1, got {reps}$"):
            run(reps)

    def test_key_range_edges_accepted(self):
        replication_rng(0, "s", 0).standard_normal(3)
        replication_rng(2**64 - 1, "s", 2**32 - 1).standard_normal(3)

    @pytest.mark.parametrize("stream", ["power", "bias"])
    def test_numpy_integer_rep_draws_the_python_int_bits(self, stream):
        # crc32("power") >= 2**31 overflows an int64 xor; any crc overflows
        # a 32-bit one.  The key must not depend on the rep's integer type.
        assert (zlib.crc32(stream.encode()) >= 1 << 31) == (stream == "power")
        want = replication_rng(0, stream, 3).standard_normal(8)
        for rep in (np.int64(3), np.uint32(3), np.int32(3)):
            assert replication_rng(0, stream, rep).standard_normal(8).tobytes() == want.tobytes()

    def test_batched_paths_refuse_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            sample_batch(np.eye(2), 10, 5, -1, "s")
        with pytest.raises(ValueError, match="seed"):
            white_batch(2, 10, 5, 2**64, "s")
        with pytest.raises(ValueError, match="seed"):
            kl_risk(lambda S, n: np.ones(2), np.eye(2), 10, 5, 2**64)
        with pytest.raises(ValueError, match="seed"):
            figure4_experiment(reps=5, seed=-1)


class TestKlRisk:
    def test_infinite_loss_is_kept(self):
        # A finite estimate whose ratio overflows is an infinite loss, not a
        # failed replication: the risk and its standard error are infinite.
        calls = []

        def overflowing(S, n):
            calls.append(S)
            return np.array([1.0, 1e308]) if len(calls) == 3 else lbar(S, n)

        res = kl_risk(overflowing, np.diag([2.0, 0.5]), 10, 5, 0)
        assert (res.mean, res.stderr, res.reps, res.failures) == (np.inf, np.inf, 5, 0)

    def test_oracle_estimator_has_zero_risk(self):
        sigma = np.diag([2.0, 1.0])
        res = kl_risk(lambda S, n: np.array([2.0, 1.0]), sigma, 10, 200, 0)
        assert res.mean == 0.0
        assert res.failures == 0

    def test_frame_estimator_beats_eigenvalues_at_identity(self):
        sigma = np.eye(2)
        res_lbar = kl_risk(lambda S, n: lbar(S, n), sigma, 10, 4000, 0)
        res_frame = kl_risk(
            lambda S, n: np.einsum("ii->i", np.asarray(S.matrix)) / n, sigma, 10, 4000, 0
        )
        assert res_lbar.mean > 1.2 * res_frame.mean

    def test_scale_invariance(self):
        # Identical substreams color into proportional samples, so the risk
        # of a scale-equivariant estimator is exactly scale-free.
        base = kl_risk(lambda S, n: lbar(S, n), np.diag([2.0, 1.0]), 10, 500, 8)
        for c in (0.5, 2.0):
            scaled = kl_risk(
                lambda S, n: lbar(S, n), c * np.diag([2.0, 1.0]), 10, 500, 8
            )
            assert_allclose(scaled.mean, base.mean, rtol=1e-12)

    def test_stderr_scales_with_reps(self):
        small = kl_risk(lambda S, n: lbar(S, n), np.eye(2), 10, 1000, 4)
        large = kl_risk(lambda S, n: lbar(S, n), np.eye(2), 10, 4000, 4)
        assert abs(large.stderr / small.stderr - 0.5) < 0.2 * 0.5

    def test_failures_counted(self):
        calls = {"n": 0}

        def flaky(S, n):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                from eigengeo.errors import NearDegenerateSpectrum

                raise NearDegenerateSpectrum("synthetic")
            return np.array([1.0, 1.0])

        res = kl_risk(flaky, np.eye(2), 10, 30, 0)
        assert res.failures == 10
        assert res.reps == 20

    def test_no_replications_refused(self):
        with pytest.raises(ValueError, match="reps"):
            kl_risk(lambda S, n: np.ones(2), np.eye(2), 10, 0, 0)

    @pytest.mark.parametrize("estimate", [1.0, np.ones(1), np.ones(4), np.ones((1, 3))])
    def test_wrong_shape_estimate_refused(self, estimate):
        # A scalar or a length-1 vector used to broadcast against the three
        # population eigenvalues and give a finite risk.
        with pytest.raises(DimensionMismatch, match="replication 0"):
            kl_risk(lambda S, n: estimate, np.diag([3.0, 2.0, 1.0]), 10, 50, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_estimate_refused(self, bad):
        calls = []

        def estimator(S, n):
            calls.append(1)
            vals = np.diag(S.matrix) / n
            return np.array([vals[0], bad, vals[2]]) if len(calls) == 5 else vals

        with pytest.raises(ValueError, match="replication 4"):
            kl_risk(estimator, np.diag([3.0, 2.0, 1.0]), 10, 50, 0)


def per_slice_kl_risk(estimator, sigma, n, reps, seed, stream):
    """The per-replication loop kl_risk ran before it validated and scored
    its replications as one stack: one SpdMatrix and one loss per slice."""
    target = np.linalg.eigvalsh(sigma)[::-1]
    losses = np.empty(reps)
    valid = np.zeros(reps, dtype=bool)
    for r, S_r in enumerate(sample_batch(sigma, n, reps, seed, stream)):
        S = SpdMatrix(S_r)
        try:
            vals = estimator(S, n)
        except EigengeoError:
            continue
        losses[r] = kl_loss_diag(vals, target)
        valid[r] = True
    kept = losses[valid]
    return kept.mean(), kept.std(ddof=1) / np.sqrt(kept.size), kept.size, reps - kept.size


class TestKlRiskStack:
    @staticmethod
    def sigma(p):
        q, _ = np.linalg.qr(np.random.default_rng(p).standard_normal((p, p)))
        sigma = (q * np.linspace(3.0, 0.5, p)) @ q.T
        return 0.5 * (sigma + sigma.T)  # bitwise symmetric, as SpdMatrix stores it

    @pytest.mark.parametrize("p", [3, 5])
    def test_lambda_star_is_the_per_slice_loop(self, p):
        ens = default_ensemble(p, 0)
        sigma = self.sigma(p)
        res = kl_risk(lambda S, n: lambda_star(S, n, ens), sigma, 10, 40, 3, "stack-star")
        # The estimate as it was computed before S kept its spectrum.
        want = per_slice_kl_risk(
            lambda S, n: lambda_star_from_eigs(descending_eigenvalues(S.matrix[None])[0], n, ens),
            sigma, 10, 40, 3, "stack-star",
        )
        assert (res.mean, res.stderr, res.reps, res.failures) == want

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_lbar_is_the_per_slice_loop(self, p):
        sigma = self.sigma(p)
        res = kl_risk(lbar, sigma, 10, 200, 5, "stack-lbar")
        want = per_slice_kl_risk(
            lambda S, n: descending_eigenvalues(S.matrix[None])[0] / n, sigma, 10, 200, 5, "stack-lbar"
        )
        assert (res.mean, res.stderr, res.reps, res.failures) == want

    def test_replications_hold_o1_matrices(self):
        # Each SpdMatrix is built as the loop reaches its slice: the peak now
        # grows with the batched validation's arrays alone (about 0.31 MB per
        # 1000 replications at p = 3), not with one object per replication
        # on top of them (0.54 MB when the whole stack was a list).
        sigma = self.sigma(3)

        def peak(reps):
            tracemalloc.start()
            try:
                kl_risk(lambda S, n: S.eigenvalues / n, sigma, 10, reps, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_1000 = (peak(3000) - peak(1000)) / 2
        assert per_1000 < 0.4e6

    def test_no_eigvalsh_per_replication(self, monkeypatch):
        ens = haar_sample(3, 256, 0)
        sigma = self.sigma(3)
        real = np.linalg.eigvalsh
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        counts = []
        for reps in (10, 40):
            calls.clear()
            kl_risk(lambda S, n: lambda_star(S, n, ens), sigma, 10, reps, 0)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3
        assert (40, 3, 3) in calls


class TestKlLossDiag:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_columns_sum_like_the_row_reduction(self, p):
        rng = np.random.default_rng(p)
        est = rng.uniform(0.1, 3.0, (1000, p)) * 10.0 ** rng.integers(-6, 7, (1000, p))
        lam = rng.uniform(0.5, 2.0, p)
        ratio = est / lam
        want = ratio.sum(axis=1) - np.log(ratio).sum(axis=1) - p
        assert kl_loss_diag(est, lam).tobytes() == want.tobytes()
        # Column-major estimates, as the grid runners' columns arrive.
        assert kl_loss_diag(np.asfortranarray(est), lam).tobytes() == want.tobytes()

    def test_zero_at_truth(self):
        assert kl_loss_diag(np.array([2.0, 1.0]), np.array([2.0, 1.0])) == 0.0

    def test_matches_direct_formula(self):
        est = np.array([1.3, 0.6])
        lam = np.array([1.0, 0.8])
        ratio = est / lam
        want = ratio.sum() - np.log(ratio).sum() - 2
        assert_allclose(kl_loss_diag(est, lam), want)

    def test_ratio_beyond_the_float_range_is_an_infinite_loss(self):
        # inf - inf was NaN, the failure mark, with overflow and invalid warnings.
        est = np.array([[1.0, 1e308], [5e-324, 1.0], [1e308, 1e308], [np.nan, 1.0], [1.3, 0.6]])
        lam = np.array([2.0, 0.5])
        loss = kl_loss_diag(est, lam)
        assert loss[:3].tolist() == [np.inf] * 3 and np.isnan(loss[3])
        assert loss[4] == kl_loss_diag(est[4], lam)


def gemm_color(W, sigma):
    """The stacked colouring the grids ran before they used entry columns:
    two (reps p, p) @ A^T GEMMs, then the mean with the transpose."""
    A = np.linalg.cholesky(sigma)
    reps, p = W.shape[:2]
    AW = (W.reshape(reps * p, p) @ A.T).reshape(reps, p, p).swapaxes(1, 2)
    S = (AW.reshape(reps * p, p) @ A.T).reshape(reps, p, p)
    return 0.5 * (S + S.swapaxes(1, 2))


def stacked_star(ensemble):
    def run(S_batch, n):
        eigs = descending_eigenvalues(S_batch)
        valid = separated_rows(eigs)
        vals = np.full_like(eigs, np.nan)
        vals[valid] = lambda_star_from_eigs(eigs[valid], n, ensemble, check_gaps=False)
        return vals, valid

    return run


STACKED_RUNNERS = {
    "lbar": lambda S_batch, n: (descending_eigenvalues(S_batch) / n, np.ones(len(S_batch), bool)),
    "frame": lambda S_batch, n: (np.diagonal(S_batch, axis1=1, axis2=2) / n, np.ones(len(S_batch), bool)),
    "exact": stacked_star(ExactO2()),
    "grid": stacked_star(o2_equidistant(50)),
}
COLUMN_RUNNERS = {
    "lbar": _batch_lbar,
    "frame": _batch_identity_frame,
    "exact": _batch_star(ExactO2()),
    "grid": _batch_star(o2_equidistant(50)),
}


def stacked_risk_point(W, n, sigma, target, tags):
    """One risk-grid point on (reps, 2, 2) stacks: the GEMM colouring, the
    stacked estimators and the axis-sum KL loss; (mean, stderr, reps,
    failures) per tag, then for the difference of the two."""
    S_batch = gemm_color(W, sigma)
    losses, valids = [], []
    for tag in tags:
        vals, valid = STACKED_RUNNERS[tag](S_batch, n)
        ratio = vals / target
        with np.errstate(invalid="ignore"):
            losses.append(ratio.sum(axis=1) - np.log(ratio).sum(axis=1) - 2)
        valids.append(valid)
    cells = []
    for loss, valid in [*zip(losses, valids), (losses[0] - losses[1], valids[0] & valids[1])]:
        kept = loss[valid]
        cells.append((kept.mean(), kept.std(ddof=1) / np.sqrt(kept.size), kept.size, len(W) - kept.size))
    return cells


def column_risk_point(W, n, sigma, target, tags):
    w = np.stack((W[:, 0, 0], W[:, 1, 0], W[:, 1, 1]))
    results, diff = _risk_point(w, n, sigma, target, [(tag, COLUMN_RUNNERS[tag]) for tag in tags])
    return [(r.mean, r.stderr, r.reps, r.failures) for r in [*results.values(), diff]]


class TestRiskPointColumns:
    W = white_batch(2, 10, 3000, 7, "risk-point")

    @pytest.mark.parametrize("tags", [("lbar", "frame"), ("lbar", "exact"), ("lbar", "grid")])
    @pytest.mark.parametrize("lam", [(1.0, 0.3), (1.0, 0.96), (0.3, 1.0)])
    def test_diagonal_sigma_is_the_stacked_pipeline_bit_for_bit(self, tags, lam):
        # A diagonal Cholesky factor makes every product the columns drop an
        # exact 0, so no cell may move.
        sigma, target = np.diag(lam), np.array(lam)
        want = stacked_risk_point(self.W, 10, sigma, target, tags)
        assert column_risk_point(self.W, 10, sigma, target, tags) == want

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.4])
    def test_rotated_sigma_is_the_stacked_pipeline_to_a_few_ulp(self, theta):
        # The GEMMs may fuse multiply and add, the columns never do, so the
        # cells agree only to rounding: within 4 ulp of the point's larger
        # risk, the scale at which every loss is formed.
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        lam = np.array([1.0, 0.8])
        sigma = (R * lam) @ R.T
        for tags in [("lbar", "frame"), ("lbar", "exact")]:
            want = stacked_risk_point(self.W, 10, sigma, lam, tags)
            got = column_risk_point(self.W, 10, sigma, lam, tags)
            scale = 4 * np.spacing(max(want[0][0], want[1][0]))
            for g, w in zip(got, want):
                assert g[2:] == w[2:]
                assert abs(g[0] - w[0]) <= scale and abs(g[1] - w[1]) <= scale


def refusing_runner(refuse):
    """A grid runner with lbar's estimates, NaN on the rows where
    ``refuse(S, eigs)`` is True."""

    def run(S, eigs, n):
        vals = _batch_lbar(S, eigs, n)
        vals[:, refuse(S, eigs)] = np.nan
        return vals

    return run


class TestNanFailureRule:
    W = white_batch(2, 10, 400, 3, "nan-rule")
    w = np.stack((W[:, 0, 0], W[:, 1, 0], W[:, 1, 1]))

    def test_runners_return_estimate_columns_nan_on_refused_rows(self):
        S = self.w.copy()
        S[:, [3, 17]] = [[2.0], [0.0], [2.0]]  # tied eigenvalues, refused by lambda_star
        eigs = _p2_eigenvalues(*S)
        refused = ~separated_rows(eigs.T)
        assert np.flatnonzero(refused).tolist() == [3, 17]
        for tag, runner in COLUMN_RUNNERS.items():
            vals = runner(S, eigs, 10)
            assert isinstance(vals, np.ndarray) and vals.shape == (2, 400)
            want = refused if tag in ("exact", "grid") else np.zeros(400, dtype=bool)
            assert np.array_equal(np.isnan(vals), np.broadcast_to(want, vals.shape))

    def test_nan_rows_are_the_failed_replications(self):
        rows = [0, 5, 6, 399]
        stub = refusing_runner(lambda S, eigs: rows)
        results, diff = _risk_point(self.w, 10, np.diag([1.0, 0.5]), np.array([1.0, 0.5]),
                                    (("lbar", _batch_lbar), ("stub", stub)))
        assert (results["lbar"].reps, results["lbar"].failures) == (400, 0)
        assert (results["stub"].reps, results["stub"].failures) == (396, 4)
        assert (diff.reps, diff.failures) == (396, 4)
        # The stub is lbar on the rows it keeps.
        assert (diff.mean, diff.stderr) == (0.0, 0.0)

    def test_every_cell_counts_each_replication_once(self):
        stub = refusing_runner(lambda S, eigs: eigs[1] < 0.5 * eigs[0])
        grid = np.array([1.0, 0.7, 0.4])
        runners = (("lbar", _batch_lbar), ("stub", stub))
        report = _risk_grid("nan-rule", 300, 2, "c", grid, _ratio_scenario, runners)
        failures = [r.failures for r in report.risks["stub"]]
        assert 0 < failures[0] < failures[1] < failures[2] < 300
        assert [d.failures for d in report.diff] == failures
        reports = [report, figure4_experiment(reps=50), figure5_experiment(reps=50), figure6_experiment(reps=50)]
        for rep, reps in zip(reports, (300, 50, 50, 50)):
            for cells in [*rep.risks.values(), rep.diff]:
                assert all(cell.reps + cell.failures == reps for cell in cells)


class TestMajorization:
    def test_identity_p2(self):
        report = bias_majorization_check(np.eye(2), 10, 20_000, 3)
        assert report.holds_3sigma.all()
        assert report.margins[0] > 0.3
        assert report.trace_max_rel_dev < 1e-10

    def test_diag_p3(self):
        report = bias_majorization_check(np.diag([3.0, 2.0, 1.0]), 10, 20_000, 3)
        assert report.holds_3sigma.all()
        assert report.trace_max_rel_dev < 1e-10

    def test_report_refuses_writes(self):
        assert_read_only(bias_majorization_check(np.eye(2), 10, 100, 0))

    def test_refuses_singular_draws_and_single_rep(self):
        with pytest.raises(ValueError, match="n >= p"):
            bias_majorization_check(np.eye(2), 1, 100, 0)
        with pytest.raises(ValueError, match="reps >= 2"):
            bias_majorization_check(np.eye(2), 10, 1, 0)


class TestExperiments:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            figure4_experiment(reps=0)

    def test_figure4_reference_shape(self):
        report = figure4_experiment(reps=400, seed=5)
        assert len(report.param_values) == 50
        assert report.param_values[0] == 1.0
        assert report.param_values[-1] == 0.02
        assert report.param_name == "c"
        assert set(report.risks) == {"lbar", "gamma-frame"}
        frame_risks = np.array([r.mean for r in report.risks["gamma-frame"]])
        # Shared substreams make the frame-diagonal risk exactly flat in c.
        assert np.ptp(frame_risks) < 1e-12

    def test_report_refuses_writes(self):
        assert_read_only(figure4_experiment(reps=20))

    def test_figure4_determinism(self):
        a = figure4_experiment(reps=300, seed=11)
        b = figure4_experiment(reps=300, seed=11)
        for tag in a.methods:
            assert [r.mean for r in a.risks[tag]] == [r.mean for r in b.risks[tag]]

    def test_figure5_shape(self):
        report = figure5_experiment(reps=400, seed=5)
        assert report.param_name == "theta"
        assert report.param_values[0] == 0.0
        assert report.param_values[-1] == pytest.approx(np.pi / 2)
        lbar_risks = np.array([r.mean for r in report.risks["lbar"]])
        stderrs = np.array([r.stderr for r in report.risks["lbar"]])
        assert np.ptp(lbar_risks) < 6 * stderrs.max()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("experiment", [figure4_experiment, figure5_experiment], ids=["fig4", "fig5"])
    def test_frame_diagonal_risk_is_the_exact_value(self, experiment, seed):
        # diag(S)_ii ~ Sigma_ii chi^2_n, so with d_i = Sigma_ii / lam_i the
        # risk of diag(S) / n is sum_i (d_i - log d_i - 1) + p (log(n/2) -
        # psi(n/2)), where psi(5) = H_4 - Euler's gamma.  Every cell of every
        # seed lies within 4 of its own standard errors.
        n, lam = 10, np.array([1.0, 0.8])
        report = experiment(reps=10_000, seed=seed)
        psi = 1.0 + 1.0 / 2 + 1.0 / 3 + 1.0 / 4 - np.euler_gamma
        for value, risk in zip(report.param_values, report.risks["gamma-frame"]):
            d = np.ones(2)
            if experiment is figure5_experiment:
                c, s = np.cos(value), np.sin(value)
                d = np.diag(np.array([[c, -s], [s, c]]) @ np.diag(lam) @ np.array([[c, s], [-s, c]])) / lam
            exact = (d - np.log(d) - 1.0).sum() + 2 * (np.log(n / 2) - psi)
            assert abs(risk.mean - exact) < 4 * risk.stderr

    def test_figure6_star_beats_lbar_when_close(self):
        report = figure6_experiment(reps=400, seed=5)
        last = report.diff[-1]  # c = 1.0, eigenvalues as close as possible
        assert last.mean > 2 * last.stderr

    def test_figure6_refuses_a_wrong_dimension_ensemble_before_drawing(self, monkeypatch):
        # The fig6 Grams were drawn before the first grid point refused.
        def never(*args, **kwargs):
            raise AssertionError("drew replications for a refused ensemble")

        monkeypatch.setattr(ws, "white_batch", never)
        with pytest.raises(DimensionMismatch, match="^ensemble dim 3 does not match p = 2$"):
            figure6_experiment(reps=50, ensemble=haar_sample(3, 30, 0))

    def test_thread_cap_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("EIGENGEO_THREADS", "1")
        assert worker_count() == 1
        serial = figure6_experiment(reps=200, seed=2)
        monkeypatch.setenv("EIGENGEO_THREADS", "4")
        threaded = figure6_experiment(reps=200, seed=2)
        for tag in serial.methods:
            assert [r.mean for r in serial.risks[tag]] == [
                r.mean for r in threaded.risks[tag]
            ]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_thread_cap_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("EIGENGEO_THREADS", value)
        with pytest.raises(ValueError, match="EIGENGEO_THREADS"):
            worker_count()

    def test_fig4_csv_bytes_independent_of_thread_count(self, monkeypatch, tmp_path):
        argv = ["fig4", "--reps", "300", "--seed", "4"]
        assert_thread_count_free(monkeypatch, tmp_path, argv, ["fig4.csv"])

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["fig5", "--reps", "300", "--seed", "4"], ["fig5.csv"]),
            (
                ["fig3", "--reps", "1000", "--theta-count", "3", "--seed", "4"],
                ["fig3_power.csv", "fig3_calibration.csv"],
            ),
            (
                ["fig3", "--reps", "1000", "--theta-count", "3", "--seed", "4", "--ensemble", "equidistant:40"],
                ["fig3_power.csv", "fig3_calibration.csv"],
            ),
        ],
        ids=["fig5", "fig3", "fig3-equidistant"],
    )
    def test_csv_bytes_independent_of_thread_count(self, monkeypatch, tmp_path, argv, names):
        # Grid points and alternatives recolour one shared white batch.
        assert_thread_count_free(monkeypatch, tmp_path, argv, names)


def assert_thread_count_free(monkeypatch, tmp_path, argv, names):
    """The experiment's CSVs are byte-identical with EIGENGEO_THREADS 1 and 2."""
    out = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("EIGENGEO_THREADS", threads)
        assert main(["experiment", *argv, "--out", str(tmp_path / threads)]) == 0
        out[threads] = [(tmp_path / threads / name).read_bytes() for name in names]
    assert out["1"] == out["2"]
