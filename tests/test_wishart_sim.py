import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigengeo import (
    DimensionMismatch,
    EigengeoError,
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
from eigengeo.estimators import default_ensemble
from eigengeo.spd_manifold import descending_eigenvalues
from eigengeo.wishart_sim import (
    DRAW_CHUNK,
    color_batch,
    kl_loss_diag,
    sample_batch,
    white_batch,
    worker_count,
)

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

    def test_color_batch_is_the_congruence_of_the_gram(self):
        z = fresh_philox_normals(3, 10, 50, 3, "congruence")
        sigma = np.array([[2.0, 0.4, 0.1], [0.4, 1.0, -0.3], [0.1, -0.3, 0.7]])
        x = z @ np.linalg.cholesky(sigma).T
        assert_allclose(color_batch(gram(z), sigma), gram(x), rtol=1e-13, atol=1e-12)

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
    def test_zero_at_truth(self):
        assert kl_loss_diag(np.array([2.0, 1.0]), np.array([2.0, 1.0])) == 0.0

    def test_matches_direct_formula(self):
        est = np.array([1.3, 0.6])
        lam = np.array([1.0, 0.8])
        ratio = est / lam
        want = ratio.sum() - np.log(ratio).sum() - 2
        assert_allclose(kl_loss_diag(est, lam), want)


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

    def test_figure6_star_beats_lbar_when_close(self):
        report = figure6_experiment(reps=400, seed=5)
        last = report.diff[-1]  # c = 1.0, eigenvalues as close as possible
        assert last.mean > 2 * last.stderr

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
        ],
        ids=["fig5", "fig3"],
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
