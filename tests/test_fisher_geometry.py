import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigengeo import (
    DimensionMismatch,
    IndexOutOfRange,
    NearDegenerateSpectrum,
    NotPositiveDefinite,
    SpdMatrix,
    SpectralMetric,
    Spectrum,
    SymTangent,
    compose,
    curvature_oracle_A,
    curvature_oracle_M,
    curvature_tensor_A,
    curvature_tensor_A_fd,
    embedding_curvature_A,
    cli,
    fisher_geometry,
    fd_tangent_lambda,
    fd_tangent_u,
    index_pairs,
    inverse_metric_eigen,
    inverse_metric_pair,
    metric_sigma,
    metric_spectral,
    metric_spectral_fd,
    raised_curvature,
    spd_manifold,
    spectral_decompose,
    statistical_curvature,
    tangent_lambda,
    tangent_u,
)
from eigengeo.fisher_geometry import FD_TOLERANCE
from eigengeo.spd_manifold import separated_rows
from conftest import random_spd, random_spectrum, rotation


def brute_force_curvature_contraction(lam):
    """Dense contraction over every pair 4-tuple, exploiting nothing:
    out[a, b] = sum H_(p1)(p2)a H_(p3)(p4)b ginv(p1, p3) ginv(p2, p4)."""
    lam = np.asarray(lam, dtype=float)
    p = lam.size
    pairs = index_pairs(p)
    ginv_pair = inverse_metric_pair(lam)

    def ginv(k1, k2):
        return ginv_pair[k1] if k1 == k2 else 0.0

    out = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            total = 0.0
            for k1, pr1 in enumerate(pairs):
                for k2, pr2 in enumerate(pairs):
                    h1 = embedding_curvature_A(lam, pr1, pr2, a)
                    if h1 == 0.0:
                        continue
                    for k3, pr3 in enumerate(pairs):
                        for k4, pr4 in enumerate(pairs):
                            h2 = embedding_curvature_A(lam, pr3, pr4, b)
                            total += h1 * h2 * ginv(k1, k3) * ginv(k2, k4)
            out[a, b] = total
    return out


def loop_pairs(p):
    return [(s, t) for s in range(p - 1) for t in range(s + 1, p)]


def loop_metric_pair(lam):
    return np.array([(lam[s] - lam[t]) ** 2 / (lam[s] * lam[t]) for s, t in loop_pairs(lam.size)])


def loop_inverse_metric_pair(lam):
    return np.array([lam[s] * lam[t] / (lam[s] - lam[t]) ** 2 for s, t in loop_pairs(lam.size)])


def loop_curvature_slabs(lam):
    pairs = loop_pairs(lam.size)
    slabs = np.zeros((len(pairs), lam.size))
    for k, (s, t) in enumerate(pairs):
        slabs[k, s] = (lam[t] - lam[s]) / lam[s] ** 2
        slabs[k, t] = (lam[s] - lam[t]) / lam[t] ** 2
    return slabs


def loop_statistical_curvature(lam):
    total = 0.0
    for a, b in loop_pairs(lam.size):
        total += (lam[a] ** 2 + lam[b] ** 2) / (lam[a] - lam[b]) ** 2
    return 2.0 * total


def brute_force_statistical_curvature(lam):
    lam = np.asarray(lam, dtype=float)
    contraction = brute_force_curvature_contraction(lam)
    ginv_eigen = inverse_metric_eigen(lam)
    # The eigenvalue-block inverse metric is diagonal, so only a == b
    # survives the final contraction.
    return float(np.sum(np.diag(contraction) * ginv_eigen))


class TestMetricSigma:
    def test_unit_diagonal_direction(self):
        S = SpdMatrix(np.eye(2))
        E00 = SymTangent(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert_allclose(metric_sigma(S, E00, E00), 0.5)

    def test_unit_offdiagonal_direction(self):
        S = SpdMatrix(np.eye(2))
        E01 = SymTangent(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(metric_sigma(S, E01, E01), 1.0)

    def test_bilinear(self, rng):
        S = random_spd(rng, 3)
        A = SymTangent(np.eye(3))
        B = SymTangent(np.diag([1.0, 2.0, 3.0]))
        two_a = SymTangent(2.0 * A.matrix)
        assert_allclose(metric_sigma(S, two_a, B), 2.0 * metric_sigma(S, A, B))

    def test_positive_definite(self, rng):
        S = random_spd(rng, 3)
        raw = rng.standard_normal((3, 3))
        A = SymTangent(0.5 * (raw + raw.T))
        assert metric_sigma(S, A, A) > 0.0


class TestSymTangent:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, where):
        m = np.eye(2)
        m[where] = m[where[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SymTangent(m)

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch, match="symmetric"):
            SymTangent(np.array([[1.0, 1e-6], [0.0, 1.0]]))
        assert SymTangent(np.array([[1.0, 1e-12], [0.0, 1.0]])).matrix[0, 1] == 5e-13


class TestTangents:
    def test_tangent_lambda_identity_frame(self):
        sp = Spectrum([2.0, 1.0], np.eye(2))
        assert_allclose(tangent_lambda(sp, 0).matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_tangent_lambda_rotated(self):
        sp = Spectrum([2.0, 1.0], rotation(np.pi / 4))
        assert_allclose(tangent_lambda(sp, 0).matrix, 0.5 * np.ones((2, 2)))

    def test_tangent_lambda_unit_trace(self, rng):
        sp = random_spectrum(rng, 4)
        for a in range(4):
            assert_allclose(np.trace(tangent_lambda(sp, a).matrix), 1.0, atol=1e-12)

    def test_tangent_u_closed_form(self):
        sp = Spectrum([2.0, 1.0], np.eye(2))
        assert_allclose(tangent_u(sp, (0, 1)).matrix, [[0.0, -1.0], [-1.0, 0.0]])

    def test_tangent_u_vanishes_with_gap(self):
        # The (lam_t - lam_s) factor kills the direction as eigenvalues meet.
        sp = Spectrum([1.001, 1.0], np.eye(2))
        assert np.abs(tangent_u(sp, (0, 1)).matrix).max() == pytest.approx(1e-3)

    def test_tangent_u_matches_fd(self, rng):
        sp = random_spectrum(rng, 3)
        for pair in index_pairs(3):
            fd = fd_tangent_u(sp, pair)
            assert np.abs(fd.matrix - tangent_u(sp, pair).matrix).max() < 1e-6

    def test_tangent_lambda_matches_fd(self, rng):
        sp = random_spectrum(rng, 4)
        for a in range(4):
            fd = fd_tangent_lambda(sp, a)
            assert np.abs(fd.matrix - tangent_lambda(sp, a).matrix).max() < 1e-9

    @pytest.mark.parametrize("a", [-1, 3])
    def test_fd_tangent_lambda_refuses_index(self, rng, a):
        with pytest.raises(IndexOutOfRange):
            fd_tangent_lambda(random_spectrum(rng, 3), a)

    def test_index_errors(self):
        sp = Spectrum([2.0, 1.0], np.eye(2))
        with pytest.raises(IndexOutOfRange):
            tangent_lambda(sp, 2)
        with pytest.raises(IndexOutOfRange):
            tangent_u(sp, (1, 0))


class TestClosedFormsAgainstPairLoops:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_array_forms_are_the_pair_loops(self, p):
        # The closed forms are array expressions over the pair indices; the
        # per-pair loops above are their reference.  Array squares and the
        # summation order may round differently, so they agree to 1e-15
        # relative, not bit for bit; zero slab entries stay exactly zero.
        rng = np.random.default_rng(1000 + p)
        lam = np.sort(np.exp(rng.uniform(-3.0, 3.0, (2000, p))), axis=1)[:, ::-1]
        lam = lam[separated_rows(lam)][:500]
        assert len(lam) == 500

        def close(got, want):
            return bool(np.all(np.abs(got - want) <= 1e-15 * np.abs(want)))

        for row in lam:
            assert close(metric_spectral(row).pair_diag, loop_metric_pair(row))
            assert close(inverse_metric_pair(row), loop_inverse_metric_pair(row))
            assert close(curvature_tensor_A(row).slabs, loop_curvature_slabs(row))
            assert close(statistical_curvature(row), loop_statistical_curvature(row))


class TestMetricSpectral:
    def test_reference_values(self):
        m = metric_spectral([2.0, 1.0])
        assert_allclose(m.eigen_diag, [0.125, 0.5])
        assert_allclose(m.pair_diag, [0.5])

    def test_p3_pair_entry(self):
        m = metric_spectral([3.0, 2.0, 1.0])
        assert_allclose(m.pair_entry(0, 2), 4.0 / 3.0)

    def test_degenerate_rejected(self):
        with pytest.raises(NearDegenerateSpectrum):
            metric_spectral([1.0, 1.0])

    @pytest.mark.parametrize(
        "lam, error", [([-1.0, 2.0], NotPositiveDefinite), ([1.0, 2.0], NearDegenerateSpectrum)]
    )
    @pytest.mark.parametrize("fn", [metric_spectral, inverse_metric_eigen, inverse_metric_pair])
    def test_inverse_blocks_refuse_what_the_metric_refuses(self, fn, lam, error):
        # inverse_metric_eigen([-1, 2]) returned [2, 8].
        with pytest.raises(error):
            fn(lam)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_container_refuses_nonpositive_components(self, bad):
        with pytest.raises(ValueError, match="must be positive"):
            SpectralMetric(2, [bad, 1.0], [1.0])
        with pytest.raises(ValueError, match="must be positive"):
            SpectralMetric(2, [1.0, 1.0], [bad])

    def test_cross_block_vanishes(self, rng):
        for p in (2, 3, 4):
            sp = random_spectrum(rng, p)
            S = compose(sp)
            for a in range(p):
                for pair in index_pairs(p):
                    cross = metric_sigma(S, tangent_lambda(sp, a), tangent_u(sp, pair))
                    assert abs(cross) < 1e-10

    def test_matches_sigma_form_on_analytic_tangents(self, rng):
        for p in (2, 3, 4):
            sp = random_spectrum(rng, p)
            S = compose(sp)
            m = metric_spectral(sp.eigenvalues)
            for a in range(p):
                t = tangent_lambda(sp, a)
                assert abs(metric_sigma(S, t, t) - m.eigen_diag[a]) < 1e-12
            for k, pair in enumerate(index_pairs(p)):
                t = tangent_u(sp, pair)
                assert abs(metric_sigma(S, t, t) - m.pair_diag[k]) < 1e-12

    def test_matches_fd_pipeline(self, rng):
        sp = random_spectrum(rng, 3)
        analytic = metric_spectral(sp.eigenvalues)
        fd = metric_spectral_fd(sp)
        assert np.abs(fd.eigen_diag / analytic.eigen_diag - 1.0).max() < 1e-6
        assert np.abs(fd.pair_diag / analytic.pair_diag - 1.0).max() < 1e-6

    def test_frame_invariance(self, rng):
        lam = np.array([3.0, 1.7, 0.6])
        values = []
        for _ in range(10):
            gamma = random_spectrum(rng, 3).eigenvectors
            sp = Spectrum(lam, gamma)
            fd = metric_spectral_fd(sp)
            values.append(np.concatenate([fd.eigen_diag, fd.pair_diag]))
        spread = np.ptp(np.stack(values), axis=0)
        assert spread.max() < 1e-6


class TestEmbeddingCurvature:
    def test_reference_values(self):
        lam = [2.0, 1.0]
        assert_allclose(embedding_curvature_A(lam, (0, 1), (0, 1), 0), -0.25)
        assert_allclose(embedding_curvature_A(lam, (0, 1), (0, 1), 1), 1.0)

    def test_distinct_pairs_vanish(self):
        lam = [3.0, 2.0, 1.0]
        for a in range(3):
            assert embedding_curvature_A(lam, (0, 1), (0, 2), a) == 0.0

    def test_pair_symmetry(self, rng):
        lam = np.sort(rng.uniform(0.5, 4.0, 4))[::-1]
        pairs = index_pairs(4)
        for pr1 in pairs:
            for pr2 in pairs:
                for a in range(4):
                    assert embedding_curvature_A(lam, pr1, pr2, a) == embedding_curvature_A(
                        lam, pr2, pr1, a
                    )

    def test_tensor_container_queries(self):
        lam = [2.0, 1.0]
        tensor = curvature_tensor_A(lam)
        assert_allclose(tensor.component((0, 1), (0, 1), 0), -0.25)
        assert tensor.component((0, 1), (0, 1), 1) == 1.0

    def test_oracle_matches_analytic(self, rng):
        for p in (2, 3):
            sp = random_spectrum(rng, p)
            for pr1 in index_pairs(p):
                for pr2 in index_pairs(p):
                    for a in range(p):
                        want = embedding_curvature_A(sp.eigenvalues, pr1, pr2, a)
                        got = curvature_oracle_A(sp, pr1, pr2, a)
                        assert abs(got - want) < FD_TOLERANCE * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "lam, error",
        [
            ([1.0, 1.0], NearDegenerateSpectrum),
            ([1.0, 2.0], NearDegenerateSpectrum),
            ([2.0, -1.0], NotPositiveDefinite),
            ([2.0, 0.0], NotPositiveDefinite),
        ],
    )
    @pytest.mark.parametrize(
        "curvature",
        [
            curvature_tensor_A,
            lambda lam: embedding_curvature_A(lam, (0, 1), (0, 1), 0),
            lambda lam: raised_curvature(lam, (0, 1), (0, 1)),
        ],
        ids=["tensor", "component", "raised"],
    )
    def test_degenerate_spectrum_refused(self, curvature, lam, error):
        with pytest.raises(error):
            curvature(lam)

    @pytest.mark.parametrize("a", [-1, 3])
    def test_oracle_refuses_index(self, rng, a):
        with pytest.raises(IndexOutOfRange):
            curvature_oracle_A(random_spectrum(rng, 3), (0, 1), (0, 1), a)

    def test_stencil_points_are_not_revalidated(self, rng, monkeypatch):
        # Stencil points and metric_spectral_fd's base point are chart rows
        # of a validated Spectrum, so no oracle builds an SpdMatrix.
        built = []
        post_init = SpdMatrix.__post_init__
        monkeypatch.setattr(SpdMatrix, "__post_init__", lambda S: (post_init(S), built.append(S.dim)))
        sp = random_spectrum(rng, 4)
        curvature_oracle_A(sp, (0, 1), (0, 1), 3)
        curvature_oracle_A(sp, (0, 1), (2, 3), 0)
        curvature_tensor_A_fd(sp)
        curvature_oracle_M(sp, 0, 1, (1, 2), "e")
        curvature_oracle_M(sp, 2, 2, (0, 3), "m")
        metric_spectral_fd(sp)
        fd_tangent_lambda(sp, 1)
        fd_tangent_u(sp, (1, 3))
        assert built == []

    @pytest.fixture
    def chart_rows(self, monkeypatch):
        # Rows per chart call, from both modules that call the chart.
        calls = []
        chart = spd_manifold._chart

        def spy(base, X):
            calls.append(len(X))
            return chart(base, X)

        monkeypatch.setattr(spd_manifold, "_chart", spy)
        monkeypatch.setattr(fisher_geometry, "_chart", spy)
        return calls

    @pytest.fixture
    def plane_rotations(self, monkeypatch):
        # Frames rotated in one plane, per call.
        calls = []
        rotate = spd_manifold._rotate_planes

        def spy(O, rows, s, t, theta):
            calls.append(len(rows))
            return rotate(O, rows, s, t, theta)

        monkeypatch.setattr(spd_manifold, "_rotate_planes", spy)
        return calls

    @pytest.fixture
    def general_path_calls(self, monkeypatch):
        calls = []
        expm_skew = spd_manifold._expm_skew

        def spy(U):
            calls.append(U.shape)
            return expm_skew(U)

        monkeypatch.setattr(spd_manifold, "_expm_skew", spy)
        return calls

    def test_check_fd_builds_no_exponential_at_zero_rotation(
        self, chart_rows, plane_rotations, general_path_calls, tmp_path
    ):
        # p = 6, 15 pairs.  The metric is one chart call of 2 (6 + 15)
        # points, after compose(base); the curvature is one call of 15 * 2
        # points and a shared centre.  The eigenvalue tangents and the
        # centre have zero rotation.  Every other point moves one rotation
        # coordinate, so its frame is a plane rotation, never the general
        # path: 15 * 2 in each family.
        argv = ["geometry", "--lambda", "6,5,4,3,2,1", "--check-fd", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert chart_rows == [1, 2 * (6 + 15), 15 * 2 + 1]
        assert plane_rotations == [15 * 2, 15 * 2]
        assert general_path_calls == []

    def test_two_coordinate_stencil_takes_the_general_path(self, rng, general_path_calls):
        # A distinct-pair stencil moves two rotation coordinates at once in
        # each of its four points, which go to the general path together.
        curvature_oracle_A(random_spectrum(rng, 4), (0, 1), (2, 3), 0)
        assert general_path_calls == [(4, 4, 4)]

    @pytest.mark.parametrize("connection", ["e", "m"])
    @pytest.mark.parametrize("a, b", [(1, 1), (1, 4)])
    def test_fixed_frame_oracle_builds_two_exponentials(
        self, rng, chart_rows, plane_rotations, general_path_calls, connection, a, b
    ):
        # Only the rotation derivative leaves zero rotation: one chart call
        # for the eigenvalue second difference (3 or 4 points), one for the
        # rotation first difference, whose two points are plane rotations.
        curvature_oracle_M(random_spectrum(rng, 6), a, b, (2, 5), connection)
        assert chart_rows == [3 if a == b else 4, 2]
        assert plane_rotations == [2]
        assert general_path_calls == []

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_fd_tensor_slabs_are_the_oracle(self, rng, p):
        base = random_spectrum(rng, p)
        tensor = curvature_tensor_A_fd(base)
        for k, pr in enumerate(index_pairs(p)):
            for a in range(p):
                want = curvature_oracle_A(base, pr, pr, a)
                assert tensor.slabs[k, a].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_fd_metric_is_the_sigma_form_on_fd_tangents(self, rng, p):
        base = random_spectrum(rng, p)
        S = compose(base)
        fd = metric_spectral_fd(base)
        want = [metric_sigma(S, t, t) for t in (fd_tangent_lambda(base, a) for a in range(p))]
        want += [metric_sigma(S, t, t) for t in (fd_tangent_u(base, pr) for pr in index_pairs(p))]
        got = np.concatenate([fd.eigen_diag, fd.pair_diag])
        assert np.abs(got / np.array(want) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("lam", [(4.0, 0.2), (6.0, 5.0, 4.0, 3.0, 2.0, 1.0)])
    def test_oracle_deviation_is_scale_invariant(self, lam):
        # Rotation coordinates are angles, so their step must not grow with
        # the eigenvalues.  Doubling them then scales every closed form and
        # every oracle by a power of two, and the relative deviation stays.
        def worst(lam):
            lam = np.asarray(lam)
            p = lam.size
            base = Spectrum(lam, np.eye(p))
            metric, fd = metric_spectral(lam), metric_spectral_fd(base)
            pairs = [*zip(metric.eigen_diag, fd.eigen_diag), *zip(metric.pair_diag, fd.pair_diag)]
            pairs += zip(curvature_tensor_A(lam).slabs.flat, curvature_tensor_A_fd(base).slabs.flat)
            return max(abs(want - got) / max(1.0, abs(want)) for want, got in pairs)

        dev, doubled = worst(lam), worst(2.0 * np.array(lam))
        assert dev < 1e-6 and doubled < 1e-6
        assert doubled == pytest.approx(dev, rel=1e-6)

    def test_oracle_frame_independent(self, rng):
        lam = np.array([2.0, 1.0])
        values = [
            curvature_oracle_A(Spectrum(lam, random_spectrum(rng, 2).eigenvectors), (0, 1), (0, 1), 0)
            for _ in range(10)
        ]
        assert np.ptp(values) < 1e-6
        assert abs(values[0] + 0.25) < 1e-5

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
    @pytest.mark.parametrize(
        "oracle",
        [
            lambda base, h: fd_tangent_lambda(base, 0, h=h),
            lambda base, h: fd_tangent_u(base, (0, 1), h=h),
            lambda base, h: metric_spectral_fd(base, h=h),
            lambda base, h: curvature_tensor_A_fd(base, h=h),
            lambda base, h: curvature_oracle_A(base, (0, 1), (0, 1), 0, h=h),
            lambda base, h: curvature_oracle_M(base, 0, 1, (0, 2), "m", h=h),
        ],
        ids=["tangent_lambda", "tangent_u", "metric", "tensor", "oracle_A", "oracle_M"],
    )
    def test_invalid_step_refused(self, rng, oracle, h):
        # The step is the fixed policy of _steps: no oracle takes a per-call
        # step, so a bad one never reaches the stencil.
        with pytest.raises(TypeError, match="unexpected keyword argument 'h'"):
            oracle(random_spectrum(rng, 3), h)

    def test_fixed_frame_oracle_vanishes(self, rng):
        sp = random_spectrum(rng, 3)
        for conn in ("e", "m"):
            for a in range(3):
                for b in range(3):
                    for pair in index_pairs(3):
                        assert abs(curvature_oracle_M(sp, a, b, pair, conn)) < FD_TOLERANCE


class TestRaisedCurvature:
    def test_reference_values(self):
        assert_allclose(raised_curvature([2.0, 1.0], (0, 1), (0, 1)), [-2.0, 2.0])

    def test_distinct_pairs_zero_vector(self):
        got = raised_curvature([3.0, 2.0, 1.0], (0, 1), (0, 2))
        assert_allclose(got, np.zeros(3))

    def test_consistent_with_lowered(self, rng):
        lam = np.sort(rng.uniform(0.5, 4.0, 3))[::-1]
        ginv = inverse_metric_eigen(lam)
        for pr1 in index_pairs(3):
            for pr2 in index_pairs(3):
                raised = raised_curvature(lam, pr1, pr2)
                lowered = np.array(
                    [embedding_curvature_A(lam, pr1, pr2, a) for a in range(3)]
                )
                assert_allclose(raised, lowered * ginv)


class TestStatisticalCurvature:
    def test_reference_values(self):
        assert_allclose(statistical_curvature([2.0, 1.0]), 10.0)
        assert_allclose(statistical_curvature([3.0, 1.0]), 5.0)

    def test_p2_ratio_form(self):
        for c in (0.2, 0.5, 0.9):
            assert_allclose(
                statistical_curvature([1.0, c]), 2.0 * (1.0 + c * c) / (1.0 - c) ** 2
            )

    def test_matches_brute_force_contraction(self, rng):
        for p in (2, 3, 4):
            lam = random_spectrum(rng, p).eigenvalues
            want = brute_force_statistical_curvature(lam)
            assert abs(statistical_curvature(lam) - want) < 1e-10 * max(1.0, want)

    def test_increasing_in_ratio(self):
        cs = np.linspace(0.05, 0.95, 19)
        vals = [statistical_curvature([1.0, c]) for c in cs]
        assert np.all(np.diff(vals) > 0)

    def test_degenerate_rejected(self):
        with pytest.raises(NearDegenerateSpectrum):
            statistical_curvature([1.0, 1.0 - 1e-12])
