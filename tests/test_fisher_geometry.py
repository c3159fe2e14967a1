import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigengeo import (
    DimensionMismatch,
    IndexOutOfRange,
    NearDegenerateSpectrum,
    SpdMatrix,
    Spectrum,
    SymTangent,
    compose,
    curvature_oracle_A,
    curvature_oracle_M,
    curvature_tensor_A,
    embedding_curvature_A,
    cli,
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
            fd = fd_tangent_u(sp, pair, h=1e-5)
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
                        assert abs(got - want) < 1e-5 * max(1.0, abs(want))

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_oracle_sequence_form_is_the_scalar_calls(self, rng, p):
        sp = random_spectrum(rng, p)
        pairs = index_pairs(p)
        for pr1, pr2 in [(pairs[0], pairs[0]), (pairs[-1], pairs[-1]), (pairs[0], pairs[-1])]:
            want = [curvature_oracle_A(sp, pr1, pr2, a) for a in range(p)]
            got = curvature_oracle_A(sp, pr1, pr2, range(p))
            assert isinstance(got, list) and all(type(w) is float for w in want)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert curvature_oracle_A(sp, pr1, pr2, [p - 1, 0]) == [want[-1], want[0]]

    @pytest.mark.parametrize("legs", [[0, 3], [-1], (1, 2, 7)])
    def test_oracle_sequence_refuses_out_of_range_entry(self, rng, legs):
        sp = random_spectrum(rng, 3)
        with pytest.raises(IndexOutOfRange):
            curvature_oracle_A(sp, (0, 1), (0, 1), legs)

    def test_stencil_points_are_not_revalidated(self, rng, monkeypatch):
        # Stencil points come from a validated Spectrum; only
        # metric_spectral_fd's base point compose(base) is an SpdMatrix.
        built = []
        post_init = SpdMatrix.__post_init__
        monkeypatch.setattr(SpdMatrix, "__post_init__", lambda S: (post_init(S), built.append(S.dim)))
        sp = random_spectrum(rng, 4)
        curvature_oracle_A(sp, (0, 1), (0, 1), range(4))
        curvature_oracle_A(sp, (0, 1), (2, 3), range(4))
        curvature_oracle_M(sp, 0, 1, (1, 2), "e")
        curvature_oracle_M(sp, 2, 2, (0, 3), "m")
        assert built == []
        metric_spectral_fd(sp)
        assert built == [4]

    @pytest.fixture
    def exp_skew_calls(self, monkeypatch):
        calls = []
        exp_skew = spd_manifold.exp_skew

        def spy(u):
            calls.append(u.dim)
            return exp_skew(u)

        monkeypatch.setattr(spd_manifold, "exp_skew", spy)
        return calls

    def test_check_fd_builds_no_exponential_at_zero_rotation(self, exp_skew_calls, tmp_path):
        # p = 6: 15 rotation tangents of two points each, and 15 curvature
        # stencils of three points each, whose centre has zero rotation.
        # The eigenvalue tangents have zero rotation throughout.
        argv = ["geometry", "--lambda", "6,5,4,3,2,1", "--check-fd", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(exp_skew_calls) == 15 * 2 + 15 * 2

    @pytest.mark.parametrize("connection", ["e", "m"])
    @pytest.mark.parametrize("a, b", [(1, 1), (1, 4)])
    def test_fixed_frame_oracle_builds_two_exponentials(self, rng, exp_skew_calls, connection, a, b):
        # Only the rotation derivative leaves zero rotation.
        curvature_oracle_M(random_spectrum(rng, 6), a, b, (2, 5), connection)
        assert exp_skew_calls == [6, 6]

    def test_oracle_frame_independent(self, rng):
        lam = np.array([2.0, 1.0])
        values = [
            curvature_oracle_A(Spectrum(lam, random_spectrum(rng, 2).eigenvectors), (0, 1), (0, 1), 0)
            for _ in range(10)
        ]
        assert np.ptp(values) < 1e-6
        assert abs(values[0] + 0.25) < 1e-5

    def test_fixed_frame_oracle_vanishes(self, rng):
        sp = random_spectrum(rng, 3)
        for conn in ("e", "m"):
            for a in range(3):
                for b in range(3):
                    for pair in index_pairs(3):
                        assert abs(curvature_oracle_M(sp, a, b, pair, conn)) < 1e-5


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
