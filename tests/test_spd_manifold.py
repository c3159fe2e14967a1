import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eigengeo import (
    DimensionMismatch,
    NearDegenerateSpectrum,
    NotPositiveDefinite,
    SkewParams,
    SpdMatrix,
    Spectrum,
    compose,
    exp_skew,
    from_natural,
    index_pairs,
    kl_divergence,
    kl_project,
    lambda_star,
    lbar,
    pair_offset,
    sigma_of_coords,
    spectral_decompose,
    to_natural,
)
from eigengeo.estimators import ExactO2
from eigengeo.spd_manifold import descending_eigenvalues, separated_rows
from eigengeo.wishart_sim import _batch_lbar, _batch_star, sample_batch
from conftest import random_orthogonal, random_spd, rotation


class TestSpdMatrix:
    def test_symmetrized_storage(self):
        S = SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert np.array_equal(S.matrix, S.matrix.T)
        assert S.dim == 2

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, where):
        m = np.eye(2)
        m[where] = m[where[::-1]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="non-finite"):
                SpdMatrix(m)

    def test_immutable(self):
        S = SpdMatrix(np.eye(2))
        with pytest.raises(ValueError):
            S.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("p", range(1, 7))
    def test_eigenvalues_are_the_descending_spectrum(self, rng, p):
        A = rng.standard_normal((p, p + 3))
        M = A @ A.T
        M = 0.5 * (M + M.T)  # bitwise symmetric, so it is stored as given
        S = SpdMatrix(M)
        assert S.eigenvalues.tobytes() == descending_eigenvalues(M[None])[0].tobytes()
        with pytest.raises(ValueError):
            S.eigenvalues[0] = 1.0

    def test_nan_closed_form_spectrum_refused(self):
        # At p = 2, a d and b^2 overflow to inf and their difference is NaN;
        # this matrix is indefinite (eigenvalues 3e160 and -1e160).
        m = np.array([[1e160, 2e160], [2e160, 1e160]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(descending_eigenvalues(m[None])[0, 1])
            with pytest.raises(NotPositiveDefinite, match="nan"):
                SpdMatrix(m)
            with pytest.raises(NotPositiveDefinite, match="slice 1: .*nan"):
                SpdMatrix.stack(np.stack([np.eye(2), m]))


def _refusal(m) -> tuple[type, str]:
    try:
        SpdMatrix(m)
    except NotPositiveDefinite as exc:
        return type(exc), str(exc)
    raise AssertionError("the scalar constructor accepted the slice")


class TestSpdStack:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_slices_are_the_scalar_constructor(self, p):
        sigma = np.diag(np.arange(p, 0, -1.0)) + 0.2 * (1.0 - np.eye(p))
        batch = sample_batch(sigma, 10, 64, 2, "stack")
        stack = SpdMatrix.stack(batch)
        assert len(stack) == 64
        for S_r, S in zip(batch, stack):
            one = SpdMatrix(S_r)
            assert S.dim == p
            assert S.matrix.tobytes() == one.matrix.tobytes()
            assert S.eigenvalues.tobytes() == one.eigenvalues.tobytes()
            assert not S.matrix.flags.writeable and not S.eigenvalues.flags.writeable

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "bad",
        ["nan", "inf", "asymmetric", "indefinite", "negative-trace"],
    )
    def test_refusals_are_the_scalar_ones(self, p, bad):
        batch = np.stack([np.eye(p) * (k + 1.0) for k in range(6)])
        m = batch[3]
        if bad == "nan":
            m[0, 0] = np.nan
        elif bad == "inf":
            m[0, 1] = m[1, 0] = np.inf
        elif bad == "asymmetric":
            m[1, 0] += 0.5
        elif bad == "indefinite":
            m[0, 1] = m[1, 0] = 10.0
        else:
            m *= -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kind, message = _refusal(m)
            with pytest.raises(kind) as exc:
                SpdMatrix.stack(batch)
        assert str(exc.value) == f"slice 3: {message}"

    def test_first_refused_slice_is_named(self):
        # Slice 1 fails the last check and slice 2 the first one: slice 1 is named.
        batch = np.stack([np.eye(3)] * 4)
        batch[1, 0, 1] = batch[1, 1, 0] = 2.0
        batch[2, 2, 2] = np.nan
        with pytest.raises(NotPositiveDefinite) as exc:
            SpdMatrix.stack(batch)
        assert str(exc.value) == f"slice 1: {_refusal(batch[1])[1]}"

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 2), (2, 0, 0)])
    def test_shape_refused(self, shape):
        with pytest.raises(DimensionMismatch):
            SpdMatrix.stack(np.ones(shape))


class TestDescendingEigenvalues:
    @pytest.mark.parametrize("c", [1.0, 0.02])
    def test_p2_closed_form_matches_eigvalsh_on_wishart_rows(self, c):
        S = sample_batch(np.diag([1.0, c]), 10, 100_000, 3, "spectrum-oracle")
        got = descending_eigenvalues(S)
        want = np.linalg.eigvalsh(S)[:, ::-1]
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert np.array_equal(separated_rows(got), separated_rows(want))

    @pytest.mark.parametrize(
        "S",
        [
            np.diag([3.0, 1.0]),
            np.diag([1.0, 3.0]),
            2.0 * np.eye(2),
            np.array([[2.0, 1.0], [1.0, 2.0]]),
            np.diag([1.0, 1e-6]),
            (rotation(0.5) * [1.0, 1e-6]) @ rotation(0.5).T,
        ],
        ids=["diagonal", "ascending-diagonal", "equal", "equal-diagonal", "cond-1e6", "rotated-cond-1e6"],
    )
    def test_p2_edge_rows(self, S):
        got = descending_eigenvalues(S[None])[0]
        want = np.linalg.eigvalsh(S)[::-1]
        assert got[0] >= got[1]
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_other_dimensions_are_the_reversed_eigvalsh_view(self, rng):
        S = np.stack([random_spd(rng, 3).matrix for _ in range(4)])
        got = descending_eigenvalues(S)
        assert got.strides[1] < 0
        assert np.array_equal(got, np.linalg.eigvalsh(S)[:, ::-1])

    def test_per_matrix_estimators_share_the_batched_rows(self):
        S_batch = sample_batch(np.diag([1.0, 0.3]), 10, 200, 4, "spectrum-share")
        lbars, _ = _batch_lbar(S_batch, 10)
        stars, valid = _batch_star(ExactO2())(S_batch, 10)
        assert valid.all()
        for r, S in enumerate(S_batch):
            assert np.array_equal(lbar(S, 10).values, lbars[r])
            assert np.array_equal(lambda_star(S, 10, ExactO2()).values, stars[r])


class TestSpectralDecompose:
    def test_already_diagonal(self):
        sp = spectral_decompose(np.diag([2.0, 1.0]))
        assert_allclose(sp.eigenvalues, [2.0, 1.0])
        assert_allclose(sp.eigenvectors, np.eye(2))

    def test_rotation_construction_inverts(self):
        R = rotation(np.pi / 4)
        sp = spectral_decompose(R @ np.diag([3.0, 1.0]) @ R.T)
        assert_allclose(sp.eigenvalues, [3.0, 1.0], atol=1e-12)
        # Same frame up to the sign convention.
        assert_allclose(np.abs(sp.eigenvectors), np.abs(R), atol=1e-12)

    def test_roundtrip_random(self, rng):
        S = random_spd(rng, 3)
        back = compose(spectral_decompose(S))
        assert np.abs(back.matrix - S.matrix).max() < 1e-12

    def test_roundtrip_many_dims(self, rng):
        for p in (2, 3, 4, 6):
            for _ in range(5):
                S = random_spd(rng, p)
                back = compose(spectral_decompose(S))
                rel = np.linalg.norm(back.matrix - S.matrix) / np.linalg.norm(S.matrix)
                assert rel < 1e-10

    def test_near_degenerate_rejected(self):
        with pytest.raises(NearDegenerateSpectrum):
            spectral_decompose(np.diag([1.0, 1.0 - 1e-10]))

    def test_one_gap_check_per_decomposition(self, monkeypatch):
        import eigengeo.spd_manifold as sm

        calls = []
        check = sm.check_eigenvalue_gaps

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(sm, "check_eigenvalue_gaps", counting)
        spectral_decompose(np.diag([3.0, 2.0, 1.0]))
        assert len(calls) == 1

    def test_sign_convention_deterministic(self, rng):
        S = random_spd(rng, 4)
        sp = spectral_decompose(S)
        for j in range(4):
            col = sp.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0


class TestCompose:
    def test_identity_frame(self):
        sp = Spectrum([2.0, 1.0], np.eye(2))
        assert_allclose(compose(sp).matrix, np.diag([2.0, 1.0]))

    def test_tied_eigenvalues_rejected_by_spectrum(self):
        with pytest.raises(NearDegenerateSpectrum):
            Spectrum([1.0, 1.0 - 1e-12], np.eye(2))

    def test_rotated_frame_offdiagonal(self):
        sp = Spectrum([3.0, 1.0], rotation(np.pi / 6))
        got = compose(sp).matrix
        # (3 - 1) cos(pi/6) sin(pi/6) = sqrt(3)/2
        assert_allclose(got[0, 1], np.sqrt(3.0) / 2.0, atol=1e-14)


class TestExpSkew:
    def test_zero_gives_identity(self):
        for p in (2, 3, 5):
            assert np.array_equal(exp_skew(SkewParams.zero(p)), np.eye(p))

    def test_p2_closed_form(self):
        O = exp_skew(SkewParams(2, np.array([np.pi / 2])))
        assert_allclose(O, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)

    def test_p3_orthogonal_rotation(self, rng):
        u = SkewParams(3, rng.uniform(-2, 2, 3))
        O = exp_skew(u)
        assert np.abs(O.T @ O - np.eye(3)).max() < 1e-12
        assert_allclose(np.linalg.det(O), 1.0, atol=1e-12)

    def test_matches_scipy_expm(self, rng):
        for p in (3, 4, 6):
            u = SkewParams(p, rng.uniform(-3, 3, p * (p - 1) // 2))
            assert np.abs(exp_skew(u) - scipy.linalg.expm(u.to_matrix())).max() < 1e-12

    def test_index_bijection(self):
        p = 4
        pairs = index_pairs(p)
        assert len(pairs) == 6
        for k, (s, t) in enumerate(pairs):
            assert pair_offset(s, t, p) == k
        u = SkewParams(p, np.arange(1.0, 7.0))
        U = u.to_matrix()
        for k, (s, t) in enumerate(pairs):
            assert U[s, t] == k + 1.0
            assert U[t, s] == -(k + 1.0)


class TestSigmaOfCoords:
    def test_zero_offset_is_compose(self, rng):
        sp = spectral_decompose(random_spd(rng, 3))
        got = sigma_of_coords(sp, SkewParams.zero(3))
        assert_allclose(got.matrix, compose(sp).matrix, atol=1e-14)

    def test_first_order_slope(self):
        # d sigma_01 / d u_(0,1) at u=0 equals lam_1 - lam_0 = -1.
        sp = Spectrum([2.0, 1.0], np.eye(2))
        h = 1e-6
        plus = sigma_of_coords(sp, SkewParams(2, np.array([h]))).matrix
        minus = sigma_of_coords(sp, SkewParams(2, np.array([-h]))).matrix
        slope = (plus[0, 1] - minus[0, 1]) / (2 * h)
        assert_allclose(slope, -1.0, atol=1e-8)

    def test_spectrum_invariant_under_u(self, rng):
        sp = spectral_decompose(random_spd(rng, 4))
        for _ in range(5):
            u = SkewParams(4, rng.uniform(-1.5, 1.5, 6))
            eigs = np.linalg.eigvalsh(sigma_of_coords(sp, u).matrix)[::-1]
            rel = np.abs(eigs - sp.eigenvalues) / sp.eigenvalues
            assert rel.max() < 1e-10


class TestNaturalCoords:
    def test_identity(self):
        nc = to_natural(np.eye(2))
        assert nc.entry(0, 0) == -0.5
        assert nc.entry(1, 1) == -0.5
        assert nc.entry(0, 1) == 0.0

    def test_diag_2_1(self):
        nc = to_natural(np.diag([2.0, 1.0]))
        assert_allclose(nc.entry(0, 0), -0.25)
        assert_allclose(nc.entry(1, 1), -0.5)

    def test_roundtrip_random(self, rng):
        for p in (2, 3, 4, 6):
            S = random_spd(rng, p)
            back = from_natural(to_natural(S))
            rel = np.linalg.norm(back.matrix - S.matrix) / np.linalg.norm(S.matrix)
            assert rel < 1e-10

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_packing_is_the_row_major_loop(self, rng, p):
        S = random_spd(rng, p)
        prec = np.linalg.inv(S.matrix)
        prec = 0.5 * (prec + prec.T)
        loop = []
        for i in range(p):
            loop.append(-0.5 * prec[i, i])
            loop.extend(-prec[i, i + 1 :])
        theta = to_natural(S).theta
        assert np.array_equal(theta, loop)
        want = np.zeros((p, p))
        k = 0
        for i in range(p):
            want[i, i] = -2.0 * theta[k]
            k += 1
            for j in range(i + 1, p):
                want[i, j] = want[j, i] = -theta[k]
                k += 1
        cov = np.linalg.inv(want)
        assert np.array_equal(from_natural(to_natural(S)).matrix, 0.5 * (cov + cov.T))

    def test_from_natural_rejects_non_spd(self):
        nc = to_natural(np.eye(2))
        bad = type(nc)(2, np.array([0.5, 0.0, -0.5]))  # positive theta_00
        with pytest.raises(NotPositiveDefinite):
            from_natural(bad)


class TestKlDivergence:
    def test_self_divergence_zero(self, rng):
        S = random_spd(rng, 3)
        assert abs(kl_divergence(S, S)) < 1e-12

    def test_known_values(self):
        assert_allclose(
            kl_divergence(np.diag([2.0, 1.0]), np.eye(2)), 3.0 - np.log(2.0) - 2.0
        )
        assert_allclose(
            kl_divergence(np.eye(2), np.diag([2.0, 1.0])), 1.5 - np.log(0.5) - 2.0
        )

    def test_asymmetry(self):
        a = kl_divergence(np.diag([2.0, 1.0]), np.eye(2))
        b = kl_divergence(np.eye(2), np.diag([2.0, 1.0]))
        assert abs(a - b) > 0.1

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(20):
            S = random_spd(rng, 3)
            T = random_spd(rng, 3)
            assert kl_divergence(S, T) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(np.eye(2), np.eye(3))


class TestKlProject:
    def test_own_frame_returns_eigenvalues(self, rng):
        S = random_spd(rng, 3)
        sp = spectral_decompose(S)
        assert_allclose(kl_project(S, sp.eigenvectors), sp.eigenvalues, atol=1e-12)

    def test_identity_frame_extracts_diagonal(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert_allclose(kl_project(S, np.eye(2)), [2.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_refused(self, bad):
        gamma = np.eye(2)
        gamma[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kl_project(np.diag([2.0, 1.0]), gamma)

    def test_grid_search_confirms_minimizer(self, rng):
        S = random_spd(rng, 2)
        gamma = random_orthogonal(rng, 2)
        lam = kl_project(S, gamma)

        def kl_at(vec):
            return kl_divergence(S, (gamma * vec) @ gamma.T)

        base = kl_at(lam)
        for i in range(2):
            for delta in (-0.05, -0.01, 0.01, 0.05):
                trial = np.array(lam)
                trial[i] += delta
                assert kl_at(trial) > base

    def test_first_order_optimality(self, rng):
        S = random_spd(rng, 3)
        gamma = random_orthogonal(rng, 3)
        lam = kl_project(S, gamma)
        h = 1e-6
        for i in range(3):
            up, down = np.array(lam), np.array(lam)
            up[i] += h
            down[i] -= h
            deriv = (
                kl_divergence(S, (gamma * up) @ gamma.T)
                - kl_divergence(S, (gamma * down) @ gamma.T)
            ) / (2 * h)
            assert abs(deriv) < 1e-6
