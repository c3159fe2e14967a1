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
    pair_offset,
    sigma_of_coords,
    spectral_decompose,
    to_natural,
)
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
