import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigengeo import (
    DimensionMismatch,
    LossMatrix,
    NearDegenerateSpectrum,
    NotPositiveDefiniteWarning,
    embedding_curvature_M,
    index_pairs,
    info_carried_by_l,
    inverse_metric_eigen,
    inverse_metric_pair,
    loss_contraction,
    loss_first_order,
)
from test_fisher_geometry import brute_force_curvature_contraction


def brute_force_loss(lam):
    """Full enumeration of the leading information-loss contraction: the
    vanishing fixed-frame term summed explicitly plus half the dense
    curvature contraction."""
    lam = np.asarray(lam, dtype=float)
    p = lam.size
    pairs = index_pairs(p)
    ginv_pair = inverse_metric_pair(lam)
    ginv_eigen = inverse_metric_eigen(lam)
    e_term = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    for k1, pr1 in enumerate(pairs):
                        for k2, pr2 in enumerate(pairs):
                            if c != d or k1 != k2:
                                continue  # both inverse metrics are diagonal
                            e_term[a, b] += (
                                embedding_curvature_M(lam, a, c, pr1, "e")
                                * embedding_curvature_M(lam, b, d, pr2, "e")
                                * ginv_eigen[c]
                                * ginv_pair[k1]
                            )
    return e_term + 0.5 * brute_force_curvature_contraction(lam)


class TestLossMatrix:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, where):
        m = np.array([[1.0, -0.5], [-0.5, 1.0]])
        m[where] = m[where[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LossMatrix(m)

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch, match="symmetric"):
            LossMatrix(np.array([[1.0, -0.5], [-0.4, 1.0]]))


class TestLossFirstOrder:
    def test_reference_values_p2(self):
        B = loss_first_order([2.0, 1.0]).B
        assert_allclose(B, [[0.125, -0.5], [-0.5, 2.0]])

    def test_reference_values_p3(self):
        B = loss_first_order([3.0, 2.0, 1.0]).B
        assert_allclose(B[0, 1], -0.5)
        assert_allclose(B[0, 2], -0.125)
        assert_allclose(B[1, 2], -0.5)

    def test_homogeneity_degree_minus_two(self, rng):
        lam = np.array([3.1, 1.4, 0.5])
        B = loss_first_order(lam).B
        for c in (0.5, 2.0, 10.0):
            scaled = loss_first_order(c * lam).B
            assert np.abs(scaled * c**2 / B - 1.0).max() < 1e-12

    def test_sign_pattern(self, rng):
        for _ in range(20):
            p = rng.integers(2, 6)
            lam = np.sort(rng.uniform(0.5, 5.0, p))[::-1]
            if np.min(lam[:-1] - lam[1:]) < 1e-3:
                continue
            B = loss_first_order(lam).B
            assert np.all(np.diag(B) >= 0.0)
            off = B[~np.eye(p, dtype=bool)]
            assert np.all(off <= 0.0)

    def test_matches_scalar_loop(self, rng):
        # Scalar reference: squaring a numpy scalar goes through libm pow,
        # an array squares exactly, so cells may differ by about an ulp.
        for p in range(2, 8):
            for _ in range(20):
                lam = np.sort(rng.uniform(0.1, 10.0, p))[::-1]
                if np.min(lam[:-1] - lam[1:]) < 1e-3:
                    continue
                loop = np.zeros((p, p))
                for a in range(p):
                    for t in range(p):
                        if t != a:
                            loop[a, a] += lam[t] ** 2 / (lam[t] - lam[a]) ** 2
                            loop[a, t] = -0.5 / (lam[a] - lam[t]) ** 2
                    loop[a, a] /= 2.0 * lam[a] ** 2
                assert_allclose(loss_first_order(lam).B, loop, rtol=1e-15, atol=0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(NearDegenerateSpectrum):
            loss_first_order([1.0, 1.0])


class TestLossContraction:
    def test_matches_closed_form_p2(self):
        got = loss_contraction([2.0, 1.0]).B
        assert_allclose(got, [[0.125, -0.5], [-0.5, 2.0]], atol=1e-12)

    def test_oracle_equivalence_many(self, rng):
        for p in (2, 3, 4, 5):
            for _ in range(50):
                lam = np.sort(rng.uniform(0.3, 5.0, p))[::-1]
                if np.min(lam[:-1] - lam[1:]) < 0.05:
                    continue
                closed = loss_first_order(lam).B
                generic = loss_contraction(lam).B
                assert np.abs(closed - generic).max() < 1e-10

    def test_matches_full_enumeration(self, rng):
        for p in (2, 3, 4):
            lam = np.sort(rng.uniform(0.5, 5.0, p))[::-1]
            if np.min(lam[:-1] - lam[1:]) < 0.05:
                lam = lam + np.arange(p)[::-1] * 0.2
            assert np.abs(loss_first_order(lam).B - brute_force_loss(lam)).max() < 1e-10

    def test_shared_degeneracy_guard(self):
        lam = [1.0, 1.0 - 1e-12]
        with pytest.raises(NearDegenerateSpectrum):
            loss_first_order(lam)
        with pytest.raises(NearDegenerateSpectrum):
            loss_contraction(lam)


class TestInfoCarriedByEigenvalues:
    def test_reference_arithmetic(self):
        info = info_carried_by_l([2.0, 1.0], 100)
        expect = np.diag([12.5, 50.0]) - loss_first_order([2.0, 1.0]).B
        assert_allclose(info, expect)

    def test_breakdown_warns(self):
        with pytest.warns(NotPositiveDefiniteWarning):
            info_carried_by_l([1.0, 0.99], 10)

    def test_large_n_limit(self):
        lam = [2.0, 1.0]
        ratios = []
        for n in (10**3, 10**6):
            info = info_carried_by_l(lam, n)
            fisher = np.diag(0.5 * n / np.asarray(lam) ** 2)
            ratios.append(np.linalg.eigvalsh(info)[0] / np.linalg.eigvalsh(fisher)[0])
        assert ratios[1] > ratios[0]
        assert abs(ratios[1] - 1.0) < 1e-4
