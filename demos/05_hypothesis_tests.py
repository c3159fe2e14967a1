"""Testing a unit covariance with and without the eigenvector frame.

The classical likelihood-ratio test sees the whole product-sum matrix; a
second test sees only its eigenvalues, paying the quadrature cost of an
orthogonal-group integral and a profile maximization.  That maximization
treats the unseen frame as missing data: each EM step replaces the
eigenvalues by the frame-posterior mean of diag(H^T L H) / n, and SQUAREM
extrapolation along pairs of steps makes the ascent converge in a few
cycles.  Calibrating both tests by simulation and running them on the same
draws shows how little the frame matters near the null.
"""

import numpy as np

import eigengeo as eg
from eigengeo.hypothesis_tests import EIGEN_LRT, FULL_LRT, figure3_alternative

n, reps, seed = 10, 4000, 7
ens = eg.o2_equidistant(100)

print("calibrating both tests at the 5% level...")
cv_full = eg.calibrate(FULL_LRT, 0.05, 2, n, reps, seed)
cv_eigen = eg.calibrate(EIGEN_LRT, 0.05, 2, n, reps, seed, ens)
print("  full-data threshold:  ", round(cv_full.threshold, 4))
print("  eigenvalue threshold: ", round(cv_eigen.threshold, 4))

# One statistic each on a fresh draw from an alternative.
S = eg.sample_product_sum(np.diag([1.6, 0.7]), n, eg.replication_rng(seed, "demo-tests", 0))
full_stat = eg.full_lrt_stat(S, n)
eigs = np.linalg.eigvalsh(S.matrix)[::-1]
eigen_stat = eg.eigen_lrt_stat(eigs, n, ens)
print("\none draw from diag(1.6, 0.7):")
print("  full statistic:", round(full_stat.value, 4), "reject:", cv_full.rejects(full_stat))
print("  eigen statistic:", round(eigen_stat.value, 4), "reject:", cv_eigen.rejects(eigen_stat))

# Power along part of the alternative fan, both tests on the same draws.
print("\npowers along the alternative fan (reps=%d):" % reps)
for theta in (np.pi / 4, -np.pi / 4, -3 * np.pi / 4):
    sigma = figure3_alternative(theta)
    pt_full = eg.power_curve(FULL_LRT, [sigma], cv_full, n, reps, seed)[0]
    pt_eigen = eg.power_curve(EIGEN_LRT, [sigma], cv_eigen, n, reps, seed, ens)[0]
    lam = np.diag(sigma)
    print(f"  lambda=({lam[0]:.2f},{lam[1]:.2f}): full {pt_full.power:.3f}  eigen {pt_eigen.power:.3f}")
