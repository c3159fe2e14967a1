"""Three eigenvalue estimators and their Monte-Carlo risks.

Scaled sample eigenvalues over-spread: the top one is biased up, the bottom
one down, worst when the population eigenvalues are close.  Knowing the
frame removes the problem; not knowing it, the frame can be averaged out
over the orthogonal group, which shrinks the estimates toward their mean.
"""

import numpy as np

import eigengeo as eg

rng = eg.replication_rng(7, "demo-estimators", 0)
S = eg.sample_product_sum(np.diag([1.0, 0.8]), 10, rng)

print("one sample, true eigenvalues (1.0, 0.8):")
print("  scaled sample eigenvalues:", eg.lbar(S, 10).values)
print("  known-frame diagonal:     ", eg.lambda_hat(S, 10, np.eye(2)).values)
ens = eg.o2_equidistant(50)
print("  frame-averaged shrinkage: ", eg.lambda_star(S, 10, ens).values)

# The bias is systematic: mean sample eigenvalues majorize the truth.
report = eg.bias_majorization_check(np.eye(2), 10, 50_000, 7)
print("\nmean scaled sample eigenvalue partial sums at identity covariance:",
      report.mean_partial_sums, "(targets", report.target_partial_sums, ")")

# Risk comparison, known frame: the frame-diagonal estimator wins and its
# risk does not depend on the eigenvalue ratio at all.
fig4 = eg.figure4_experiment(reps=4000, seed=7)
c = fig4.param_values
lbar_risk = np.array([r.mean for r in fig4.risks["lbar"]])
frame_risk = np.array([r.mean for r in fig4.risks["gamma-frame"]])
print("\nKL risk with a known frame (c = eigenvalue ratio):")
for i in (0, 24, 49):
    print(f"  c={c[i]:4.2f}: sample-eigs {lbar_risk[i]:.3f}  frame-diag {frame_risk[i]:.3f}")

# Risk comparison, unknown frame: the shrinkage estimator beats the sample
# eigenvalues, most where eigenvalues are close.
fig6 = eg.figure6_experiment(reps=1000, seed=7)
c = fig6.param_values
lbar_risk = np.array([r.mean for r in fig6.risks["lbar"]])
star_risk = np.array([r.mean for r in fig6.risks["star"]])
print("\nKL risk with an unknown frame:")
for i in (0, 12, 24):
    print(f"  c={c[i]:4.2f}: sample-eigs {lbar_risk[i]:.3f}  shrinkage {star_risk[i]:.3f}")
