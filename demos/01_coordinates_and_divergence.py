"""Coordinates on the covariance manifold and the KL divergence.

A covariance matrix can be addressed by its entries, by natural
exponential-family parameters, or by its spectrum plus a rotation chart.
This walk-through converts one matrix through all three and shows the
divergence and projection that make the geometry statistical.
"""

import numpy as np

import eigengeo as eg

S = eg.SpdMatrix(np.array([[2.0, 0.6, 0.1], [0.6, 1.2, 0.3], [0.1, 0.3, 0.8]]))
print("covariance:\n", S.matrix)

# Spectral coordinates: descending eigenvalues plus a sign-normalized frame.
sp = eg.spectral_decompose(S)
print("\neigenvalues:", sp.eigenvalues)
print("frame (columns are eigenvectors):\n", sp.eigenvectors)
print("reconstruction error:", np.abs(eg.compose(sp).matrix - S.matrix).max())

# Natural parameters and back.
theta = eg.to_natural(S)
print("\nnatural parameters (packed upper triangle):", theta.theta)
print("round trip error:", np.abs(eg.from_natural(theta).matrix - S.matrix).max())

# The rotation chart: moving the skew coordinates rotates the frame but
# leaves the eigenvalues untouched.
u = eg.SkewParams(3, np.array([0.3, -0.1, 0.2]))
moved = eg.sigma_of_coords(sp, u)
print("\neigenvalues after a chart move:", moved.eigenvalues)

# KL divergence is the manifold's natural (asymmetric) distance.
T = eg.SpdMatrix(np.eye(3))
print("\nKL(S, I):", eg.kl_divergence(S, T))
print("KL(I, S):", eg.kl_divergence(T, S))

# Projecting S onto the covariances sharing a frame: the frame-diagonal.
gamma = np.eye(3)
closest = eg.kl_project(S, gamma)
print("\nKL projection onto the identity frame:", closest)
print("(equals the diagonal of S)")
