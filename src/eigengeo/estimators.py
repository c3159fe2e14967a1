"""Eigenvalue estimators for a zero-mean Gaussian covariance.

Three estimators of the population eigenvalues from the product-sum matrix
S of n observations:

* ``lbar``: the scaled sample eigenvalues (the classical choice, biased
  apart when eigenvalues are close);
* ``lambda_hat``: the diagonal of S/n in a known eigenvector frame
  (unbiased when the frame is correct);
* ``lambda_star``: a frame-averaged shrinkage estimator that integrates
  the frame out against its plug-in posterior over the orthogonal group.

At p = 2 the group integral is exact, exp(-a) I0(b) (``ExactO2``; James,
Ann. Math. Statist. 1964).  For p >= 3 it is a quadrature over an
``OrthogonalEnsemble`` of Haar draws; ``o2_equidistant`` grids cross-check p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, QuadratureUnderflow
from .spd_manifold import (
    ORTHOGONALITY_TOLERANCE, as_spd, check_eigenvalue_gaps, kl_project, separated_rows,
)

LBAR = "lbar"
GAMMA_FRAME = "gamma-frame"
STAR = "star"

EQUIDISTANT_O2 = "equidistant-o2"
HAAR_MC = "haar-mc"
EXACT_O2 = "exact-o2"


@dataclass(frozen=True)
class EigenEstimate:
    """An eigenvalue estimate: positive values plus the producing method."""

    values: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DimensionMismatch("estimate must be a vector")
        if np.any(v <= 0.0):
            raise ValueError(f"estimate entries must be positive, got {v}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class OrthogonalEnsemble:
    """A weighted collection of orthogonal matrices used as quadrature nodes
    for integrals over the orthogonal group."""

    matrices: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DimensionMismatch(f"expected (count, p, p) matrices, got {m.shape}")
        if w.shape != (m.shape[0],):
            raise DimensionMismatch("weights do not match the matrix count")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if not np.isclose(total, 1.0, rtol=0.0, atol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total}")
        errs = np.abs(np.swapaxes(m, 1, 2) @ m - np.eye(m.shape[1])).max(axis=(1, 2))
        bad = np.flatnonzero(errs > ORTHOGONALITY_TOLERANCE)
        if bad.size:
            k = bad[0]
            raise ValueError(f"member {k} is not orthogonal (deviation {errs[k]:.3e})")
        m.setflags(write=False)
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "matrices", m)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    @cached_property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)

    @cached_property
    def squared_nodes(self) -> np.ndarray:
        """Read-only (p, K p) array Q[j, k p + i] = H_k[j, i]^2, one allocation."""
        return _squared_layout(self.matrices)


def _squared_layout(matrices: np.ndarray) -> np.ndarray:
    out = np.square(matrices.transpose(1, 0, 2), order="C").reshape(matrices.shape[1], -1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ExactO2:
    """The p = 2 frame integral in closed form, exp(-a) I0(b): no nodes."""

    kind: ClassVar[str] = EXACT_O2
    dim: ClassVar[int] = 2
    size: ClassVar[int] = 0


def o2_equidistant(count: int) -> OrthogonalEnsemble:
    """Equidistant rotation grid on [0, pi) with uniform weights.

    Rotation by theta + pi conjugates a matrix identically to rotation by
    theta, and reflections conjugate diagonal matrices identically to
    rotations, so a half-turn rotation grid represents all of O(2) for the
    integrands used here.  Equidistant nodes integrate trigonometric
    polynomials of low degree exactly.
    """
    if count < 2:
        raise ValueError(f"need at least 2 grid points, got {count}")
    thetas = np.arange(count) * np.pi / count
    mats = np.empty((count, 2, 2))
    mats[:, 0, 0] = np.cos(thetas)
    mats[:, 0, 1] = -np.sin(thetas)
    mats[:, 1, 0] = np.sin(thetas)
    mats[:, 1, 1] = np.cos(thetas)
    return OrthogonalEnsemble(mats, np.full(count, 1.0 / count), EQUIDISTANT_O2)


def haar_sample(p: int, count: int, rng) -> OrthogonalEnsemble:
    """Independent Haar-distributed orthogonal matrices with uniform weights.

    Each matrix is the Q factor of a standard Gaussian matrix with the signs
    of R's diagonal absorbed, which makes the distribution exactly Haar.
    ``rng`` is a seed or a numpy Generator.
    """
    if count < 1:
        raise ValueError(f"need at least 1 sample, got {count}")
    gen = np.random.default_rng(rng)
    q, r = np.linalg.qr(gen.standard_normal((count, p, p)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return OrthogonalEnsemble(q, np.full(count, 1.0 / count), HAAR_MC)


def default_ensemble(p: int, rng=0) -> OrthogonalEnsemble | ExactO2:
    """The one frame-integral policy, for the estimators and the tests: the
    exact integral for p = 2, 4096 Haar draws (seeded by ``rng``) for p >= 3."""
    if p == 2:
        return ExactO2()
    return haar_sample(p, 4096, rng)


def lbar(S, n: int) -> EigenEstimate:
    """Scaled sample eigenvalues: the spectrum of S/n, descending."""
    S = as_spd(S)
    if n < S.dim:
        raise ValueError(f"need n >= p, got n={n}, p={S.dim}")
    eigs = np.linalg.eigvalsh(S.matrix)[::-1] / n
    return EigenEstimate(eigs, LBAR)


def lambda_hat(S, n: int, gamma: np.ndarray) -> EigenEstimate:
    """Diagonal of S/n in the frame ``gamma``: the KL projection
    ``kl_project(S, gamma)`` scaled by 1/n.

    Unbiased for the population eigenvalues when ``gamma`` is the true
    eigenvector matrix; with the sample eigenvector frame it reproduces
    ``lbar`` exactly.  Components keep the frame's index order.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return EigenEstimate(kl_project(S, gamma) / n, GAMMA_FRAME)


def lambda_star(S, n: int, ensemble: OrthogonalEnsemble | ExactO2) -> EigenEstimate:
    """Frame-averaged shrinkage estimator.

    Averages the frame-diagonal diag(H^T L H)/n over orthogonal frames H
    weighted by exp(-(n/2) trace(L^-1 H^T L H)), the plug-in conditional
    density of the frame given the sample eigenvalues l (L = diag(l)): one
    EM step for the eigenvalue-only likelihood, started from l/n.
    Preserves the trace of S/n exactly and pulls the components toward
    their mean.
    """
    S = as_spd(S)
    if n < S.dim:
        raise ValueError(f"need n >= p, got n={n}, p={S.dim}")
    sample_eigs = np.linalg.eigvalsh(S.matrix)[::-1]
    values = lambda_star_from_eigs(sample_eigs, n, ensemble)
    return EigenEstimate(values, STAR, {"ensemble_kind": ensemble.kind, "ensemble_size": ensemble.size})


def lambda_star_from_eigs(
    sample_eigs, n: int, ensemble: OrthogonalEnsemble | ExactO2, check_gaps: bool = True
) -> np.ndarray:
    """Quadrature core of ``lambda_star`` operating on sample eigenvalues.

    ``sample_eigs`` are the eigenvalues of the product-sum matrix S (not yet
    divided by n), as a vector or a batch of row vectors.  The result is
    ``frame_posterior_step`` at the population eigenvalues l/n.
    """
    eigs = np.asarray(sample_eigs, dtype=float)
    single = eigs.ndim == 1
    batch = np.atleast_2d(eigs)
    if check_gaps and not (ok := separated_rows(batch)).all():
        check_eigenvalue_gaps(batch[np.argmin(ok)], "lambda_star")  # the first bad row
    D = projected_diagonals(batch, ensemble)
    _, result = frame_posterior_step(D, np.log(batch / n), n, ensemble)
    return result[0] if single else result


def projected_diagonals(eig_rows: np.ndarray, ensemble: OrthogonalEnsemble | ExactO2) -> np.ndarray:
    """D[r, k, i] = diag_i(H_k^T L_r H_k) = sum_j H_k[j, i]^2 l_rj for L_r =
    diag(eig_rows[r]) and the ensemble's nodes H_k: one matmul with the cached
    ``squared_nodes`` (``ExactO2``: the rows themselves).  Every frame
    integral passes through here, so the ensemble's dimension is checked here
    (DimensionMismatch)."""
    if ensemble.dim != eig_rows.shape[1]:
        raise DimensionMismatch(
            f"ensemble dim {ensemble.dim} does not match {eig_rows.shape[1]} eigenvalues"
        )
    if ensemble.kind == EXACT_O2:
        return eig_rows
    return (eig_rows @ ensemble.squared_nodes).reshape(eig_rows.shape[0], ensemble.size, ensemble.dim)


def frame_posterior_step(D: np.ndarray, log_lam: np.ndarray, n: int, ensemble: OrthogonalEnsemble | ExactO2):
    """One posterior step over the frame for population eigenvalues
    exp(log_lam) (one row per row of ``D``, see ``projected_diagonals``).

    The frame posterior puts log-weight log w_k - sum_i D[r, k, i] /
    (2 lam_i) on node k.  Returns ``(objective, update)``: the profile
    log-likelihood -(n/2) sum(log lam) + log sum_k w_k exp(-sum_i D_i /
    (2 lam_i)), and the posterior mean of D / n, which is the EM map for
    the eigenvalue-only likelihood.  Its log-space gradient is
    (n/2) (update / lam - 1).  All weights are combined in log scale with
    the maximum subtracted (``relative_weights``), so the average stays
    finite even though the raw exponents scale like -n p / 2.

    For ``ExactO2``, D is l: at rotation theta the diagonal is m +/- h
    cos(2 theta) (m, h: mean and half-difference of l), so the log average
    is -a + log I0(b), a = m (1/lam_1 + 1/lam_2) / 2, b = h (1/lam_1 -
    1/lam_2) / 2, and the update is (m -/+ h I1(b) / I0(b)) / n.
    """
    if ensemble.kind == EXACT_O2:
        inv = np.exp(-log_lam)
        m, h = 0.5 * (D[:, 0] + D[:, 1]), 0.5 * (D[:, 0] - D[:, 1])
        b = 0.5 * h * (inv[:, 0] - inv[:, 1])
        log_i0, ratio = log_i0_and_ratio(np.abs(b))
        objective = -0.5 * n * log_lam.sum(axis=1) - 0.5 * m * (inv[:, 0] + inv[:, 1]) + log_i0
        shift = h * np.copysign(ratio, b)
        return objective, np.stack([m - shift, m + shift], axis=1) / n
    # Batched matmul runs these contractions ~4x faster than einsum.
    log_terms = (D @ (-0.5 * np.exp(-log_lam))[:, :, None])[:, :, 0]
    log_terms += ensemble.log_weights
    peak, rel, total = relative_weights(log_terms)
    objective = -0.5 * n * log_lam.sum(axis=1) + (peak + np.log(total))
    update = (rel[:, None, :] @ D)[:, 0, :] / (n * total[:, None])
    return objective, update


def relative_weights(log_terms: np.ndarray):
    """Quadrature weights from log-scale terms, stable along the last axis.

    Returns ``(peak, rel, total)``: the maxima over the last axis,
    ``exp(log_terms - peak)`` and its sums, so the log of the weighted
    average is ``peak + log(total)``.  Subtracting the maximum keeps the
    largest term at exp(0) = 1 however negative the raw exponents are.
    """
    peak = log_terms.max(axis=-1, keepdims=True)
    rel = log_terms - peak
    np.exp(rel, out=rel)
    total = rel.sum(axis=-1)
    if not np.all(np.isfinite(total)) or np.any(total <= 0.0):
        raise QuadratureUnderflow("all quadrature weights underflowed")
    return peak[..., 0], rel, total


def _bessel_coefficients():
    """Highest power first: Q, P with I0 = 1 + y Q(y), I1 = (x/2) P(y), y = x^2/4,
    and the asymptotic series of I0, I1 in 1/x (Abramowitz and Stegun 9.7.1)."""
    f = [math.factorial(k) for k in range(35)]
    series = [[1.0 / f[k + 1] ** 2, 1.0 / (f[k] * f[k + 1])] for k in range(34)]
    asymptotic = [[1.0, 1.0]]
    for k in range(1, 22):
        a, b = asymptotic[-1]
        asymptotic.append([a * (2 * k - 1) ** 2 / (8 * k), b * ((2 * k - 1) ** 2 - 4) / (8 * k)])
    return (np.array(c)[::-1, :, None] for c in (series, asymptotic))


_BESSEL_SEAM = 20.0
_I_SERIES, _I_ASYMPTOTIC = _bessel_coefficients()


def _horner(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Both columns of ``coef`` as polynomials in t, in one Horner pass."""
    acc = coef[0] * t
    for c in coef[1:-1]:
        acc += c
        acc *= t
    return acc + coef[-1]


def log_i0_and_ratio(x: np.ndarray):
    """log I0(x) and I1(x) / I0(x) for a vector x >= 0, both to about 1e-15
    relative: power series up to x = 20, asymptotic series above.
    ``np.i0`` overflows near x = 710, and numpy has no I1."""
    log_i0, ratio = np.empty_like(x), np.empty_like(x)
    small = x <= _BESSEL_SEAM
    xs = x[small]
    y = 0.25 * xs * xs
    q, p = _horner(_I_SERIES, y)
    yq = y * q
    log_i0[small] = np.log1p(yq)  # log1p keeps log I0 ~ x^2/4 accurate at tiny x
    ratio[small] = 0.5 * xs * p / (1.0 + yq)
    if not small.all():
        xl = x[~small]
        s0, s1 = _horner(_I_ASYMPTOTIC, 1.0 / xl)
        log_i0[~small] = xl - 0.5 * np.log(2.0 * np.pi * xl) + np.log(s0)
        ratio[~small] = s1 / s0
    return log_i0, ratio
