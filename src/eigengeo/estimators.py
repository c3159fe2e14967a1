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
Both integrals answer to one interface: ``diagonals(eig_rows)`` gives the
frame diagonals diag(H^T L H), (rows, p, K), ``step(D, log_lam, n)`` one
posterior step over the frame (the profile objective and the EM update) at
log-eigenvalues (rows, starts, p), each row's bits batch-free, and the class
flag ``symmetric`` says whether the integral is exactly symmetric under
permuting the population eigenvalues, which selects the profile maximizer
(a trace-line root, or SQUAREM from starts).  ``step`` is the private
``_posterior`` (the update, with the parts the objective reads) plus the
objective, which lambda_star never reads.  Haar measure is invariant
under H -> H G, so an integrand at a covariance G diag(lam) G^T depends on
lam alone and no interface takes a frame.

A lone row drops the rows axis: ``lambda_star`` runs one spectrum through
``diagonals`` and ``_posterior`` with the products of its row in a batch,
so its bits equal that row of ``lambda_star_from_eigs``, and decides its
checks on Python floats.  On the default 4096 Haar nodes a call went from
65 to 45 us at p = 3 and from 78 to 64 us at p = 5 (shared 2-vCPU x86-64
host, numpy 2.4.6, OpenBLAS on one thread): what is left is the quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, QuadratureUnderflow
from .spd_manifold import (
    _check_orthogonal,
    _frozen,
    as_spd,
    check_eigenvalue_gaps,
    check_sample_size,
    kl_project,
    separated_rows,
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

    def __post_init__(self):
        v = _frozen(self.values)
        if v.ndim != 1:
            raise DimensionMismatch("estimate must be a vector")
        _check_estimate_entries(v)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


def _check_estimate_entries(values: np.ndarray, prefix: str = "") -> None:
    """The one "finite and positive" rule for an estimate vector, decided
    on Python floats (ValueError, after ``prefix``)."""
    if not all(0.0 < v < math.inf for v in values.tolist()):
        raise ValueError(f"{prefix}estimate entries must be finite and positive, got {values}")


@dataclass(frozen=True)
class OrthogonalEnsemble:
    """A weighted collection of orthogonal matrices used as quadrature nodes
    for integrals over the orthogonal group."""

    matrices: np.ndarray
    weights: np.ndarray
    kind: str
    # Only nearly symmetric under permuting lam: its modes reach different
    # heights, so the profile maximizer starts from every ordering.
    symmetric: ClassVar[bool] = False

    def __post_init__(self):
        m = _frozen(self.matrices)
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
        _check_orthogonal(m, "member")
        object.__setattr__(self, "matrices", m)
        object.__setattr__(self, "weights", _frozen(w / total))

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    @cached_property
    def log_weights(self) -> np.ndarray:
        """Read-only log of ``weights``."""
        out = np.log(self.weights)
        out.setflags(write=False)
        return out

    @cached_property
    def squared_nodes(self) -> np.ndarray:
        """Read-only (p, p K) array Q[j, i K + k] = H_k[j, i]^2, one allocation."""
        out = np.square(self.matrices.transpose(1, 2, 0), order="C").reshape(self.dim, -1)
        out.setflags(write=False)
        return out

    def diagonals(self, eig_rows: np.ndarray) -> np.ndarray:
        """D[r, i, k] = diag_i(H_k^T L_r H_k) = sum_j H_k[j, i]^2 l_rj for L_r =
        diag(eig_rows[r]) and the nodes H_k, nodes last: one BLAS product per
        row, copied to C order, with the cached ``squared_nodes``.  A lone
        row (p,) gives its (p, K) slab.  Refuses rows of another dimension
        (DimensionMismatch)."""
        _check_dim(self, eig_rows.shape[-1])
        # A strided row (the reversed eigvalsh view) would take numpy's own
        # matmul loop, about 4x slower than BLAS.  A (1 x p)(p x p K) product
        # per row, not one GEMM of all rows, keeps a row's bits batch-free.
        D = (np.ascontiguousarray(eig_rows)[..., None, :] @ self.squared_nodes)[..., 0, :]
        return D.reshape(eig_rows.shape[:-1] + (self.dim, self.size))

    def step(self, D: np.ndarray, log_lam: np.ndarray, n: int):
        """One posterior step over the frame for population eigenvalues
        exp(log_lam), on a grid: ``D`` (rows, p, K) from ``diagonals``,
        ``log_lam`` (rows, starts, p); a lone row drops the rows axis of
        all three.

        The frame posterior puts log-weight log w_k - sum_i D[r, i, k] /
        (2 lam_i) on node k.  Returns ``(objective, update)``, of shapes
        (rows, starts) and (rows, starts, p): the profile log-likelihood
        -(n/2) sum(log lam) + log sum_k w_k exp(-sum_i D_i / (2 lam_i)), and
        the posterior mean of D / n, which is the EM map for the
        eigenvalue-only likelihood.  Its log-space gradient is (n/2) (update
        / lam - 1).  A row's entries come from its own products alone.  All
        weights are combined in log scale with the maximum subtracted
        (``relative_weights``), so the average stays finite even though the
        raw exponents scale like -n p / 2.
        """
        update, peak, total = self._posterior(D, log_lam, n)
        return -0.5 * n * log_lam.sum(axis=-1) + (peak + np.log(total)), update

    def _posterior(self, D: np.ndarray, log_lam: np.ndarray, n: int):
        """``step``'s update, then the peak and sum of the relative node
        weights that its objective reads."""
        coef = -0.5 * np.exp(-log_lam)
        log_terms = coef @ D
        log_terms += self.log_weights
        peak, rel, total = relative_weights(log_terms)
        update = rel @ D.swapaxes(-1, -2)
        return update / (n * total[..., None]), peak, total


@dataclass(frozen=True)
class ExactO2:
    """The p = 2 frame integral in closed form, exp(-a) I0(b): no nodes.
    It is exactly symmetric under swapping lam_1 and lam_2."""

    kind: ClassVar[str] = EXACT_O2
    dim: ClassVar[int] = 2
    size: ClassVar[int] = 0
    symmetric: ClassVar[bool] = True

    def diagonals(self, eig_rows: np.ndarray) -> np.ndarray:
        """The rows themselves, (rows, 2) or a lone (2,).  Refuses rows of
        another dimension."""
        _check_dim(self, eig_rows.shape[-1])
        return eig_rows

    def step(self, D: np.ndarray, log_lam: np.ndarray, n: int):
        """``OrthogonalEnsemble.step`` in closed form, with D = l, broadcast
        over the starts axis of ``log_lam`` (rows, starts, 2).

        At rotation theta the diagonal is m +/- h cos(2 theta) (m, h: mean
        and half-difference of l), so the log average is -a + log I0(b),
        a = m (1/lam_1 + 1/lam_2) / 2, b = h (1/lam_1 - 1/lam_2) / 2, and the
        update is (m -/+ h I1(b) / I0(b)) / n.
        """
        update, inv, m, log_i0 = self._posterior(D, log_lam, n)
        objective = -0.5 * n * (log_lam[..., 0] + log_lam[..., 1]) - 0.5 * m * (inv[..., 0] + inv[..., 1]) + log_i0
        return objective, update

    def _posterior(self, D: np.ndarray, log_lam: np.ndarray, n: int):
        """``step``'s update, then 1/lam, m and log I0(b), which its objective reads."""
        inv, l1, l2 = np.exp(-log_lam), D[..., 0, None], D[..., 1, None]
        m, h = 0.5 * (l1 + l2), 0.5 * (l1 - l2)
        b = 0.5 * h * (inv[..., 0] - inv[..., 1])
        # Boolean masks run faster on a vector than on the (rows, starts) grid.
        log_i0, ratio = (v.reshape(b.shape) for v in log_i0_and_ratio(np.abs(b).ravel()))
        shift = h * np.copysign(ratio, b)
        update = np.stack([m - shift, m + shift], axis=-1)
        return np.divide(update, n, out=update), inv, m, log_i0


def _check_dim(ensemble, p: int) -> None:
    """The one ensemble-size refusal: a frame integral serves only p = its dim."""
    if ensemble.dim != p:
        raise DimensionMismatch(f"ensemble dim {ensemble.dim} does not match p = {p}")


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
    check_sample_size(n, S.dim)
    return EigenEstimate(S.eigenvalues / n, LBAR)


def lambda_hat(S, n: int, gamma: np.ndarray) -> EigenEstimate:
    """Diagonal of S/n in the frame ``gamma``: the KL projection
    ``kl_project(S, gamma)`` scaled by 1/n.

    Unbiased for the population eigenvalues when ``gamma`` is the true
    eigenvector matrix; with the sample eigenvector frame it reproduces
    ``lbar`` exactly.  Components keep the frame's index order.  A frame
    that is not orthogonal is refused (ValueError, from ``kl_project``).
    """
    S = as_spd(S)
    check_sample_size(n, S.dim)
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
    return EigenEstimate(lambda_star_from_eigs(S.eigenvalues, n, ensemble), STAR)


def lambda_star_from_eigs(
    sample_eigs, n: int, ensemble: OrthogonalEnsemble | ExactO2, check_gaps: bool = True
) -> np.ndarray:
    """Quadrature core of ``lambda_star`` operating on sample eigenvalues.

    ``sample_eigs`` are the eigenvalues of the product-sum matrix S (not yet
    divided by n), as a vector or a batch of row vectors.  The result is
    the update of ``ensemble.step`` at the population eigenvalues l/n.  A
    vector runs as a lone row, checked by ``check_eigenvalue_gaps``; a
    batch is masked by ``separated_rows`` and refuses its first bad row
    with that row's lone refusal.
    """
    eigs = np.atleast_1d(np.asarray(sample_eigs, dtype=float))
    check_sample_size(n, eigs.shape[-1])
    if check_gaps:
        if eigs.ndim == 1:
            check_eigenvalue_gaps(eigs, "lambda_star")
        elif not (ok := separated_rows(eigs)).all():
            check_eigenvalue_gaps(eigs[np.argmin(ok)], "lambda_star")  # the first bad row
    # The one start l/n, as a starts axis of length 1.
    update = ensemble._posterior(ensemble.diagonals(eigs), np.log(eigs / n)[..., None, :], n)[0]
    return update[..., 0, :]


def relative_weights(log_terms: np.ndarray):
    """Quadrature weights from log-scale terms, stable along the last axis.

    Returns ``(peak, rel, total)``: the maxima over the last axis,
    ``exp(log_terms - peak)`` and its sums, so the log of the weighted
    average is ``peak + log(total)``.  Subtracting the maximum keeps the
    largest term at exp(0) = 1 however negative the raw exponents are.
    ``rel`` is ``log_terms`` itself, overwritten in place.
    """
    peak = log_terms.max(axis=-1, keepdims=True)
    rel = log_terms
    rel -= peak
    np.exp(rel, out=rel)
    total = rel.sum(axis=-1)
    # Each total holds its peak's exp(0) = 1 and is at most the node count
    # unless it is NaN, so one finite sum of them vouches for all of them.
    if not 0.0 < float(total.sum()) < math.inf:
        raise QuadratureUnderflow("quadrature log-weight terms are not finite")
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
