"""Likelihood-ratio tests of a unit covariance, with and without the frame.

Two tests of the null "covariance equals the identity": the classical test
on the full product-sum matrix, and a test that sees only its eigenvalues.
The eigenvalue test needs the density of the sample eigenvalues, whose
frame integral is exact at p = 2 and a Haar quadrature above
(``estimators.default_ensemble``), and a profile maximization over
candidate population eigenvalues.  Treating the frame as missing data makes
that maximization an EM iteration, lam <- E_post[diag(H^T L H)] / n
(``estimators.frame_posterior_step``), run in log space from a few starts
and accelerated by SQUAREM (Varadhan and Roland, Scand. J. Stat. 2008);
each maximum carries a gradient certificate or raises ``OptimizerFailure``.

Critical values are calibrated by Monte-Carlo under the null (no
asymptotic approximations), and powers come from fresh replication
substreams, shared across alternatives and across the two tests so that
power comparisons are paired.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OptimizerFailure
from .estimators import (
    EXACT_O2,
    ExactO2,
    OrthogonalEnsemble,
    _squared_layout,
    default_ensemble,
    frame_posterior_step,
    projected_diagonals,
)
from .spd_manifold import GAP_TOLERANCE_REL, as_spd, descending_eigenvalues, separated_rows
from .wishart_sim import color_batch, parallel_points, sample_batch, white_batch

FULL_LRT = "full-lrt"
EIGEN_LRT = "eigen-lrt"

# Profile maximizer policy: SQUAREM-accelerated EM in log-eigenvalue space,
# stopping a row once its log-space gradient is at most GRAD_TOL (budget
# MAX_CYCLES SQUAREM cycles of three posterior steps each).
GRAD_TOL = 1e-8
MAX_CYCLES = 500
# Row-at-a-time start batches pay once a row's starts x nodes reach this
# many log-weight terms; below it per-call overhead dominates and starts run
# over all rows at once.  Measured on a 2-core Xeon, one thread: at 100
# nodes (p = 2) one row at a time is 13x slower; at p = 3 and 4096 nodes it
# is 1.5x faster.
ROW_BATCH_TERMS = 1 << 13


@dataclass(frozen=True)
class TestStatistic:
    """A log-scale test statistic; small values reject the null."""

    value: float
    kind: str
    n: int
    p: int

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"statistic must be finite, got {self.value}")


@dataclass(frozen=True)
class CriticalValue:
    """An empirical lower-tail threshold calibrated under the null."""

    alpha: float
    threshold: float
    calib_reps: int
    seed: int
    kind: str

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def rejects(self, stat) -> bool:
        value = stat.value if isinstance(stat, TestStatistic) else float(stat)
        return value < self.threshold


def full_lrt_stat(S, n: int) -> TestStatistic:
    """Log likelihood-ratio statistic of the full-data test:
    (pn/2)(1 - log n) - trace(S)/2 + (n/2) log det S.

    Zero when S = n I; invariant under orthogonal conjugation of S.
    """
    S = as_spd(S)
    if n < S.dim:
        raise ValueError(f"need n >= p, got n={n}, p={S.dim}")
    value = _full_lrt_batch(S.matrix[None, :, :], n)[0]
    return TestStatistic(float(value), FULL_LRT, n, S.dim)


def _full_lrt_batch(S_batch: np.ndarray, n: int) -> np.ndarray:
    p = S_batch.shape[1]
    _, logdet = np.linalg.slogdet(S_batch)
    traces = np.trace(S_batch, axis1=1, axis2=2)
    return 0.5 * p * n * (1.0 - np.log(n)) - 0.5 * traces + 0.5 * n * logdet


def eigen_log_density_kernel(sample_eigs, Sigma, n: int, ensemble: OrthogonalEnsemble | ExactO2) -> float:
    """Covariance-dependent part of the sample-eigenvalue log density:
    -(n/2) log det Sigma + log of the group-averaged exp(-trace(H^T L H
    Sigma^-1)/2).  At diagonal Sigma = diag(lam) this is the profile
    objective of ``estimators.frame_posterior_step``, whose sup over lam the
    eigen-LRT takes.

    The covariance-free factors (normalizing constant, eigenvalue powers,
    Vandermonde spread) are omitted: they cancel in every likelihood ratio
    this kernel feeds, so the value is not a normalized density.
    """
    eigs = _separated(sample_eigs)
    Sigma = as_spd(Sigma)
    if not ensemble.dim == Sigma.dim == eigs.size:
        raise DimensionMismatch(f"ensemble dim {ensemble.dim}, Sigma dim {Sigma.dim}, {eigs.size} eigenvalues")
    # With Sigma = G diag(lam) G^T, trace(H^T L H Sigma^-1) is
    # sum_i diag_i((H G)^T L (H G)) / lam_i: the profile objective at lam
    # over the nodes rotated into Sigma's eigenframe (same weights).  The
    # exact integral is Haar-invariant, so G drops out of it.
    lam, G = np.linalg.eigh(Sigma.matrix)
    D = eigs[None, :]
    if ensemble.kind != EXACT_O2:
        D = (D @ _squared_layout(ensemble.matrices @ G)).reshape(1, ensemble.dim, ensemble.size)
    objective, _ = frame_posterior_step(D, np.log(lam)[None, :], n, ensemble)
    return float(objective[0])


def _separated(sample_eigs) -> np.ndarray:
    """The sample eigenvalues as floats; ValueError unless they pass the gap
    policy of ``spd_manifold.separated_rows``."""
    eigs = np.asarray(sample_eigs, dtype=float)
    if not separated_rows(eigs[None, :])[0]:
        raise ValueError(
            f"sample eigenvalues must be positive and descending with relative gaps of at least "
            f"{GAP_TOLERANCE_REL:g}, got {eigs}"
        )
    return eigs


def eigen_lrt_stat(sample_eigs, n: int, ensemble: OrthogonalEnsemble | ExactO2) -> TestStatistic:
    """Log likelihood-ratio statistic of the eigenvalue-only test.

    Numerator: the null log density kernel, -sum(l)/2.  Denominator: the
    profile supremum over population eigenvalues of the alternative kernel.
    The maximizer starts from the mean of l/n, which scores at least as
    high as the null point, so the statistic is never positive.
    """
    eigs = _separated(sample_eigs)
    value = _eigen_lrt_batch(eigs[None, :], n, ensemble)[0]
    return TestStatistic(float(value), EIGEN_LRT, n, eigs.size)


def _eigen_lrt_batch(eig_rows: np.ndarray, n: int, ensemble: OrthogonalEnsemble | ExactO2) -> np.ndarray:
    numerator = -0.5 * eig_rows.sum(axis=1)
    sup, _ = _profile_sup(eig_rows, n, ensemble)
    return numerator - sup


def _profile_sup(eig_rows: np.ndarray, n: int, ensemble: OrthogonalEnsemble | ExactO2):
    """Batched sup over population eigenvalues of the profile objective
    -(n/2) sum(log lam) + log group-average exp(-diag-quadratic/2).

    Returns the sup and its log-eigenvalue argmax per row.  Each start runs
    SQUAREM-accelerated EM to a gradient certificate; the best end point per
    row wins (the first start among equals).  A quadrature starts from every
    ordering of l/n (it is only nearly symmetric under permuting lam, and
    its modes reach different heights), the mean, their midpoint in log
    space, and the null point.  ``ExactO2`` needs only l/n and the mean: it
    is symmetric in lam, one EM step takes the null point to the mean
    (which scores higher), and on the trace line lam = m (1 +/- t) the EM
    map is increasing in t, so EM from l/n climbs to the largest fixed point.

    When a row's starts span at least ROW_BATCH_TERMS log-weight terms
    (starts x nodes), they run one row at a time as the rows of one
    ``_squarem`` call against that row's shared (1, p, K) diagonal, and only
    one row's diagonal is held.  Otherwise (``ExactO2``, small grids) each
    start runs over all rows at once.
    """
    reps, p = eig_rows.shape
    log_l = np.log(eig_rows / n)
    mean_log = np.log(eig_rows.mean(axis=1) / n)[:, None]
    if ensemble.kind == EXACT_O2:
        starts = [log_l, np.repeat(mean_log, p, axis=1)]
    else:
        starts = [log_l[:, list(order)] for order in itertools.permutations(range(p))]
        starts += [np.repeat(mean_log, p, axis=1), 0.5 * (log_l + mean_log), np.zeros((reps, p))]
    # Every EM image is a posterior mean of convex combinations of l/n, so
    # the image, and with it the sup, lies in this box.
    lo, hi = log_l.min(axis=1, keepdims=True), log_l.max(axis=1, keepdims=True)
    best = np.full(reps, -np.inf)
    start_best = np.full(reps, -np.inf)
    argmax = np.zeros((reps, p))
    if len(starts) * ensemble.size < ROW_BATCH_TERMS:
        D = projected_diagonals(eig_rows, ensemble)
        for x in starts:
            f, update = frame_posterior_step(D, x, n, ensemble)
            start_best = np.maximum(start_best, f)
            x, f = _squarem(D, x, f, update, n, ensemble, lo, hi)
            better = f > best
            best[better] = f[better]
            argmax[better] = x[better]
    else:
        starts = np.stack(starts, axis=1)
        for r in range(reps):
            D = projected_diagonals(eig_rows[r : r + 1], ensemble)
            f, update = frame_posterior_step(D, starts[r], n, ensemble)
            start_best[r] = f.max()
            x, f = _squarem(D, starts[r], f, update, n, ensemble, lo[r : r + 1], hi[r : r + 1])
            j = np.argmax(f)
            best[r], argmax[r] = f[j], x[j]
    if not np.all(np.isfinite(best)) or np.any(best < start_best - 1e-12):
        raise OptimizerFailure("profile maximization lost ground on its starts")
    return best, argmax


def _squarem(D, x, f, update, n, ensemble, lo, hi):
    """SQUAREM-accelerated EM in log-eigenvalue space from ``x``, where the
    objective is ``f`` and the EM map gives ``update``.

    ``D`` and the box [lo, hi] have one row per row of ``x``, or a single
    row shared by all of them (see ``frame_posterior_step``).  Each cycle
    takes two EM steps and extrapolates along them (step length at least
    the plain double step, clipped to the box); the extrapolated point is
    kept only where the objective did not drop, otherwise the double EM
    step is, so the ascent is monotone.  A row stops once its log-space
    gradient (n/2) max|update/lam - 1| is at most GRAD_TOL; converged rows
    leave the working set, and a per-row ``D`` and box are compacted with
    them only then.
    """
    x, f, update = x.copy(), f.copy(), update.copy()
    shared = D.shape[0] == 1
    active = np.arange(x.shape[0])
    for cycle in range(MAX_CYCLES + 1):
        grad = 0.5 * n * np.abs(update[active] * np.exp(-x[active]) - 1.0).max(axis=1)
        still = grad > GRAD_TOL
        if not still.all():
            active = active[still]
            if not shared:
                D, lo, hi = D[still], lo[still], hi[still]
        if active.size == 0:
            return x, f
        if cycle == MAX_CYCLES:
            break
        x0 = x[active]
        x1 = np.log(update[active])
        _, update1 = frame_posterior_step(D, x1, n, ensemble)
        x2 = np.log(update1)
        f2, update2 = frame_posterior_step(D, x2, n, ensemble)
        r = x1 - x0
        v = x2 - x1 - r
        step = np.sqrt((r * r).sum(axis=1) / np.maximum((v * v).sum(axis=1), np.finfo(float).tiny))
        step = np.maximum(step, 1.0)[:, None]
        xs = np.clip(x0 + 2.0 * step * r + step**2 * v, lo, hi)
        fs, updates = frame_posterior_step(D, xs, n, ensemble)
        keep = fs >= f[active]
        x[active] = np.where(keep[:, None], xs, x2)
        f[active] = np.where(keep, fs, f2)
        update[active] = np.where(keep[:, None], updates, update2)
    raise OptimizerFailure(
        f"profile maximization left {active.size} rows above the gradient "
        f"tolerance {GRAD_TOL:g} after {MAX_CYCLES} SQUAREM cycles"
    )


def calibrate(
    kind: str,
    alpha: float,
    p: int,
    n: int,
    reps: int,
    seed: int,
    ensemble: OrthogonalEnsemble | ExactO2 | None = None,
) -> CriticalValue:
    """Empirical lower-tail critical value under the null (unit covariance).

    The threshold is the order statistic at index floor(alpha * reps) of the
    simulated null statistics, so the calibration sample itself rejects with
    frequency exactly floor(alpha * reps) / reps.
    """
    _check_calibration(alpha, reps)
    if kind not in (FULL_LRT, EIGEN_LRT):
        raise ValueError(f"unknown test kind {kind!r}")
    ensemble = _test_ensemble(kind, ensemble, p, seed)
    return _calibrate(kind, alpha, n, seed, ensemble, white_batch(p, n, reps, seed, "h0-calibration"))


def _check_calibration(alpha: float, reps: int) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if reps < 1000:
        raise ValueError(f"calibration needs reps >= 1000, got {reps}")


def _calibrate(kind, alpha, n, seed, ensemble, W) -> CriticalValue:
    """``calibrate`` on the null white Grams W, already drawn and checked."""
    reps, p = W.shape[:2]
    order = np.sort(_stat_batch(kind, color_batch(W, np.eye(p)), n, ensemble, seed))
    threshold = float(order[int(np.floor(alpha * reps))])
    return CriticalValue(alpha, threshold, reps, seed, kind)


def _test_ensemble(kind, ensemble, p, seed):
    """The eigen-LRT's integral (default ``default_ensemble(p)``), checked before any draw."""
    if kind != EIGEN_LRT:
        return None
    if ensemble is None:
        ensemble = default_ensemble(p, seed)
    if ensemble.dim != p:
        raise DimensionMismatch(f"ensemble dim {ensemble.dim} does not match p = {p}")
    return ensemble


def _stat_batch(kind, S_batch, n, ensemble, seed) -> np.ndarray:
    if kind == FULL_LRT:
        return _full_lrt_batch(S_batch, n)
    if ensemble is None:
        ensemble = default_ensemble(S_batch.shape[1], seed)
    eig_rows = descending_eigenvalues(S_batch)
    return _eigen_lrt_batch(eig_rows, n, ensemble)


@dataclass(frozen=True)
class PowerPoint:
    """Monte-Carlo rejection rate at one alternative."""

    alternative: np.ndarray
    power: float
    stderr: float
    reps: int


def power_curve(
    kind: str,
    alternatives,
    cv: CriticalValue,
    n: int,
    reps: int,
    seed: int,
    ensemble: OrthogonalEnsemble | ExactO2 | None = None,
) -> list[PowerPoint]:
    """Rejection frequency of the calibrated test at each alternative
    covariance, with binomial standard errors.

    All alternatives share replication substreams (common random numbers),
    so differences along the curve are paired comparisons.
    """
    if kind != cv.kind:
        raise ValueError(f"critical value is for {cv.kind!r}, not {kind!r}")
    mats = [as_spd(S).matrix for S in alternatives]
    if not mats:
        return []
    p = mats[0].shape[0]
    ensemble = _test_ensemble(kind, ensemble, p, seed)
    return _power_curve(kind, mats, cv, n, seed, ensemble, white_batch(p, n, reps, seed, "power"))


def _power_curve(kind, mats, cv, n, seed, ensemble, W) -> list[PowerPoint]:
    """``power_curve`` on the shared white Grams W, recoloured per alternative."""
    reps = W.shape[0]

    def at(i: int) -> PowerPoint:
        S_batch = color_batch(W, mats[i])
        stats = _stat_batch(kind, S_batch, n, ensemble, seed)
        rate = float(np.mean(stats < cv.threshold))
        stderr = float(np.sqrt(rate * (1.0 - rate) / reps))
        return PowerPoint(mats[i], rate, stderr, reps)

    return parallel_points(at, len(mats))


def figure3_thetas(count: int = 51) -> np.ndarray:
    """Alternative directions pi/4 - (j-1) pi/50 for j = 1..51, optionally
    thinned to ``count`` evenly spaced entries (count must divide into 50)."""
    full = np.pi / 4.0 - np.arange(51) * (np.pi / 50.0)
    if count == 51:
        return full
    if count < 2 or (51 - 1) % (count - 1) != 0:
        raise ValueError(f"cannot thin 51 angles to {count} evenly")
    step = 50 // (count - 1)
    return full[::step]


def figure3_alternative(theta: float) -> np.ndarray:
    """Alternative covariance diag((1,1) + (cos theta, sin theta)/sqrt(2))."""
    lam = 1.0 + np.array([np.cos(theta), np.sin(theta)]) / np.sqrt(2.0)
    return np.diag(lam)


@dataclass(frozen=True)
class PowerStudy:
    """Paired power curves of the full-data and eigenvalue-only tests."""

    thetas: np.ndarray
    alternatives: np.ndarray
    power_full: np.ndarray
    stderr_full: np.ndarray
    power_eigen: np.ndarray
    stderr_eigen: np.ndarray
    cv_full: CriticalValue
    cv_eigen: CriticalValue
    size_full: float
    size_full_stderr: float
    size_eigen: float
    size_eigen_stderr: float
    n: int
    reps: int
    alpha: float


def figure3_experiment(
    reps: int = 10_000,
    seed: int = 0,
    alpha: float = 0.05,
    n: int = 10,
    theta_count: int = 51,
    ensemble: OrthogonalEnsemble | ExactO2 | None = None,
) -> PowerStudy:
    """Power comparison of the two tests along the alternative fan, both
    tests evaluated on the same draws at every angle.

    Sizes are re-estimated at the null on a stream distinct from the
    calibration stream, so the reported sizes are honest out-of-sample
    rejection rates.
    """
    p = 2
    _check_calibration(alpha, reps)
    ensemble = _test_ensemble(EIGEN_LRT, ensemble, p, seed)
    thetas = figure3_thetas(theta_count)
    fan = [figure3_alternative(theta) for theta in thetas]
    # Each stream is drawn once and shared by both tests.
    S_null = sample_batch(np.eye(p), n, reps, seed, "size-check")
    W_null = white_batch(p, n, reps, seed, "h0-calibration")
    W_alt = white_batch(p, n, reps, seed, "power")

    def paired(kind, ens):
        cv = _calibrate(kind, alpha, n, seed, ens, W_null)
        points = _power_curve(kind, fan, cv, n, seed, ens, W_alt)
        size = float(np.mean(_stat_batch(kind, S_null, n, ens, seed) < cv.threshold))
        return cv, np.array([pt.power for pt in points]), size

    cv_full, power_full, size_full = paired(FULL_LRT, None)
    cv_eigen, power_eigen, size_eigen = paired(EIGEN_LRT, ensemble)

    def se(rate):
        return np.sqrt(rate * (1.0 - rate) / reps)

    return PowerStudy(
        thetas=thetas,
        alternatives=np.array([np.diag(S) for S in fan]),
        power_full=power_full,
        stderr_full=se(power_full),
        power_eigen=power_eigen,
        stderr_eigen=se(power_eigen),
        cv_full=cv_full,
        cv_eigen=cv_eigen,
        size_full=size_full,
        size_full_stderr=float(se(size_full)),
        size_eigen=size_eigen,
        size_eigen_stderr=float(se(size_eigen)),
        n=n,
        reps=reps,
        alpha=alpha,
    )
