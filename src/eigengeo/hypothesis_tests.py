"""Likelihood-ratio tests of a unit covariance, with and without the frame.

Two tests of the null "covariance equals the identity", from the full
product-sum matrix and from its eigenvalues l alone.  Both are orthogonally
invariant: each statistic is -sum(l)/2 minus a supremum (``_lrt_batch``).
The full-data one, over Sigma, is -(n/2) sum(log(l/n) + 1) at Sigma = S/n.
The eigenvalue test's is over population eigenvalues with the frame
integrated out, exactly at p = 2 and by a Haar quadrature above
(``estimators.default_ensemble``).  Treating the frame as missing data makes
that maximization an EM iteration, lam <- E_post[diag(H^T L H)] / n (the
integral's ``step`` on its ``diagonals``; see ``estimators``).  Its flag
``symmetric`` selects a root on the trace line or EM from a few starts,
accelerated by SQUAREM (Varadhan and Roland, Scand. J. Stat. 2008); each
maximum carries a gradient certificate or raises ``OptimizerFailure``.

Critical values are calibrated by Monte-Carlo under the null (no
asymptotic approximations), and powers come from fresh replication
substreams, shared across alternatives and across the two tests so that
power comparisons are paired; ``figure3_experiment`` decomposes each draw
once for both tests.  Power studies stack consecutive streams up to
STREAM_BLOCK_ROWS rows per ``_lrt_batch`` call, which never moves a bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, OptimizerFailure
from .estimators import ExactO2, OrthogonalEnsemble, _check_dim, default_ensemble
from .spd_manifold import _frozen, as_spd, check_eigenvalue_gaps, check_sample_size, descending_eigenvalues
from .wishart_sim import DRAW_CHUNK, color_batch, parallel_points, white_batch

FULL_LRT = "full-lrt"
EIGEN_LRT = "eigen-lrt"

# Profile maximizer policy: SQUAREM-accelerated EM in log-eigenvalue space,
# stopping a row once its log-space gradient is at most GRAD_TOL (budget
# MAX_CYCLES SQUAREM cycles of three posterior steps each).
GRAD_TOL = 1e-8
MAX_CYCLES = 500
# Row-at-a-time start batches pay once a row's starts x nodes reach this
# many log-weight terms; below it per-call overhead dominates and each start
# runs over DRAW_CHUNK rows at once.  Measured on a 2-core Xeon, one thread:
# at 100 nodes (p = 2) one row at a time is 13x slower; at p = 3 and 4096
# nodes it is 1.5x faster.
ROW_BATCH_TERMS = 1 << 13
# Power studies score consecutive whole streams stacked up to this many rows
# per ``_lrt_batch`` call.  The p = 2 trace-line root pays a cost per
# iteration that hardly grows with its row count, and after its first few
# iterations only rows near the knee are left.  Measured on a 2-core Xeon, one thread, fig3
# streams at n = 10, separate calls against one stacked call: 5 x 1000 rows
# 20.4 -> 10.6 ms, 16 x 1000 64.9 -> 30.8 ms, 2 x 8000 23.8 -> 22.6 ms, but
# 13 x 10 000 200 -> 220 ms, so a stream of more than half of this is alone.
STREAM_BLOCK_ROWS = 1 << 14


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

    def rejects(self, stat):
        """stat < threshold, for a TestStatistic, a value or (elementwise) an array of values."""
        return (stat.value if isinstance(stat, TestStatistic) else stat) < self.threshold


def full_lrt_stat(S, n: int) -> TestStatistic:
    """Log likelihood-ratio statistic of the full-data test, from S's eigenvalues:
    (pn/2)(1 - log n) - trace(S)/2 + (n/2) log det S.

    Zero when S = n I; invariant under orthogonal conjugation of S.
    """
    S = as_spd(S)
    check_sample_size(n, S.dim)
    value = _lrt_batch(FULL_LRT, S.eigenvalues[None, :], n, None)[0]
    return TestStatistic(float(value), FULL_LRT, n, S.dim)


def _lrt_batch(kind, eig_rows: np.ndarray, n: int, ensemble) -> np.ndarray:
    """Statistics of one kind on descending spectra: -sum(l)/2 minus the
    supremum, in closed form for the full-data test, ``_profile_sup`` over
    the eigen-LRT's ``ensemble`` (from ``_test_ensemble``) for the other."""
    if kind == FULL_LRT:
        sup = -0.5 * n * (np.log(eig_rows / n) + 1.0).sum(axis=1)
    else:
        sup, _ = _profile_sup(eig_rows, n, ensemble)
    return -0.5 * eig_rows.sum(axis=1) - sup


def eigen_log_density_kernel(sample_eigs, Sigma, n: int, ensemble: OrthogonalEnsemble | ExactO2) -> float:
    """Covariance-dependent part of the sample-eigenvalue log density:
    -(n/2) log det Sigma + log of the group-averaged exp(-trace(H^T L H
    Sigma^-1)/2).  The average is over the frame's Haar measure, so it is
    the profile objective of ``ensemble.step`` at Sigma's eigenvalues
    (descending), whose sup over them the eigen-LRT takes.

    The covariance-free factors (normalizing constant, eigenvalue powers,
    Vandermonde spread) are omitted: they cancel in every likelihood ratio
    this kernel feeds, so the value is not a normalized density.
    """
    eigs = check_eigenvalue_gaps(sample_eigs, "eigen_log_density_kernel")
    check_sample_size(n, eigs.size)
    Sigma = as_spd(Sigma)
    if Sigma.dim != eigs.size:
        raise DimensionMismatch(f"Sigma dim {Sigma.dim} does not match {eigs.size} eigenvalues")
    # With Sigma = G diag(lam) G^T, trace(H^T L H Sigma^-1) is
    # sum_i diag_i((H G)^T L (H G)) / lam_i, and H G is Haar whenever H is:
    # the profile objective at Sigma's eigenvalues.
    objective, _ = ensemble.step(ensemble.diagonals(eigs[None, :]), np.log(Sigma.eigenvalues)[None, None, :], n)
    return float(objective[0, 0])


def eigen_lrt_stat(sample_eigs, n: int, ensemble: OrthogonalEnsemble | ExactO2) -> TestStatistic:
    """Log likelihood-ratio statistic of the eigenvalue-only test.

    Numerator: the null log density kernel, -sum(l)/2.  Denominator: the
    profile supremum over population eigenvalues of the alternative kernel.
    The maximizer starts from the mean of l/n, which scores at least as
    high as the null point, so the statistic is never positive.
    """
    eigs = check_eigenvalue_gaps(sample_eigs, "eigen_lrt_stat")
    check_sample_size(n, eigs.size)
    value = _lrt_batch(EIGEN_LRT, eigs[None, :], n, ensemble)[0]
    return TestStatistic(float(value), EIGEN_LRT, n, eigs.size)


def _profile_sup(eig_rows: np.ndarray, n: int, ensemble: OrthogonalEnsemble | ExactO2):
    """Batched sup over population eigenvalues of the profile objective
    -(n/2) sum(log lam) + log group-average exp(-diag-quadratic/2).

    Returns the sup and its log-eigenvalue argmax per row: the best
    certified candidate (the first among equals).  The ``symmetric`` flag
    selects the search: the mean against the root ``_trace_line_root`` finds
    (``ExactO2``), or, for a quadrature (only nearly symmetric, its modes
    reaching different heights), SQUAREM-accelerated EM from every ordering
    of l/n, the mean, their midpoint in log space, and the null point.

    The quadrature search is one loop over blocks of the (rows, starts)
    grid, each one ``_squarem`` call: one row with all its starts once they
    span ROW_BATCH_TERMS log-weight terms (starts x nodes), else DRAW_CHUNK
    rows per start.  One block's diagonals are held at a time, and since
    ``step`` computes each row alone, the blocks do not change a row's bits.
    """
    reps, p = eig_rows.shape
    log_l = np.log(eig_rows / n)
    mean_log = np.log(eig_rows.mean(axis=1) / n)[:, None]
    mean = np.repeat(mean_log, p, axis=1)
    if ensemble.symmetric:
        D = ensemble.diagonals(eig_rows)
        f, update = ensemble.step(D, np.stack([mean, log_l], axis=1), n)
        f_mean, f, update = f[:, 0], f[:, 1], update[:, 1]
        start_best, (x, f) = np.maximum(f, f_mean), _trace_line_root(D, log_l, f, update, n, ensemble)
        best, argmax = np.where(f_mean > f, f_mean, f), np.where((f_mean > f)[:, None], mean, x)
    else:
        extra = np.stack([mean, 0.5 * (log_l + mean_log), np.zeros((reps, p))], axis=1)
        starts = np.concatenate([log_l[:, list(itertools.permutations(range(p)))], extra], axis=1)
        # Every EM image is a posterior mean of convex combinations of l/n, so
        # the image, and with it the sup, lies in this box.
        lo, hi = log_l.min(axis=1)[:, None, None], log_l.max(axis=1)[:, None, None]
        best, start_best, argmax = np.full(reps, -np.inf), np.full(reps, -np.inf), np.zeros((reps, p))
        count = starts.shape[1]
        block, group = (1, count) if count * ensemble.size >= ROW_BATCH_TERMS else (DRAW_CHUNK, 1)
        for r0 in range(0, reps, block):
            rows = slice(r0, r0 + block)
            D = ensemble.diagonals(eig_rows[rows])
            # Views: updating them updates the whole-batch arrays.
            block_start, block_best, block_argmax = start_best[rows], best[rows], argmax[rows]
            for s0 in range(0, count, group):
                f, update = ensemble.step(D, starts[rows, s0 : s0 + group], n)
                np.maximum(block_start, f.max(axis=1), out=block_start)
                x, f = _squarem(D, starts[rows, s0 : s0 + group], f, update, n, ensemble, lo[rows], hi[rows])
                j = (np.arange(f.shape[0]), f.argmax(axis=1))
                better = f[j] > block_best
                block_best[better], block_argmax[better] = f[j][better], x[j][better]
    if not np.all(np.isfinite(best)) or np.any(best < start_best - 1e-12):
        raise OptimizerFailure("profile maximization lost ground on its starts")
    return best, argmax


def _trace_line_root(D, x, f, update, n, ensemble):
    """Per row the largest fixed point t* of EM from l/n = exp(``x``)
    (objective ``f``, EM map ``update``) for a ``symmetric`` integral: the
    last iterate, which the mean outscores where t* = 0 shows.

    On the trace line lam = m (1 + t, 1 - t) EM maps t to T(t) = (u_1 - u_2)
    / (u_1 + u_2), increasing and below t at l/n.  Secant steps from l/n
    stay in a bracket (EM images of iterates right of t*, iterates with
    T(t) > t), else bisect it or, with no lower bound, take the EM step.
    Checked numerically for n >= 2, T(t) > t on one interval ending at t*
    (away from 0 below the knee sqrt(2/n) at n = 2, 3), and T is concave on
    [t*, 1) if t* > 0: secant steps from the right stay right of t*, and one
    to t <= 0 shows t* = 0.  Rows stop at two successive iterates certified
    to GRAD_TOL or fail after 3 * MAX_CYCLES steps, as SQUAREM does.
    """
    # Iterates are w = 1 - t = lam_2 / m (precise at a tiny lam_2); w* is in [lo, hi).
    log_m, w = np.log(0.5 * (update[:, 0] + update[:, 1])), 2.0 / (1.0 + np.exp(x[:, 0] - x[:, 1]))
    lo, hi = 2.0 * update[:, 1] / (update[:, 0] + update[:, 1]), np.ones_like(w)
    g, ok = w - lo, _certified(update, x, n)  # g = T(t) - t
    x, f, active, w_prev, g_prev, ok_prev = x.copy(), f.copy(), np.arange(w.size), np.nan, np.nan, False
    for step in range(3 * MAX_CYCLES + 1):
        s = w - np.divide(g * (w - w_prev), g - g_prev, out=np.full_like(w, np.nan), where=g != g_prev)
        keep = np.flatnonzero(~(ok & ok_prev) & ((hi < 1.0) | ~(s >= 1.0)))
        active, D, log_m, w, g, s, lo, hi, ok = (v[keep] for v in (active, D, log_m, w, g, s, lo, hi, ok))
        if active.size == 0 or step == 3 * MAX_CYCLES:
            break
        w_prev, g_prev, ok_prev = w, g, ok
        w = np.where((s > lo) & (s < hi), s, np.where(hi < 1.0, 0.5 * (lo + hi), lo))
        xs = log_m[:, None] + np.log(np.stack([2.0 - w, w], axis=1))
        fs, us = (v[:, 0] for v in ensemble.step(D, xs[:, None], n))
        image = 2.0 * us[:, 1] / (us[:, 0] + us[:, 1])
        g, ok = w - image, _certified(us, xs, n)
        x[active], f[active] = xs, fs
        lo, hi = np.where(g < 0.0, image, lo), np.where(g < 0.0, hi, w)
    if active.size:
        raise OptimizerFailure(f"trace line left {active.size} rows above the gradient tolerance {GRAD_TOL:g}")
    return x, f


def _certified(update, x, n):
    """The certificate of a profile maximum at log-eigenvalues x, EM map ``update``:
    its log-space gradient (n/2) max|update/lam - 1| (last axis) is <= GRAD_TOL."""
    return 0.5 * n * np.abs(update * np.exp(-x) - 1.0).max(axis=-1) <= GRAD_TOL


def _squarem(D, x, f, update, n, ensemble, lo, hi):
    """SQUAREM-accelerated EM in log-eigenvalue space from the points ``x``
    (rows, starts, p), where the objective is ``f`` and the EM map gives
    ``update``; ``D`` and the box [lo, hi] have one entry per row.

    Each cycle takes two EM steps and extrapolates along them (step length
    at least the plain double step, clipped to the box); the extrapolated
    point is kept only where the objective did not drop, otherwise the
    double EM step is, so the ascent is monotone.  A row or start column
    ``_certified`` throughout leaves the grid, so on a grid of one row or one
    start each point stops once certified.
    """
    x_out, f_out = np.empty_like(x), np.empty_like(f)
    rows, cols = np.arange(f.shape[0])[:, None], np.arange(f.shape[1])
    for cycle in range(MAX_CYCLES + 1):
        still = ~_certified(update, x, n)
        keep_rows, keep_cols = still.any(axis=1), still.any(axis=0)
        if not keep_rows.all():  # no copy of D while only starts leave
            x_out[rows[~keep_rows], cols], f_out[rows[~keep_rows], cols] = x[~keep_rows], f[~keep_rows]
            x, f, update, D, lo, hi, rows = (v[keep_rows] for v in (x, f, update, D, lo, hi, rows))
        if not keep_cols.all():
            x_out[rows, cols[~keep_cols]], f_out[rows, cols[~keep_cols]] = x[:, ~keep_cols], f[:, ~keep_cols]
            x, f, update, cols = x[:, keep_cols], f[:, keep_cols], update[:, keep_cols], cols[keep_cols]
        if f.size == 0:
            return x_out, f_out
        if cycle == MAX_CYCLES:
            break
        x1 = np.log(update)
        x2 = np.log(ensemble.step(D, x1, n)[1])
        f2, update2 = ensemble.step(D, x2, n)
        r = x1 - x
        v = x2 - x1 - r
        step = np.sqrt((r * r).sum(axis=2) / np.maximum((v * v).sum(axis=2), np.finfo(float).tiny))
        step = np.maximum(step, 1.0)[:, :, None]
        xs = np.clip(x + 2.0 * step * r + step**2 * v, lo, hi)
        fs, updates = ensemble.step(D, xs, n)
        keep = fs >= f
        x = np.where(keep[:, :, None], xs, x2)
        f = np.where(keep, fs, f2)
        update = np.where(keep[:, :, None], updates, update2)
    raise OptimizerFailure(
        f"profile maximization left {np.count_nonzero(still)} points above the gradient "
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
    simulated null statistics (alpha read as the decimal it prints as), so
    the calibration sample itself rejects with frequency exactly
    floor(alpha * reps) / reps.
    """
    _check_calibration(alpha, reps)
    if kind not in (FULL_LRT, EIGEN_LRT):
        raise ValueError(f"unknown test kind {kind!r}")
    ensemble = _test_ensemble(kind, ensemble, p, seed)
    eigs = descending_eigenvalues(color_batch(white_batch(p, n, reps, seed, "h0-calibration"), np.eye(p)))
    return _critical_value(kind, alpha, seed, _lrt_batch(kind, eigs, n, ensemble))


def _check_calibration(alpha: float, reps: int) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if reps < 1000:
        raise ValueError(f"calibration needs reps >= 1000, got {reps}")


def _critical_value(kind, alpha, seed, stats) -> CriticalValue:
    """``calibrate``'s threshold from the null statistics ``stats``.  The
    index floor(alpha * reps) is taken on alpha's shortest decimal, exactly:
    in binary floating point 0.043 * 5000 is 214.99999999999997."""
    index = math.floor(Fraction(repr(float(alpha))) * stats.size)
    return CriticalValue(alpha, float(np.sort(stats)[index]), stats.size, seed, kind)


def _test_ensemble(kind, ensemble, p, seed):
    """The eigen-LRT's integral (default ``default_ensemble(p)``), checked before any draw."""
    if kind != EIGEN_LRT:
        return None
    if ensemble is None:
        ensemble = default_ensemble(p, seed)
    _check_dim(ensemble, p)
    return ensemble


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
    so differences along the curve are paired comparisons.  Each
    alternative's draws are coloured and decomposed once; consecutive
    alternatives are scored in groups of at most STREAM_BLOCK_ROWS rows,
    one ``_lrt_batch`` call per group (an alternative of more than half of
    them alone), and the groups run on ``parallel_points``.  A row's
    statistic does not depend on its group, so the grouping and the thread
    count never change a result.
    """
    if kind != cv.kind:
        raise ValueError(f"critical value is for {cv.kind!r}, not {kind!r}")
    mats = [as_spd(S) for S in alternatives]
    if not mats:
        return []
    p = mats[0].dim
    odd = next((i for i, m in enumerate(mats) if m.dim != p), None)
    if odd is not None:
        raise DimensionMismatch(f"alternative {odd} dim {mats[odd].dim} does not match p = {p} of alternative 0")
    ensemble = _test_ensemble(kind, ensemble, p, seed)
    W = white_batch(p, n, reps, seed, "power")
    groups = _stream_groups(len(mats), reps)

    def at(g: int) -> list[PowerPoint]:
        spectra = [descending_eigenvalues(color_batch(W, mats[i])) for i in groups[g]]
        (stats,) = _stacked_stats(((kind, ensemble),), spectra, n)
        return [_power_point(mats[i].matrix, row, cv) for i, row in zip(groups[g], stats)]

    return [pt for points in parallel_points(at, len(groups)) for pt in points]


def _stream_groups(count: int, reps: int) -> list[range]:
    """Indices of ``count`` streams of ``reps`` rows, packed in order into
    groups of whole streams of at most STREAM_BLOCK_ROWS rows (one stream
    at least), so a stream of more than half of them forms a group alone."""
    size = max(1, STREAM_BLOCK_ROWS // reps)
    return [range(i, min(i + size, count)) for i in range(0, count, size)]


def _stacked_stats(tests, spectra, n: int) -> list[np.ndarray]:
    """Per (kind, ensemble) of ``tests``, one ``_lrt_batch`` call on the
    stacked ``spectra`` (equal row counts), split back: a (streams, reps)
    array.  Each row's bits are its own, whatever it is stacked with."""
    rows = spectra[0] if len(spectra) == 1 else np.concatenate(spectra)
    return [_lrt_batch(kind, rows, n, ens).reshape(len(spectra), -1) for kind, ens in tests]


def _power_point(alternative, stats, cv) -> PowerPoint:
    """Rejection rate of ``cv`` over the statistics drawn at ``alternative``."""
    rate = float(np.mean(cv.rejects(stats)))
    return PowerPoint(_frozen(alternative), rate, float(np.sqrt(rate * (1.0 - rate) / stats.size)), stats.size)


def figure3_thetas(count: int = 51) -> np.ndarray:
    """Alternative directions pi/4 - (j-1) pi/50 for j = 1..51, optionally
    thinned to ``count`` evenly spaced entries (count must divide into 50)."""
    full = np.pi / 4.0 - np.arange(51) * (np.pi / 50.0)
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

    Each stream (calibration, size check, then one per angle) is coloured
    and decomposed once, and consecutive whole streams are scored in groups
    of at most STREAM_BLOCK_ROWS rows: one ``_lrt_batch`` call per test and
    group, split back per stream.  The first group, which holds the
    calibration stream, sets both thresholds; the others run on
    ``parallel_points`` and each reduces its statistics to ``PowerPoint``s
    at once.  A stream of more than half the budget is a group alone, as
    every stream is at the default 10 000 reps.  A row's statistic does not
    depend on its group, so the grouping and the thread count never change
    a result.
    """
    p = 2
    _check_calibration(alpha, reps)
    ensemble = _test_ensemble(EIGEN_LRT, ensemble, p, seed)
    thetas = figure3_thetas(theta_count)
    identity = as_spd(np.eye(p))
    fan = [as_spd(figure3_alternative(theta)) for theta in thetas]
    tests = ((FULL_LRT, None), (EIGEN_LRT, ensemble))
    streams = [("h0-calibration", identity), ("size-check", identity)] + [("power", S) for S in fan]
    W_alt = white_batch(p, n, reps, seed, "power")

    def spectrum(name, Sigma):
        # The fan shares one draw; a null stream is drawn by the group that scores it.
        W = W_alt if name == "power" else white_batch(p, n, reps, seed, name)
        return descending_eigenvalues(color_batch(W, Sigma))

    def stats(group):
        # One spectrum per stream, scored by both tests.
        return _stacked_stats(tests, [spectrum(*streams[i]) for i in group], n)

    def points(group, group_stats):
        # Both tests' points per stream of the group, past the calibration stream.
        return [
            [_power_point(streams[i][1].matrix, rows[k], cv) for rows, cv in zip(group_stats, cvs)]
            for k, i in enumerate(group)
            if i > 0
        ]

    first, *rest = _stream_groups(len(streams), reps)
    first_stats = stats(first)
    cv_full, cv_eigen = cvs = [_critical_value(kind, alpha, seed, rows[0]) for (kind, _), rows in zip(tests, first_stats)]
    scored = points(first, first_stats)
    del first_stats
    for group_points in parallel_points(lambda g: points(rest[g], stats(rest[g])), len(rest)):
        scored += group_points
    (size_full, size_eigen), *fan_points = scored
    full, eigen = zip(*fan_points)
    return PowerStudy(
        thetas=_frozen(thetas),
        alternatives=_frozen([np.diag(S.matrix) for S in fan]),
        power_full=_frozen([pt.power for pt in full]),
        stderr_full=_frozen([pt.stderr for pt in full]),
        power_eigen=_frozen([pt.power for pt in eigen]),
        stderr_eigen=_frozen([pt.stderr for pt in eigen]),
        cv_full=cv_full,
        cv_eigen=cv_eigen,
        size_full=size_full.power,
        size_full_stderr=size_full.stderr,
        size_eigen=size_eigen.power,
        size_eigen_stderr=size_eigen.stderr,
        n=n,
        reps=reps,
        alpha=alpha,
    )
