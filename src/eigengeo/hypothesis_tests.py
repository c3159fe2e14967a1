"""Likelihood-ratio tests of a unit covariance, with and without the frame.

Two tests of the null "covariance equals the identity": the classical test
on the full product-sum matrix, and a test that sees only its eigenvalues.
The eigenvalue test needs the density of the sample eigenvalues, whose
frame integral is evaluated by quadrature over an orthogonal ensemble, and
a profile maximization over candidate population eigenvalues, done by a
cyclic golden-section coordinate search in log space.

Critical values are calibrated by Monte-Carlo under the null (no
asymptotic approximations), and powers come from fresh replication
substreams, shared across alternatives and across the two tests so that
power comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OptimizerFailure
from .estimators import OrthogonalEnsemble, haar_sample, o2_equidistant, relative_weights
from .spd_manifold import as_spd
from .wishart_sim import parallel_points, sample_batch

FULL_LRT = "full-lrt"
EIGEN_LRT = "eigen-lrt"

# Profile maximizer policy: cyclic golden-section sweeps in log-eigenvalue
# space, window +-2 per sweep, stop when a full sweep improves the objective
# by less than SWEEP_TOL everywhere (budget MAX_SWEEPS).
SWEEP_TOL = 1e-9
MAX_SWEEPS = 200
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_WINDOW = 2.0
_GOLDEN_ITERS = 32


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


def default_test_ensemble(p: int, seed: int = 0, o2_count: int = 100, haar_count: int = 8192) -> OrthogonalEnsemble:
    """Quadrature policy for the eigenvalue test: a 100-point equidistant
    grid for p = 2, a Haar Monte-Carlo sample for p >= 3."""
    if p == 2:
        return o2_equidistant(o2_count)
    return haar_sample(p, haar_count, seed)


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


def eigen_log_density_kernel(sample_eigs, Sigma, n: int, ensemble: OrthogonalEnsemble) -> float:
    """Covariance-dependent part of the sample-eigenvalue log density:
    -(n/2) log det Sigma + log of the group-averaged exp(-trace(H L H^T
    Sigma^-1)/2).

    The covariance-free factors (normalizing constant, eigenvalue powers,
    Vandermonde spread) are omitted: they cancel in every likelihood ratio
    this kernel feeds, so the value is not a normalized density.
    """
    eigs = np.asarray(sample_eigs, dtype=float)
    if np.any(eigs <= 0.0) or np.any(np.diff(eigs) >= 0.0):
        raise ValueError("sample eigenvalues must be positive and strictly descending")
    Sigma = as_spd(Sigma)
    prec = np.linalg.inv(Sigma.matrix)
    H = ensemble.matrices
    conj = np.einsum("kij,j,klj->kil", H, eigs, H)
    quad = 0.5 * np.einsum("kil,li->k", conj, prec)
    _, logdet = np.linalg.slogdet(Sigma.matrix)
    peak, _, total = relative_weights(np.log(ensemble.weights) - quad)
    return float(-0.5 * n * logdet + (peak + np.log(total)))


def eigen_lrt_stat(sample_eigs, n: int, ensemble: OrthogonalEnsemble) -> TestStatistic:
    """Log likelihood-ratio statistic of the eigenvalue-only test.

    Numerator: the null log density kernel, -sum(l)/2.  Denominator: the
    profile supremum over population eigenvalues of the alternative kernel.
    The null point is always among the maximizer's starts, so the statistic
    is never positive.
    """
    eigs = np.asarray(sample_eigs, dtype=float)
    if np.any(eigs <= 0.0) or np.any(np.diff(eigs) >= 0.0):
        raise ValueError("sample eigenvalues must be positive and strictly descending")
    value = _eigen_lrt_batch(eigs[None, :], n, ensemble)[0]
    return TestStatistic(float(value), EIGEN_LRT, n, eigs.size)


def _eigen_lrt_batch(eig_rows: np.ndarray, n: int, ensemble: OrthogonalEnsemble) -> np.ndarray:
    numerator = -0.5 * eig_rows.sum(axis=1)
    sup = _profile_sup(eig_rows, n, ensemble)
    return numerator - sup


def _profile_sup(eig_rows: np.ndarray, n: int, ensemble: OrthogonalEnsemble) -> np.ndarray:
    """Batched sup over population eigenvalues of the profile objective
    -(n/2) sum(log lam) + log group-average exp(-diag-quadratic/2).

    Multi-start cyclic coordinate maximization with golden-section line
    searches in log space; after two joint sweeps only the best start per
    row is refined (the objective is smooth and in practice unimodal, and
    monotone acceptance keeps every kept value at least as good as every
    evaluated start).
    """
    reps, p = eig_rows.shape
    # W[k, j, i] = H_k[j, i]^2; D[r, k, i] = diag_i(H_k L_r H_k^T).
    W = ensemble.matrices**2
    D = np.einsum("kji,rj->rki", W, eig_rows)
    logw = np.log(ensemble.weights)

    def make_objective(D_rows: np.ndarray):
        def objective(x: np.ndarray) -> np.ndarray:
            quad = np.einsum("rki,ri->rk", D_rows, 0.5 * np.exp(-x))
            peak, _, total = relative_weights(logw[None, :] - quad)
            return -0.5 * n * x.sum(axis=1) + (peak + np.log(total))

        return objective

    full_objective = make_objective(D)
    mean_log = np.log(eig_rows.mean(axis=1) / n)
    starts = [
        np.log(eig_rows / n),
        np.tile(mean_log[:, None], (1, p)),
        0.5 * (np.log(eig_rows / n) + mean_log[:, None]),
        np.zeros((reps, p)),
    ]
    states = []
    for x0 in starts:
        x = np.array(x0)
        f = full_objective(x)
        for _ in range(2):
            x, f = _coordinate_sweep(full_objective, x, f)
        states.append((x, f))
    f_starts = np.stack([f for _, f in states])
    x_starts = np.stack([x for x, _ in states])
    best = f_starts.argmax(axis=0)
    rows = np.arange(reps)
    x = x_starts[best, rows].copy()
    f = f_starts[best, rows].copy()

    start_best = f.copy()
    active = rows
    for _ in range(MAX_SWEEPS):
        objective = make_objective(D[active])
        x_new, f_new = _coordinate_sweep(objective, x[active], f[active])
        gain = f_new - f[active]
        x[active] = x_new
        f[active] = f_new
        active = active[gain > SWEEP_TOL]
        if active.size == 0:
            break
    if not np.all(np.isfinite(f)) or np.any(f < start_best - 1e-12):
        raise OptimizerFailure("profile maximization lost ground on its starts")
    return f


def _coordinate_sweep(objective, x: np.ndarray, f: np.ndarray):
    """One cyclic pass of golden-section maximization over each coordinate,
    keeping a move only where it improves the objective."""
    x = np.array(x)
    f = np.array(f)
    p = x.shape[1]
    for i in range(p):
        lo = x[:, i] - _WINDOW
        hi = x[:, i] + _WINDOW
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        fc = _eval_coord(objective, x, i, c)
        fd = _eval_coord(objective, x, i, d)
        for _ in range(_GOLDEN_ITERS):
            take_left = fc > fd
            hi = np.where(take_left, d, hi)
            lo = np.where(take_left, lo, c)
            fresh = np.where(
                take_left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
            )
            fval = _eval_coord(objective, x, i, fresh)
            c_old, fc_old = c, fc
            c = np.where(take_left, fresh, d)
            fc = np.where(take_left, fval, fd)
            d = np.where(take_left, c_old, fresh)
            fd = np.where(take_left, fc_old, fval)
        mid = 0.5 * (lo + hi)
        fmid = _eval_coord(objective, x, i, mid)
        improve = fmid > f
        x[improve, i] = mid[improve]
        f = np.where(improve, fmid, f)
    return x, f


def _eval_coord(objective, x: np.ndarray, i: int, values: np.ndarray) -> np.ndarray:
    trial = np.array(x)
    trial[:, i] = values
    return objective(trial)


def calibrate(
    kind: str,
    alpha: float,
    p: int,
    n: int,
    reps: int,
    seed: int,
    ensemble: OrthogonalEnsemble | None = None,
) -> CriticalValue:
    """Empirical lower-tail critical value under the null (unit covariance).

    The threshold is the order statistic at index floor(alpha * reps) of the
    simulated null statistics, so the calibration sample itself rejects with
    frequency exactly floor(alpha * reps) / reps.
    """
    if reps < 1000:
        raise ValueError(f"calibration needs reps >= 1000, got {reps}")
    if kind not in (FULL_LRT, EIGEN_LRT):
        raise ValueError(f"unknown test kind {kind!r}")
    S_batch = sample_batch(np.eye(p), n, reps, seed, "h0-calibration")
    order = np.sort(_stat_batch(kind, S_batch, n, ensemble, seed))
    threshold = float(order[int(np.floor(alpha * reps))])
    return CriticalValue(alpha, threshold, reps, seed, kind)


def _stat_batch(kind, S_batch, n, ensemble, seed) -> np.ndarray:
    if kind == FULL_LRT:
        return _full_lrt_batch(S_batch, n)
    if ensemble is None:
        ensemble = default_test_ensemble(S_batch.shape[1], seed)
    eig_rows = np.linalg.eigvalsh(S_batch)[:, ::-1]
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
    ensemble: OrthogonalEnsemble | None = None,
) -> list[PowerPoint]:
    """Rejection frequency of the calibrated test at each alternative
    covariance, with binomial standard errors.

    All alternatives share replication substreams (common random numbers),
    so differences along the curve are paired comparisons.
    """
    if kind != cv.kind:
        raise ValueError(f"critical value is for {cv.kind!r}, not {kind!r}")
    mats = [as_spd(S).matrix for S in alternatives]
    if kind == EIGEN_LRT and ensemble is None and mats:
        ensemble = default_test_ensemble(mats[0].shape[0], seed)

    def at(i: int) -> PowerPoint:
        S_batch = sample_batch(mats[i], n, reps, seed, "power")
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
    ensemble: OrthogonalEnsemble | None = None,
    paper_scale: bool = False,
) -> PowerStudy:
    """Power comparison of the two tests along the alternative fan, both
    tests evaluated on the same draws at every angle.

    Sizes are re-estimated at the null on a stream distinct from the
    calibration stream, so the reported sizes are honest out-of-sample
    rejection rates.
    """
    if paper_scale:
        reps, theta_count = 100_000, 51
    p = 2
    if ensemble is None:
        ensemble = default_test_ensemble(p, seed)
    thetas = figure3_thetas(theta_count)
    fan = [figure3_alternative(theta) for theta in thetas]
    S_null = sample_batch(np.eye(p), n, reps, seed, "size-check")

    def paired(kind, ens):
        cv = calibrate(kind, alpha, p, n, reps, seed, ens)
        points = power_curve(kind, fan, cv, n, reps, seed, ens)
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
