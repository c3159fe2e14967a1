"""Monte-Carlo harnesses: Wishart sampling, estimator risks, bias checks.

Sampling is reproducible by construction: every replication draws from its
own counter-based Philox substream keyed by (seed, stream name, replication
index), so serial runs, threaded runs, and re-runs all see identical
numbers.  The one thing drawn is the white Wishart Gram W_r = Z_r^T Z_r of
each replication's (n, p) standard-normal block (``white_batch``): the
blocks are drawn a chunk at a time into one reused buffer by re-keying one
Philox per stream, so only O(reps p^2) numbers are held, and their bits
equal ``replication_rng``'s.  A covariance Sigma = A A^T (A its Cholesky
factor) recolours a Gram by congruence, A W A^T (``color_batch``).  Grid
points of an experiment recolour the same white Grams, which acts as
common random numbers across the grid and sharpens the comparisons the
experiments exist to make.

The p = 2 risk grids work on entry columns: the white Grams' three
distinct entries (w00, w10, w11) are taken once per grid as read-only
length-reps arrays shared by the grid threads, and each point colours them
with ``_color_p2`` (the p = 2 closed form of A W A^T, which
``color_batch`` also stacks at p = 2), reads their eigenvalues once with
``spd_manifold._p2_eigenvalues`` (the closed form behind
``descending_eigenvalues`` at p = 2), hands the entry columns and that
spectrum to both estimator runners and scores the estimates with
``kl_loss_diag`` column by column: no (reps, 2, 2) stack, GEMM or
length-2 reduction per point, about 1.6 ms per point at 10^4 replications
(one thread, 2-core Xeon).  The columns form their products and sums
elementwise, so the p = 2 colouring no longer depends on whether the BLAS
GEMM kernel fuses multiply and add.

Risks are Kullback-Leibler losses of diagonal covariance estimates against
the diagonal matrix of population eigenvalues; estimate vectors from
``lbar``/``lambda_star`` are descending while frame-diagonal estimates stay
in frame order (they pair coordinate-wise with the population eigenvalues).
"""

from __future__ import annotations

import concurrent.futures
import functools
import operator
import os
import zlib
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, EigengeoError
from .estimators import (
    GAMMA_FRAME,
    LBAR,
    STAR,
    ExactO2,
    OrthogonalEnsemble,
    _check_dim,
    default_ensemble,
    lambda_star_from_eigs,
)
from .spd_manifold import (
    SpdMatrix,
    _frozen,
    _p2_eigenvalues,
    as_spd,
    check_sample_size,
    descending_eigenvalues,
    separated_rows,
)


def worker_count() -> int:
    """Worker cap for grid-level parallelism: EIGENGEO_THREADS if set (a
    positive integer, else ValueError), otherwise the number of cores."""
    env = os.environ.get("EIGENGEO_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"EIGENGEO_THREADS must be a positive integer, got {env!r}")
    return count


# Replications per chunk of white_batch's reused standard-normal buffer: it
# holds DRAW_CHUNK * n * p numbers (320 KiB at n = 10, p = 2), not reps * n * p.
DRAW_CHUNK = 2048


def _substreams(seed: int, stream: str):
    """``rekey(rep)`` for the replication substreams of one named stream.

    One Philox and one Generator serve every replication: ``rekey`` sets the
    full generator state (key [seed, crc32(stream) << 32 ^ rep], counter 0,
    empty buffer) and returns the same Generator, so draws equal those of a
    freshly built ``Philox(key=...)``.  The state dict and its key are built
    once and rewritten in place: the state setter copies them word by word,
    and reads Python ints faster than numpy scalars, so they are lists.
    A seed that would alias is refused: it must lie in [0, 2**64).  ``rep``
    must be a Python int in [0, 2**32), since a larger one would spill into
    the stream-name bits; callers check it (once per batch, not per rep).
    """
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    high = zlib.crc32(stream.encode()) << 32
    empty = [0, 0, 0, 0]
    key = [seed, high]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": empty, "key": key},
        "buffer": empty,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def rekey(rep: int) -> np.random.Generator:
        key[1] = high ^ rep
        bits.state = state
        return rng

    return rekey


def replication_rng(seed: int, stream: str, rep: int) -> np.random.Generator:
    """Generator for one replication of one named stream.

    Philox keyed by (seed, crc32(stream), rep): counter-based and splittable,
    so any replication can be regenerated in isolation and parallel runs are
    bitwise identical to serial ones.  Seed must lie in [0, 2**64) and rep
    in [0, 2**32) (ValueError otherwise).
    """
    # A numpy-integer rep would make the key's xor fixed-width.
    rep = operator.index(rep)
    if not 0 <= rep < 1 << 32:
        raise ValueError(f"replication index must be in [0, 2**32), got {rep}")
    return _substreams(seed, stream)(rep)


def sample_product_sum(Sigma, n: int, rng: np.random.Generator) -> SpdMatrix:
    """Sum of n outer products of independent zero-mean Gaussian draws with
    covariance Sigma: one replication of ``sample_batch``, drawn from ``rng``."""
    Sigma = as_spd(Sigma)
    check_sample_size(n, Sigma.dim)
    z = rng.standard_normal((1, n, Sigma.dim))
    return SpdMatrix(color_batch(z.swapaxes(1, 2) @ z, Sigma)[0])


def white_batch(p: int, n: int, reps: int, seed: int, stream: str) -> np.ndarray:
    """White Wishart Grams, one per replication substream of ``stream``:
    W[r] = Z_r^T Z_r for Z_r = ``replication_rng(seed, stream, r)
    .standard_normal((n, p))``, bit for bit.

    The blocks are drawn DRAW_CHUNK replications at a time into one reused
    buffer, so the (reps, n, p) normals never exist at once.  The result is
    read-only: experiments share it across grid-point threads.  The one
    check of the replication count: reps must lie in [1, 2**32].
    """
    check_sample_size(n, p)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if reps > 1 << 32:
        raise ValueError(f"replication index must be in [0, 2**32), got {reps - 1}")
    rekey = _substreams(seed, stream)
    W = np.empty((reps, p, p))
    z = np.empty((min(reps, DRAW_CHUNK), n, p))
    for start in range(0, reps, DRAW_CHUNK):
        block = z[: min(DRAW_CHUNK, reps - start)]
        for r, out in enumerate(block, start):
            rekey(r).standard_normal(out=out)
        np.matmul(block.swapaxes(1, 2), block, out=W[start : start + len(block)])
    W.setflags(write=False)
    return W


def color_batch(W: np.ndarray, Sigma) -> np.ndarray:
    """Product-sum matrices with covariance ``as_spd(Sigma)`` from white
    Grams: A W[r] A^T for the lower Cholesky factor A, factored once.

    At p = 2 this stacks ``_color_p2`` of the Grams' entry columns.  At
    p >= 3 both products are single (reps p, p) @ A^T GEMMs over the stacked
    rows, and the result is averaged with its transpose.  Either way it is
    exactly symmetric.  Each transposed stack is copied explicitly and freed
    before the next one is made, so at most two result-sized arrays are live.
    """
    A = np.linalg.cholesky(as_spd(Sigma).matrix)
    reps, p = W.shape[:2]
    if p == 2:
        cols = _color_p2(W[:, 0, 0], W[:, 1, 0], W[:, 1, 1], A)
        return cols[[0, 1, 1, 2]].T.reshape(reps, 2, 2)
    # W A^T for every replication at once; W is symmetric, so its transpose is A W.
    AW = np.ascontiguousarray((W.reshape(reps * p, p) @ A.T).reshape(reps, p, p).swapaxes(1, 2))
    S = (AW.reshape(reps * p, p) @ A.T).reshape(reps, p, p)
    del AW
    S += np.ascontiguousarray(S.swapaxes(1, 2))
    S *= 0.5
    return S


def _color_p2(w00: np.ndarray, w10: np.ndarray, w11: np.ndarray, A: np.ndarray) -> np.ndarray:
    """A W A^T at p = 2 on entry columns: from the entries (w00, w10, w11)
    of symmetric Grams W and the lower Cholesky factor A, the (3, reps)
    rows s00, s10, s11.  The products and sums are those of the GEMMs in
    their order (P = W A^T, S = P^T A^T, s10 the mean of S's off-diagonal
    pair), less the products by A's zero entry, which are exact zeros."""
    (a00, _), (a10, a11) = A.tolist()
    p00 = w00 * a00
    p01 = w00 * a10 + w10 * a11
    p10 = w10 * a00
    p11 = w10 * a10 + w11 * a11
    S = np.empty((3, w00.size))
    np.multiply(p00, a00, out=S[0])
    np.add(p01 * a00, p00 * a10 + p10 * a11, out=S[1])
    S[1] *= 0.5
    np.add(p01 * a10, p11 * a11, out=S[2])
    return S


def sample_batch(Sigma, n: int, reps: int, seed: int, stream: str) -> np.ndarray:
    """Stack of product-sum matrices of n draws with covariance ``as_spd(Sigma)``
    (checked before any draw), one per replication substream of ``stream``:
    the white Grams of ``white_batch`` recoloured by ``color_batch``.  Slice r
    equals ``sample_product_sum(Sigma, n, replication_rng(seed, stream, r))``."""
    Sigma = as_spd(Sigma)
    return color_batch(white_batch(Sigma.dim, n, reps, seed, stream), Sigma)


def kl_loss_diag(estimate: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """KL loss of diag(estimate) against diag(eigenvalues), rows batched.

    The ratios and their logs are summed column by column, left to right,
    which is what ``sum(axis=1)`` does below 8 columns (it sums longer rows
    pairwise), without its reduction along a short axis.  A column-major
    ``estimate`` (the transpose of the grid runners' entry columns) keeps
    every column contiguous.  A ratio beyond the float range makes its
    loss +inf (its sum of ratios is +inf), not inf - inf, and a ratio that
    underflows to 0 does too; NaN stays the mark of a refused row.
    """
    est = np.atleast_2d(np.asarray(estimate, dtype=float))
    lam = np.asarray(eigenvalues, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        ratio = est / lam
        total = functools.reduce(np.add, ratio.T)
        logs = functools.reduce(np.add, np.log(ratio).T)
    loss = np.subtract(total, logs, out=np.full_like(total, np.inf), where=total != np.inf) - lam.size
    return loss if np.asarray(estimate).ndim == 2 else loss[0]


@dataclass(frozen=True)
class RiskResult:
    """Monte-Carlo risk summary for one estimator at one grid point."""

    mean: float
    stderr: float
    reps: int
    failures: int


@dataclass(frozen=True)
class RiskReport:
    """Per-grid-point risks of two estimators, plus the paired difference of
    the first minus the second (same draws, so the difference is estimated
    far more precisely than the individual risks)."""

    experiment: str
    param_name: str
    param_values: np.ndarray
    methods: tuple[str, ...]
    risks: MappingProxyType  # tag -> tuple of RiskResult, one per grid value
    diff: tuple[RiskResult, ...]


# Grid runners: from the entry columns (s00, s10, s11) of the coloured
# Grams and their (2, reps) eigenvalue columns, one estimator's (2, reps)
# estimate columns.  A row the estimator refuses is NaN, so its loss is NaN
# and ``_summarize`` counts it as a failed replication.


def _batch_lbar(S: np.ndarray, eigs: np.ndarray, n: int) -> np.ndarray:
    return eigs / n


def _batch_identity_frame(S: np.ndarray, eigs: np.ndarray, n: int) -> np.ndarray:
    return S[::2] / n


def _batch_star(ensemble: OrthogonalEnsemble | ExactO2):
    def run(S: np.ndarray, eigs: np.ndarray, n: int) -> np.ndarray:
        valid = separated_rows(eigs.T)
        vals = np.full_like(eigs, np.nan)
        if valid.any():
            vals[:, valid] = lambda_star_from_eigs(eigs.T[valid], n, ensemble, check_gaps=False).T
        return vals

    return run


def _summarize(losses: np.ndarray) -> RiskResult:
    """Mean and standard error of the losses; a NaN loss is a failed
    replication, so reps + failures is the replication count.  An infinite
    loss is kept: the mean is infinite and so is the standard error."""
    kept = losses[~np.isnan(losses)]
    count = kept.size
    mean = float(kept.mean()) if count else float("nan")
    if count < 2:
        stderr = float("nan")
    elif np.isfinite(mean):
        stderr = float(kept.std(ddof=1) / np.sqrt(count))
    else:
        stderr = float("inf")
    return RiskResult(mean, stderr, count, losses.size - count)


def _risk_point(w: np.ndarray, n: int, sigma: np.ndarray, target: np.ndarray, runners) -> tuple:
    S = _color_p2(*w, np.linalg.cholesky(sigma))
    eigs = _p2_eigenvalues(*S)
    losses = {tag: kl_loss_diag(runner(S, eigs, n).T, target) for tag, runner in runners}
    t1, t2 = losses
    return {tag: _summarize(loss) for tag, loss in losses.items()}, _summarize(losses[t1] - losses[t2])


def parallel_points(fn, count: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``, evaluated on up to ``worker_count()``
    threads.  Results keep index order; ``fn`` must draw its randomness from
    replication substreams so the thread count cannot change them."""
    workers = min(worker_count(), count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _risk_grid(experiment: str, reps: int, seed: int, param_name: str, grid: np.ndarray,
               scenario, runners) -> RiskReport:
    """KL risks of two batched estimators at p = 2, n = 10 along ``grid``.

    ``scenario(value)`` returns the population covariance at a grid value
    and the eigenvalue target its estimates are scored against; ``runners``
    holds two (tag, batched estimator) pairs.  The experiment name is the
    replication stream name.
    """
    # Every grid point reuses the same replication substreams (common random
    # numbers): draw the white Grams once and recolour their entry columns
    # per point.
    n = 10
    W = white_batch(2, n, reps, seed, experiment)
    w = np.stack((W[:, 0, 0], W[:, 1, 0], W[:, 1, 1]))
    w.setflags(write=False)
    outcomes = parallel_points(lambda i: _risk_point(w, n, *scenario(grid[i]), runners), len(grid))
    return RiskReport(
        experiment=experiment,
        param_name=param_name,
        param_values=_frozen(grid),
        methods=tuple(tag for tag, _ in runners),
        risks=MappingProxyType({tag: tuple(res[tag] for res, _ in outcomes) for tag, _ in runners}),
        diff=tuple(d for _, d in outcomes),
    )


def _ratio_scenario(c: float):
    """Population covariance diag(1, c) and its eigenvalues."""
    return np.diag([1.0, c]), np.array([1.0, c])


def figure4_experiment(reps: int = 10_000, seed: int = 0) -> RiskReport:
    """Risk of scaled sample eigenvalues vs. the identity-frame diagonal as
    the eigenvalue ratio c walks from 1.00 down to 0.02 in steps of 0.02."""
    grid = np.round(np.arange(50, 0, -1) * 0.02, 10)
    runners = ((LBAR, _batch_lbar), (GAMMA_FRAME, _batch_identity_frame))
    return _risk_grid("fig4", reps, seed, "c", grid, _ratio_scenario, runners)


def figure5_experiment(reps: int = 10_000, seed: int = 0) -> RiskReport:
    """Same estimator pair at fixed eigenvalues (1, 0.8) while the true
    frame rotates by theta in [0, pi/2] (26 equidistant angles)."""
    lam = np.array([1.0, 0.8])

    def scenario(theta: float):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        return (R * lam) @ R.T, lam

    runners = ((LBAR, _batch_lbar), (GAMMA_FRAME, _batch_identity_frame))
    return _risk_grid("fig5", reps, seed, "theta", np.arange(26) * (np.pi / 50.0), scenario, runners)


def figure6_experiment(
    reps: int = 1_000, seed: int = 0, ensemble: OrthogonalEnsemble | ExactO2 | None = None
) -> RiskReport:
    """Scaled sample eigenvalues vs. the frame-averaged shrinkage estimator
    over c from 0.04 to 1.00 in steps of 0.04, integrating the frame over
    ``ensemble`` (default ``default_ensemble(2)``, the exact integral)."""
    if ensemble is None:
        ensemble = default_ensemble(2, rng=seed)
    _check_dim(ensemble, 2)
    grid = np.round(np.arange(1, 26) * 0.04, 10)
    runners = ((LBAR, _batch_lbar), (STAR, _batch_star(ensemble)))
    return _risk_grid("fig6", reps, seed, "c", grid, _ratio_scenario, runners)


def kl_risk(estimator, Sigma, n: int, reps: int, seed: int, stream: str = "kl-risk") -> RiskResult:
    """Monte-Carlo KL risk of a per-matrix estimator callable.

    ``estimator(S, n)`` must return an estimate vector (or an object with a
    ``values`` attribute) ordered against the descending population
    eigenvalues; it runs on ``sample_batch(Sigma, n, reps, seed, stream)[r]``
    for each replication r, validated with ``SpdMatrix.stack``'s checks on
    the whole batch at once so that each S carries its checked spectrum;
    each S is built only when the loop reaches it.  Domain errors raised
    by the estimator on individual replications are counted as failures
    and excluded, never hidden.  An estimate of the wrong shape is refused
    (DimensionMismatch), and one with a non-finite or non-positive entry too
    (ValueError); both name the replication.  The estimates are scored in one batched
    ``kl_loss_diag``.
    """
    Sigma = as_spd(Sigma)
    target = np.linalg.eigvalsh(Sigma.matrix)[::-1]
    samples = SpdMatrix._checked_slices(sample_batch(Sigma, n, reps, seed, stream))
    estimates = np.ones((reps, Sigma.dim))
    valid = np.zeros(reps, dtype=bool)
    for r, S in enumerate(samples):
        try:
            est = estimator(S, n)
        except EigengeoError:
            continue
        vals = np.asarray(getattr(est, "values", est), dtype=float)
        if vals.shape != target.shape:
            raise DimensionMismatch(
                f"replication {r}: estimate has shape {vals.shape}, expected {target.shape}"
            )
        estimates[r] = vals
        valid[r] = True
    # Failed rows keep their ones, so only returned estimates can be refused.
    bad = ~((estimates > 0.0) & (estimates < np.inf)).all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError(
            f"replication {r}: estimate entries must be finite and positive, got {estimates[r]}"
        )
    if not valid.any():
        raise EigengeoError("every replication failed")
    return _summarize(np.where(valid, kl_loss_diag(estimates, target), np.nan))


@dataclass(frozen=True)
class MajorizationReport:
    """Partial-sum comparison of mean scaled sample eigenvalues against the
    population eigenvalues, with Monte-Carlo bands."""

    eigenvalues: np.ndarray
    mean_partial_sums: np.ndarray
    target_partial_sums: np.ndarray
    margins: np.ndarray
    stderrs: np.ndarray
    holds_3sigma: np.ndarray
    trace_max_rel_dev: float
    reps: int


def bias_majorization_check(Sigma, n: int = 10, reps: int = 100_000, seed: int = 0) -> MajorizationReport:
    """Verify that mean scaled sample eigenvalues majorize the population
    eigenvalues: every proper partial sum exceeds its target (3-sigma bands)
    while the full sum matches the trace exactly draw by draw."""
    if reps < 2:
        raise ValueError(f"need reps >= 2 for Monte-Carlo bands, got {reps}")
    Sigma = as_spd(Sigma)
    lam = np.linalg.eigvalsh(Sigma.matrix)[::-1]
    S_batch = sample_batch(Sigma, n, reps, seed, "bias")
    lbars = descending_eigenvalues(S_batch) / n
    traces = np.trace(S_batch, axis1=1, axis2=2) / n
    trace_dev = np.abs(lbars.sum(axis=1) - traces) / traces
    partial = np.cumsum(lbars, axis=1)
    mean_partial = partial.mean(axis=0)
    stderrs = partial.std(axis=0, ddof=1) / np.sqrt(reps)
    target_partial = np.cumsum(lam)
    margins = mean_partial - target_partial
    holds = np.empty(lam.size, dtype=bool)
    holds[:-1] = margins[:-1] > 3.0 * stderrs[:-1]
    holds[-1] = abs(margins[-1]) < 3.0 * stderrs[-1] + 1e-9
    holds.setflags(write=False)  # a bool mask: _frozen would make it float
    return MajorizationReport(
        eigenvalues=_frozen(lam),
        mean_partial_sums=_frozen(mean_partial),
        target_partial_sums=_frozen(target_partial),
        margins=_frozen(margins),
        stderrs=_frozen(stderrs),
        holds_3sigma=holds,
        trace_max_rel_dev=float(trace_dev.max()),
        reps=reps,
    )
