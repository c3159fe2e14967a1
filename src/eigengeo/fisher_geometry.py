"""Fisher metric and embedding curvatures in spectral coordinates.

Closed forms first: the metric is diagonal in spectral coordinates, the
eigenvector submanifold (fixed eigenvalues) carries a sparse mixture-
connection embedding curvature, and the eigenvalue submanifold (fixed
frame) is flat under both the exponential and mixture connections.  Every
closed form is paired with a finite-difference oracle that rebuilds the
same quantity from raw coordinate derivatives, so the analytic expressions
are independently checkable (and the CLI exposes the comparison).

Eigenvalue indices are 0-based; pairs (s, t) satisfy 0 <= s < t < p with
the row-major flat ordering documented in ``spd_manifold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionMismatch
from .spd_manifold import (
    Spectrum,
    _chart,
    _check_index,
    _frozen,
    _natural_packed,
    _triu,
    as_spd,
    check_eigenvalue_gaps,
    compose,
    pair_offset,
)

# Finite-difference policy: central differences, the step along an
# eigenvalue scaled by the largest eigenvalue, the step along a rotation
# angle bare.  First derivatives tolerate a smaller step than second
# derivatives (truncation vs. cancellation at double precision).  An oracle
# agrees with its closed form when they differ by at most FD_TOLERANCE
# times max(1, |closed form|).
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-3
FD_TOLERANCE = 1e-5


@dataclass(frozen=True)
class SymTangent:
    """A tangent vector at a covariance, represented as a symmetric matrix."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("tangent matrix has non-finite entries")
        if np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
            raise DimensionMismatch("tangent matrix must be symmetric")
        object.__setattr__(self, "matrix", _frozen(0.5 * (m + m.T)))
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True)
class SpectralMetric:
    """Diagonal Fisher-metric components in spectral coordinates.

    ``eigen_diag[a]`` is the metric along eigenvalue direction a and
    ``pair_diag[k]`` the metric along rotation direction ``index_pairs(p)[k]``;
    all cross terms vanish identically.
    """

    dim: int
    eigen_diag: np.ndarray
    pair_diag: np.ndarray

    def __post_init__(self):
        e, u = _frozen(self.eigen_diag), _frozen(self.pair_diag)
        if e.shape != (self.dim,) or u.shape != (self.dim * (self.dim - 1) // 2,):
            raise DimensionMismatch("metric component shapes do not match dim")
        if not ((e > 0.0).all() and (u > 0.0).all()):  # NaN too
            raise ValueError("metric components must be positive")
        object.__setattr__(self, "eigen_diag", e)
        object.__setattr__(self, "pair_diag", u)

    def pair_entry(self, s: int, t: int) -> float:
        return float(self.pair_diag[pair_offset(s, t, self.dim)])


@dataclass(frozen=True)
class CurvatureTensor:
    """Mixture-connection embedding curvature of the fixed-eigenvalue
    submanifold, stored sparsely.

    Only coincident pair indices carry curvature, so ``slabs[k, a]`` holds
    the component for (pair_k, pair_k, a) and every query with distinct
    pairs returns 0 without storing the dense O(p^4) array.
    """

    dim: int
    slabs: np.ndarray

    def __post_init__(self):
        s = _frozen(self.slabs)
        n_pairs = self.dim * (self.dim - 1) // 2
        if s.shape != (n_pairs, self.dim):
            raise DimensionMismatch(
                f"slab shape {s.shape} does not match ({n_pairs}, {self.dim})"
            )
        object.__setattr__(self, "slabs", s)

    def component(self, pair1, pair2, a: int) -> float:
        s1, t1 = pair1
        s2, t2 = pair2
        _check_index(a, self.dim)
        k1 = pair_offset(s1, t1, self.dim)
        k2 = pair_offset(s2, t2, self.dim)
        if k1 != k2:
            return 0.0
        return float(self.slabs[k1, a])


def metric_sigma(S, A: SymTangent, B: SymTangent) -> float:
    """Fisher metric in covariance-entry coordinates:
    (1/2) trace(S^-1 A S^-1 B) for symmetric tangents A, B."""
    S = as_spd(S)
    if A.dim != S.dim or B.dim != S.dim:
        raise DimensionMismatch("tangent dims do not match the base point")
    X = np.linalg.solve(S.matrix, A.matrix)
    Y = np.linalg.solve(S.matrix, B.matrix)
    return 0.5 * float(np.sum(X * Y.T))


def tangent_lambda(sp: Spectrum, a: int) -> SymTangent:
    """Coordinate tangent along eigenvalue a: the rank-one frame projector."""
    _check_index(a, sp.dim)
    g = sp.eigenvectors[:, a]
    return SymTangent(np.outer(g, g))


def tangent_u(sp: Spectrum, pair) -> SymTangent:
    """Coordinate tangent along rotation pair (s, t):
    (lam_t - lam_s) (g_s g_t^T + g_t g_s^T)."""
    s, t = pair
    pair_offset(s, t, sp.dim)  # refuses a pair outside 0 <= s < t < p
    lam = sp.eigenvalues
    gs = sp.eigenvectors[:, s]
    gt = sp.eigenvectors[:, t]
    cross = np.outer(gs, gt)
    return SymTangent((lam[t] - lam[s]) * (cross + cross.T))


def metric_spectral(eigenvalues) -> SpectralMetric:
    """Closed-form spectral-coordinate metric.

    Eigenvalue block: 1 / (2 lam_a^2).  Rotation block for pair (s, t):
    (lam_s - lam_t)^2 / (lam_s lam_t).  Cross block: zero.  The components
    depend on the eigenvalues alone, not on the frame.
    """
    lam = check_eigenvalue_gaps(eigenvalues, "metric_spectral")
    s, t = _triu(lam.size, 1)
    return SpectralMetric(lam.size, 0.5 / lam**2, (lam[s] - lam[t]) ** 2 / (lam[s] * lam[t]))


def inverse_metric_eigen(eigenvalues) -> np.ndarray:
    """Diagonal of the inverse metric on the eigenvalue block: 2 lam_a^2.

    Analytic inverse; the metric is diagonal so no matrix inversion is ever
    needed.  Defined where the metric is: refuses the spectra that
    ``metric_spectral`` refuses.
    """
    return 2.0 * check_eigenvalue_gaps(eigenvalues, "inverse_metric_eigen") ** 2


def inverse_metric_pair(eigenvalues) -> np.ndarray:
    """Diagonal of the inverse metric on the rotation block:
    lam_s lam_t / (lam_s - lam_t)^2, ordered like ``index_pairs``."""
    lam = check_eigenvalue_gaps(eigenvalues, "inverse_metric_pair")
    s, t = _triu(lam.size, 1)
    return lam[s] * lam[t] / (lam[s] - lam[t]) ** 2


def embedding_curvature_A(eigenvalues, pair1, pair2, a: int) -> float:
    """Mixture-connection embedding curvature of the fixed-eigenvalue
    submanifold, component ((s,t), (u,v), a).

    Nonzero only when the pairs coincide and a is one of their legs:
      a == s == u, t == v  ->  (lam_t - lam_a) / lam_a^2
      s == u, a == t == v  ->  (lam_s - lam_a) / lam_a^2
    """
    return curvature_tensor_A(eigenvalues).component(pair1, pair2, a)


def raised_curvature(eigenvalues, pair1, pair2) -> np.ndarray:
    """Curvature of ``embedding_curvature_A`` with the last index raised by
    the inverse metric: component a is 2 lam_a^2 times the lowered value.

    For coincident pairs this is 2(lam_t - lam_s) at a = s and
    2(lam_s - lam_t) at a = t; distinct pairs give the zero vector.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    slabs = curvature_tensor_A(lam).slabs
    k = pair_offset(*pair1, lam.size)
    if pair_offset(*pair2, lam.size) != k:
        return np.zeros(lam.size)
    return slabs[k] * inverse_metric_eigen(lam)


def curvature_tensor_A(eigenvalues) -> CurvatureTensor:
    """All nonzero embedding-curvature components, packed per pair slab."""
    lam = check_eigenvalue_gaps(eigenvalues, "curvature_tensor_A")
    s, t = _triu(lam.size, 1)
    k = np.arange(s.size)
    slabs = np.zeros((s.size, lam.size))
    slabs[k, s] = (lam[t] - lam[s]) / lam[s] ** 2
    slabs[k, t] = (lam[s] - lam[t]) / lam[t] ** 2
    return CurvatureTensor(lam.size, slabs)


def statistical_curvature(eigenvalues) -> float:
    """Scalar curvature summary of the fixed-eigenvalue submanifold:
    2 * sum_{a<b} (lam_a^2 + lam_b^2) / (lam_a - lam_b)^2.

    Equals the full contraction of the embedding curvature with the inverse
    metrics; grows without bound as eigenvalues approach each other.
    """
    lam = check_eigenvalue_gaps(eigenvalues, "statistical_curvature")
    a, b = _triu(lam.size, 1)
    return 2.0 * float(((lam[a] ** 2 + lam[b] ** 2) / (lam[a] - lam[b]) ** 2).sum())


# ---------------------------------------------------------------------------
# Finite-difference oracles.  These recompute metric and curvature from raw
# coordinate derivatives and exist to validate the closed forms above.  Every
# one differences the same map, the spectral chart ``spd_manifold._chart``,
# with the one stencil ``_central``, which sends all of its points to the
# chart as one stack: each oracle family (the metric, the fixed-eigenvalue
# curvature, one fixed-frame component) is one chart call per derivative.
# ---------------------------------------------------------------------------


def _steps(base: Spectrum, step: float, h: float | None) -> np.ndarray:
    """Step per chart coordinate at ``base``: h along every coordinate when
    given; otherwise ``step`` times max(1, lambda_max) along the eigenvalues
    and ``step`` itself along the rotation angles, whose scale does not
    grow with the eigenvalues'.  A given h must be finite and > 0."""
    p = base.dim
    angles = p * (p - 1) // 2
    if h is not None:
        if not 0.0 < float(h) < np.inf:  # NaN too
            raise ValueError(f"finite-difference step h must be finite and > 0, got {h}")
        return np.full(p + angles, float(h))
    return np.array([step * max(1.0, float(base.eigenvalues[0]))] * p + [step] * angles)


def fd_tangent_lambda(base: Spectrum, a: int, h: float | None = None) -> SymTangent:
    """Central-difference tangent along eigenvalue a (exact up to rounding:
    the covariance is linear in its eigenvalues at fixed frame)."""
    _check_index(a, base.dim)
    steps = _steps(base, FD_STEP_FIRST, h)
    return SymTangent(_central(partial(_chart, base), _origin(base), steps, [a])[0])


def fd_tangent_u(base: Spectrum, pair, h: float | None = None) -> SymTangent:
    """Central-difference tangent along rotation pair (s, t) at u = 0."""
    k = base.dim + pair_offset(*pair, base.dim)
    steps = _steps(base, FD_STEP_FIRST, h)
    return SymTangent(_central(partial(_chart, base), _origin(base), steps, [k])[0])


def metric_spectral_fd(base: Spectrum, h: float | None = None) -> SpectralMetric:
    """Full finite-difference metric pipeline: build every coordinate tangent
    by differencing the coordinate map (the ``fd_tangent_lambda`` and
    ``fd_tangent_u`` tangents, all 2(p + p(p-1)/2) points in one chart
    call), then evaluate the covariance-entry bilinear form
    ``metric_sigma(compose(base), t, t)`` on them with one batched solve."""
    p = base.dim
    S = compose(base)
    steps = _steps(base, FD_STEP_FIRST, h)
    T = _central(partial(_chart, base), _origin(base), steps, np.arange(steps.size))
    X = np.linalg.solve(S.matrix, T)
    diag = 0.5 * np.einsum("kij,kji->k", X, X)
    return SpectralMetric(p, diag[:p], diag[p:])


def curvature_tensor_A_fd(base: Spectrum, h: float | None = None) -> CurvatureTensor:
    """Finite-difference twin of ``curvature_tensor_A``: every coincident-
    pair value of ``curvature_oracle_A`` at once, from the second
    differences along all rotation coordinates (one stack of 2 p(p-1)/2 + 1
    points with a shared centre), each contracted with every eigenvalue
    direction a."""
    p = base.dim
    k = np.arange(p, p + p * (p - 1) // 2)
    steps = _steps(base, FD_STEP_SECOND, h)
    A = _central(partial(_chart, base), _origin(base), steps, k, k)
    return CurvatureTensor(p, _contract_legs(base, A))


def curvature_oracle_A(base: Spectrum, pair1, pair2, a: int, h: float | None = None) -> float:
    """Finite-difference oracle for ``embedding_curvature_A``.

    Differentiates the coordinate map twice along the rotation directions,
    then contracts -1/2 * trace with the eigenvalue derivative of the
    precision matrix (-lam_a^-2 g_a g_a^T).  Independent of the closed form
    and, like it, independent of the frame.
    """
    p = base.dim
    k1 = p + pair_offset(*pair1, p)
    k2 = p + pair_offset(*pair2, p)
    _check_index(a, p)
    steps = _steps(base, FD_STEP_SECOND, h)
    A = _central(partial(_chart, base), _origin(base), steps, [k1], [k2])
    return float(_contract_legs(base, A)[0, a])


def _contract_legs(base: Spectrum, A: np.ndarray) -> np.ndarray:
    """-1/2 trace(A_k B_a) for each second derivative A_k of a (K, p, p)
    stack and each eigenvalue direction a, with B_a = -lam_a^-2 g_a g_a^T:
    a (K, p) array.  B is formed, not folded into (g_a^T A_k g_a) / (2
    lam_a^2), which rounds differently: at a frame of unit vectors each
    value is then the one product A_k[a, a] * B_a[a, a], as in a per-leg
    trace."""
    g = base.eigenvectors.T
    B = -g[:, :, None] * g[:, None, :] / base.eigenvalues[:, None, None] ** 2
    return -0.5 * np.einsum("kij,aij->ka", A, B)


def curvature_oracle_M(
    base: Spectrum, a: int, b: int, pair, connection: str = "m", h: float | None = None
) -> float:
    """Finite-difference oracle for the fixed-frame submanifold's embedding
    curvature (expected to vanish identically).

    Mixture connection: second eigenvalue-derivatives of the covariance map
    paired with the rotation derivative of the natural parameters.
    Exponential connection: second eigenvalue-derivatives of the natural
    parameters paired with the rotation derivative of the covariance map.
    """
    p = base.dim
    _check_index(a, p)
    _check_index(b, p)
    k = p + pair_offset(*pair, p)
    if connection not in ("e", "m"):
        raise ValueError(f"connection must be 'e' or 'm', got {connection!r}")
    steps = _steps(base, FD_STEP_SECOND, h)

    def sigma(X: np.ndarray) -> np.ndarray:
        return _chart(base, X)[(slice(None), *_triu(p))]

    def theta(X: np.ndarray) -> np.ndarray:
        return _natural_packed(_chart(base, X))

    second, first = (sigma, theta) if connection == "m" else (theta, sigma)
    x0 = _origin(base)
    return float(np.dot(_central(second, x0, steps, [a], [b])[0], _central(first, x0, steps, [k])[0]))


def _origin(base: Spectrum) -> np.ndarray:
    """Chart coordinates of ``base`` itself: its eigenvalues, zero rotation."""
    return np.concatenate([base.eigenvalues, np.zeros(base.dim * (base.dim - 1) // 2)])


def _central(fn, x0: np.ndarray, h: np.ndarray, i, j=None) -> np.ndarray:
    """Central differences of ``fn`` at ``x0`` with step h[k] along each
    coordinate k, one per entry of the coordinate array i: the first
    derivative along i[r], or the second along i[r] and j[r] (three points
    when j equals i, all sharing one centre, and four otherwise).

    ``fn`` maps an (m, n) stack of points to a stack of m values; the whole
    stencil goes to it in one call, and the derivatives come back stacked
    in the order of i.
    """
    i = np.asarray(i)
    r = i.size
    unit = np.eye(x0.size)
    hi = h[i]
    di = hi[:, None] * unit[i]
    if j is None:
        y = fn(x0 + np.concatenate([di, -di]))
        return (y[:r] - y[r:]) / _per_row(2.0 * hi, y)
    j = np.asarray(j)
    if np.array_equal(i, j):
        y = fn(x0 + np.concatenate([di, np.zeros((1, x0.size)), -di]))
        return (y[:r] - 2.0 * y[r] + y[r + 1 :]) / _per_row(hi**2, y)
    hj = h[j]
    dj = hj[:, None] * unit[j]
    y = fn(x0 + np.concatenate([di + dj, di - dj, -di + dj, -di - dj]))
    return (y[:r] - y[r : 2 * r] - y[2 * r : 3 * r] + y[3 * r :]) / _per_row(4.0 * hi * hj, y)


def _per_row(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """v shaped to divide a slice of the stack ``like`` row by row."""
    return v.reshape(v.shape + (1,) * (like.ndim - 1))
