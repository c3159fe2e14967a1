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

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .spd_manifold import (
    SkewParams,
    Spectrum,
    _triu,
    as_spd,
    check_eigenvalue_gaps,
    compose,
    exp_skew,
    index_pairs,
    pair_offset,
    sigma_of_coords,
    to_natural,
)

# Finite-difference policy: central differences, step scaled by the largest
# eigenvalue.  First derivatives tolerate a smaller step than second
# derivatives (truncation vs. cancellation at double precision).
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
        sym = 0.5 * (m + m.T)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)
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
        e = np.asarray(self.eigen_diag, dtype=float)
        u = np.asarray(self.pair_diag, dtype=float)
        if e.shape != (self.dim,) or u.shape != (self.dim * (self.dim - 1) // 2,):
            raise DimensionMismatch("metric component shapes do not match dim")
        if np.any(e <= 0.0) or np.any(u <= 0.0):
            raise ValueError("metric components must be positive")
        e.setflags(write=False)
        u.setflags(write=False)
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
        s = np.asarray(self.slabs, dtype=float)
        n_pairs = self.dim * (self.dim - 1) // 2
        if s.shape != (n_pairs, self.dim):
            raise DimensionMismatch(
                f"slab shape {s.shape} does not match ({n_pairs}, {self.dim})"
            )
        s.setflags(write=False)
        object.__setattr__(self, "slabs", s)

    def component(self, pair1, pair2, a: int) -> float:
        s1, t1 = pair1
        s2, t2 = pair2
        if not 0 <= a < self.dim:
            raise IndexOutOfRange(f"index {a} outside 0..{self.dim - 1}")
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
    if not 0 <= a < sp.dim:
        raise IndexOutOfRange(f"index {a} outside 0..{sp.dim - 1}")
    g = sp.eigenvectors[:, a]
    return SymTangent(np.outer(g, g))


def tangent_u(sp: Spectrum, pair) -> SymTangent:
    """Coordinate tangent along rotation pair (s, t):
    (lam_t - lam_s) (g_s g_t^T + g_t g_s^T)."""
    s, t = pair
    if not 0 <= s < t < sp.dim:
        raise IndexOutOfRange(f"pair ({s}, {t}) must satisfy 0 <= s < t < {sp.dim}")
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
    lam = np.asarray(eigenvalues, dtype=float)
    check_eigenvalue_gaps(lam, "metric_spectral")
    eigen_diag = 0.5 / lam**2
    pairs = index_pairs(lam.size)
    pair_diag = np.array(
        [(lam[s] - lam[t]) ** 2 / (lam[s] * lam[t]) for s, t in pairs]
    )
    return SpectralMetric(lam.size, eigen_diag, pair_diag)


def inverse_metric_eigen(eigenvalues) -> np.ndarray:
    """Diagonal of the inverse metric on the eigenvalue block: 2 lam_a^2.

    Analytic inverse; the metric is diagonal so no matrix inversion is ever
    needed.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    return 2.0 * lam**2


def inverse_metric_pair(eigenvalues) -> np.ndarray:
    """Diagonal of the inverse metric on the rotation block:
    lam_s lam_t / (lam_s - lam_t)^2, ordered like ``index_pairs``."""
    lam = np.asarray(eigenvalues, dtype=float)
    check_eigenvalue_gaps(lam, "inverse_metric_pair")
    return np.array(
        [lam[s] * lam[t] / (lam[s] - lam[t]) ** 2 for s, t in index_pairs(lam.size)]
    )


def embedding_curvature_A(eigenvalues, pair1, pair2, a: int) -> float:
    """Mixture-connection embedding curvature of the fixed-eigenvalue
    submanifold, component ((s,t), (u,v), a).

    Nonzero only when the pairs coincide and a is one of their legs:
      a == s == u, t == v  ->  (lam_t - lam_a) / lam_a^2
      s == u, a == t == v  ->  (lam_s - lam_a) / lam_a^2
    """
    lam = np.asarray(eigenvalues, dtype=float)
    p = lam.size
    s, t = pair1
    u, v = pair2
    if not (0 <= s < t < p and 0 <= u < v < p):
        raise IndexOutOfRange(f"pairs {pair1}, {pair2} invalid for p={p}")
    if not 0 <= a < p:
        raise IndexOutOfRange(f"index {a} outside 0..{p - 1}")
    if s == u and t == v and a == s:
        return float((lam[t] - lam[a]) / lam[a] ** 2)
    if s == u and t == v and a == t:
        return float((lam[s] - lam[a]) / lam[a] ** 2)
    return 0.0


def embedding_curvature_M(eigenvalues, a: int, b: int, pair, connection: str = "m") -> float:
    """Embedding curvature of the fixed-frame submanifold: identically zero
    under both the exponential and mixture connections.

    Exposed as an explicit function (rather than omitted) so that generic
    information-loss contractions can consume it without special-casing.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    p = lam.size
    s, t = pair
    if not 0 <= s < t < p:
        raise IndexOutOfRange(f"pair ({s}, {t}) invalid for p={p}")
    if not (0 <= a < p and 0 <= b < p):
        raise IndexOutOfRange(f"indices ({a}, {b}) outside 0..{p - 1}")
    if connection not in ("e", "m"):
        raise ValueError(f"connection must be 'e' or 'm', got {connection!r}")
    return 0.0


def raised_curvature(eigenvalues, pair1, pair2) -> np.ndarray:
    """Curvature of ``embedding_curvature_A`` with the last index raised by
    the inverse metric: component a is 2 lam_a^2 times the lowered value.

    For coincident pairs this is 2(lam_t - lam_s) at a = s and
    2(lam_s - lam_t) at a = t; distinct pairs give the zero vector.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    ginv = inverse_metric_eigen(lam)
    return np.array(
        [embedding_curvature_A(lam, pair1, pair2, a) * ginv[a] for a in range(lam.size)]
    )


def curvature_tensor_A(eigenvalues) -> CurvatureTensor:
    """All nonzero embedding-curvature components, packed per pair slab."""
    lam = np.asarray(eigenvalues, dtype=float)
    pairs = index_pairs(lam.size)
    slabs = np.zeros((len(pairs), lam.size))
    for k, (s, t) in enumerate(pairs):
        slabs[k, s] = (lam[t] - lam[s]) / lam[s] ** 2
        slabs[k, t] = (lam[s] - lam[t]) / lam[t] ** 2
    return CurvatureTensor(lam.size, slabs)


def statistical_curvature(eigenvalues) -> float:
    """Scalar curvature summary of the fixed-eigenvalue submanifold:
    2 * sum_{a<b} (lam_a^2 + lam_b^2) / (lam_a - lam_b)^2.

    Equals the full contraction of the embedding curvature with the inverse
    metrics; grows without bound as eigenvalues approach each other.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    check_eigenvalue_gaps(lam, "statistical_curvature")
    total = 0.0
    for a, b in index_pairs(lam.size):
        total += (lam[a] ** 2 + lam[b] ** 2) / (lam[a] - lam[b]) ** 2
    return 2.0 * total


# ---------------------------------------------------------------------------
# Finite-difference oracles.  These recompute metric and curvature from raw
# coordinate derivatives and exist to validate the closed forms above.
# ---------------------------------------------------------------------------


def _sigma_at(base: Spectrum, u_flat: np.ndarray) -> np.ndarray:
    return sigma_of_coords(base, SkewParams(base.dim, u_flat)).matrix


def _first_step(base: Spectrum, h: float | None) -> float:
    return h if h is not None else FD_STEP_FIRST * max(1.0, float(base.eigenvalues[0]))


def _second_step(base: Spectrum, h: float | None) -> float:
    return h if h is not None else FD_STEP_SECOND * max(1.0, float(base.eigenvalues[0]))


def fd_tangent_lambda(base: Spectrum, a: int, h: float | None = None) -> SymTangent:
    """Central-difference tangent along eigenvalue a (exact up to rounding:
    the covariance is linear in its eigenvalues at fixed frame)."""
    if not 0 <= a < base.dim:
        raise IndexOutOfRange(f"index {a} outside 0..{base.dim - 1}")
    h = _first_step(base, h)
    gamma = base.eigenvectors
    lam_plus = np.array(base.eigenvalues)
    lam_minus = np.array(base.eigenvalues)
    lam_plus[a] += h
    lam_minus[a] -= h
    m = ((gamma * lam_plus) @ gamma.T - (gamma * lam_minus) @ gamma.T) / (2.0 * h)
    return SymTangent(0.5 * (m + m.T))


def fd_tangent_u(base: Spectrum, pair, h: float | None = None) -> SymTangent:
    """Central-difference tangent along rotation pair (s, t) at u = 0."""
    s, t = pair
    h = _first_step(base, h)
    k = pair_offset(s, t, base.dim)
    e = np.zeros(base.dim * (base.dim - 1) // 2)
    e[k] = h
    m = (_sigma_at(base, e) - _sigma_at(base, -e)) / (2.0 * h)
    return SymTangent(0.5 * (m + m.T))


def metric_spectral_fd(base: Spectrum, h: float | None = None) -> SpectralMetric:
    """Full finite-difference metric pipeline: build every coordinate tangent
    by differencing the coordinate map, then evaluate the covariance-entry
    bilinear form on them."""
    S = compose(base)
    eigen_tangents = [fd_tangent_lambda(base, a, h) for a in range(base.dim)]
    pair_tangents = [fd_tangent_u(base, pr, h) for pr in index_pairs(base.dim)]
    eigen_diag = np.array([metric_sigma(S, t, t) for t in eigen_tangents])
    pair_diag = np.array([metric_sigma(S, t, t) for t in pair_tangents])
    return SpectralMetric(base.dim, eigen_diag, pair_diag)


def curvature_oracle_A(
    base: Spectrum, pair1, pair2, a, h: float | None = None
) -> float | list[float]:
    """Finite-difference oracle for ``embedding_curvature_A``.

    Differentiates the coordinate map twice along the rotation directions,
    then contracts -1/2 * trace with the eigenvalue derivative of the
    precision matrix (-lam_a^-2 g_a g_a^T).  Independent of the closed form
    and, like it, independent of the frame.

    ``a`` is one eigenvalue index (the result is a float) or a sequence of
    them (the result is a list of floats, one per entry, each the same bits
    as the scalar call).  The sequence form builds the rotation stencil
    once, since only the final contraction depends on ``a``.
    """
    p = base.dim
    s, t = pair1
    u, v = pair2
    if not (0 <= s < t < p and 0 <= u < v < p):
        raise IndexOutOfRange(f"pairs {pair1}, {pair2} invalid for p={p}")
    scalar = np.ndim(a) == 0
    legs = [a] if scalar else list(a)
    for b in legs:
        if not 0 <= b < p:
            raise IndexOutOfRange(f"index {b} outside 0..{p - 1}")
    h = _second_step(base, h)
    n_u = p * (p - 1) // 2
    e1 = np.zeros(n_u)
    e2 = np.zeros(n_u)
    e1[pair_offset(s, t, p)] = h
    e2[pair_offset(u, v, p)] = h
    if pair_offset(s, t, p) == pair_offset(u, v, p):
        A = (_sigma_at(base, e1) - 2.0 * _sigma_at(base, np.zeros(n_u)) + _sigma_at(base, -e1)) / h**2
    else:
        A = (
            _sigma_at(base, e1 + e2)
            - _sigma_at(base, e1 - e2)
            - _sigma_at(base, -e1 + e2)
            + _sigma_at(base, -e1 - e2)
        ) / (4.0 * h**2)
    values = []
    for b in legs:
        g_b = base.eigenvectors[:, b]
        B = -np.outer(g_b, g_b) / base.eigenvalues[b] ** 2
        values.append(-0.5 * float(np.sum(A * B.T)))
    return values[0] if scalar else values


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
    if not (0 <= a < p and 0 <= b < p):
        raise IndexOutOfRange(f"indices ({a}, {b}) outside 0..{p - 1}")
    s, t = pair
    if not 0 <= s < t < p:
        raise IndexOutOfRange(f"pair ({s}, {t}) invalid for p={p}")
    if connection not in ("e", "m"):
        raise ValueError(f"connection must be 'e' or 'm', got {connection!r}")
    h = _second_step(base, h)

    if connection == "m":
        second = _second_lambda_derivative(base, a, b, h, _sigma_packed)
        first = _rotation_derivative(base, pair, h, _theta_packed)
    else:
        second = _second_lambda_derivative(base, a, b, h, _theta_packed)
        first = _rotation_derivative(base, pair, h, _sigma_packed)
    return float(np.dot(second, first))


def _covariance(base: Spectrum, lam: np.ndarray, u_flat: np.ndarray) -> np.ndarray:
    O = base.eigenvectors @ exp_skew(SkewParams(base.dim, u_flat))
    m = (O * lam) @ O.T
    return 0.5 * (m + m.T)


def _sigma_packed(base: Spectrum, lam: np.ndarray, u_flat: np.ndarray) -> np.ndarray:
    return _covariance(base, lam, u_flat)[_triu(base.dim)]


def _theta_packed(base: Spectrum, lam: np.ndarray, u_flat: np.ndarray) -> np.ndarray:
    return to_natural(_covariance(base, lam, u_flat)).theta


def _second_lambda_derivative(base: Spectrum, a: int, b: int, h: float, fn) -> np.ndarray:
    lam0 = np.array(base.eigenvalues)
    zero_u = np.zeros(base.dim * (base.dim - 1) // 2)

    def at(da: float, db: float) -> np.ndarray:
        lam = np.array(lam0)
        lam[a] += da
        lam[b] += db
        return fn(base, lam, zero_u)

    if a == b:
        return (at(h, 0.0) - 2.0 * at(0.0, 0.0) + at(-h, 0.0)) / h**2
    return (at(h, h) - at(h, -h) - at(-h, h) + at(-h, -h)) / (4.0 * h**2)


def _rotation_derivative(base: Spectrum, pair, h: float, fn) -> np.ndarray:
    s, t = pair
    k = pair_offset(s, t, base.dim)
    e = np.zeros(base.dim * (base.dim - 1) // 2)
    e[k] = h
    lam0 = np.array(base.eigenvalues)
    return (fn(base, lam0, e) - fn(base, lam0, -e)) / (2.0 * h)
