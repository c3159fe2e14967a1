"""First-order information loss of the sample-eigenvalue statistic.

Discarding the sample eigenvector frame costs Fisher information.  The
leading (sample-size-free) term of that loss has a closed form in the
population eigenvalues; this module provides it, together with a generic
curvature-contraction assembly of the same matrix that serves as an
independent oracle, and the resulting first-order information carried by
the eigenvalues alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefiniteWarning
from .fisher_geometry import curvature_tensor_A, inverse_metric_pair
from .spd_manifold import _frozen, check_eigenvalue_gaps


@dataclass(frozen=True)
class LossMatrix:
    """Leading information-loss term per observation.

    Symmetric, with nonnegative diagonal and nonpositive off-diagonal
    entries (both forced by the closed form).
    """

    B: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.B, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("loss matrix has non-finite entries")
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise DimensionMismatch("loss matrix must be symmetric")
        p = m.shape[0]
        sym = 0.5 * (m + m.T)
        if np.any(np.diag(sym) < 0.0):
            raise ValueError("loss matrix diagonal must be nonnegative")
        off = sym[~np.eye(p, dtype=bool)]
        if off.size and np.any(off > 1e-12 * max(1.0, np.abs(sym).max())):
            raise ValueError("loss matrix off-diagonal must be nonpositive")
        object.__setattr__(self, "B", _frozen(sym))
        object.__setattr__(self, "dim", p)


def loss_first_order(eigenvalues) -> LossMatrix:
    """Closed-form leading information loss.

    Diagonal:  B_aa = (1 / (2 lam_a^2)) * sum_{t != a} lam_t^2 / (lam_t - lam_a)^2
    Off-diag:  B_ab = -1 / (2 (lam_a - lam_b)^2)

    Homogeneous of degree -2 in the eigenvalues; blows up as eigenvalues
    approach each other, which is where ignoring the sample frame hurts most.
    """
    lam = check_eigenvalue_gaps(eigenvalues, "loss_first_order")
    gap2 = np.subtract.outer(lam, lam) ** 2
    np.fill_diagonal(gap2, np.inf)
    B = -0.5 / gap2
    np.fill_diagonal(B, (lam**2 / gap2).sum(axis=1) / (2.0 * lam**2))
    return LossMatrix(B)


def loss_contraction(eigenvalues) -> LossMatrix:
    """Leading information loss assembled from metric and curvature parts.

    The sample-size-proportional term vanishes because the spectral metric
    has no eigenvalue/rotation cross block, and the fixed-frame submanifold
    term vanishes because its exponential-connection curvature is zero
    (``curvature_oracle_M`` differentiates it numerically and finds zero).
    What remains is half the double contraction of the fixed-eigenvalue
    embedding curvature with the inverse rotation metric.
    Only coincident pairs carry curvature and the inverse rotation metric
    is diagonal, so the contraction is one product of the
    ``curvature_tensor_A`` slabs: B = (1/2) slabs^T diag(ginv_pair^2) slabs.
    Must agree with ``loss_first_order`` to near machine precision.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    slabs = curvature_tensor_A(lam).slabs
    return LossMatrix(0.5 * (slabs.T * inverse_metric_pair(lam) ** 2) @ slabs)


def info_carried_by_l(eigenvalues, n: int) -> np.ndarray:
    """First-order Fisher information of the sample eigenvalues:
    (n/2) diag(lam^-2) minus the leading loss matrix.

    First-order approximation only: when eigenvalues are close and n is
    small the expansion breaks down and the result can fail to be positive
    definite, in which case a NotPositiveDefiniteWarning is issued (never
    clamped).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = np.asarray(eigenvalues, dtype=float)
    loss = loss_first_order(lam)
    info = np.diag(0.5 * n / lam**2) - loss.B
    if np.linalg.eigvalsh(info)[0] <= 0.0:
        warnings.warn(
            "first-order information matrix is not positive definite; the "
            "expansion is unreliable for these eigenvalues and sample size",
            NotPositiveDefiniteWarning,
            stacklevel=2,
        )
    return info
