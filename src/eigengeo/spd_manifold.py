"""Coordinate systems on the manifold of zero-mean Gaussian covariances.

A covariance matrix can be addressed three ways: by its entries (sigma
coordinates), by natural exponential-family parameters, or by spectral
coordinates (eigenvalues plus a skew-symmetric chart for the eigenvector
frame).  This module holds the value types for all three, the conversions
between them, and the Kullback-Leibler divergence that measures distance
on the manifold.

Index conventions: eigenvalue indices are 0-based, ``a in {0, .., p-1}``;
off-diagonal index pairs ``(s, t)`` satisfy ``0 <= s < t < p`` and are
flattened row-major (same order as ``numpy.triu_indices(p, k=1)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NearDegenerateSpectrum,
    NotPositiveDefinite,
)

# Tolerance policy (relative, see README):
#   - eigenvalue gaps below GAP_TOLERANCE_REL * lambda_max mean the spectral
#     chart is ill-defined (curvature terms blow up at ties): refuse, never
#     regularize silently.
#   - positive definiteness requires every eigenvalue > PD_TOLERANCE * trace.
#   - a matrix is symmetric when no entry is more than
#     SYMMETRY_TOLERANCE * max(1, max |entry|) from its symmetrized value.
GAP_TOLERANCE_REL = 1e-8
PD_TOLERANCE = 1e-12
SYMMETRY_TOLERANCE = 1e-9
ORTHOGONALITY_TOLERANCE = 1e-10


def index_pairs(p: int) -> list[tuple[int, int]]:
    """All index pairs (s, t) with s < t, in row-major (flattened) order."""
    return [(s, t) for s in range(p - 1) for t in range(s + 1, p)]


@cache
def _triu(p: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.triu_indices(p, k)``, built once per (p, k) and read-only."""
    rows, cols = np.triu_indices(p, k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def pair_offset(s: int, t: int, p: int) -> int:
    """Flat offset of pair (s, t) in the row-major s < t ordering."""
    _check_pair(s, t, p)
    return s * p - s * (s + 1) // 2 + (t - s - 1)


def _check_index(a: int, p: int) -> None:
    if not 0 <= a < p:
        raise IndexOutOfRange(f"index {a} outside 0..{p - 1}")


def _check_pair(s: int, t: int, p: int) -> None:
    if not 0 <= s < t < p:
        raise IndexOutOfRange(f"pair ({s}, {t}) must satisfy 0 <= s < t < {p}")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def separated_rows(eig_rows: np.ndarray) -> np.ndarray:
    """Row mask of the gap policy: True where a row of eigenvalues is positive
    with every consecutive gap >= GAP_TOLERANCE_REL * its first entry."""
    gaps = eig_rows[:, :-1] - eig_rows[:, 1:]
    floor = GAP_TOLERANCE_REL * eig_rows[:, :1]
    return (eig_rows > 0.0).all(axis=1) & (gaps >= floor).all(axis=1)


def descending_eigenvalues(S_batch: np.ndarray) -> np.ndarray:
    """Eigenvalues of each symmetric matrix in a (reps, p, p) stack, one
    descending row per matrix (read from the lower triangle, as ``eigvalsh``
    does).

    At p = 2 this is the closed form: large = m + hypot((a - d)/2, b) with m
    the mean of the diagonal, small = det / large (never above large).  At
    p != 2 it is the reversed view of ``eigvalsh``
    (``estimators.projected_diagonals`` copies it to C order for BLAS).
    """
    if S_batch.shape[-1] != 2:
        return np.linalg.eigvalsh(S_batch)[:, ::-1]
    a, b, d = S_batch[:, 0, 0], S_batch[:, 1, 0], S_batch[:, 1, 1]
    out = np.empty((S_batch.shape[0], 2))
    large = out[:, 0]
    np.add(0.5 * (a + d), np.hypot(0.5 * (a - d), b), out=large)
    np.minimum((a * d - b * b) / large, large, out=out[:, 1])
    return out


def check_eigenvalue_gaps(eigenvalues: np.ndarray, what: str = "spectrum") -> None:
    """Raise NearDegenerateSpectrum unless eigenvalues are strictly descending
    with all consecutive gaps >= GAP_TOLERANCE_REL * largest eigenvalue."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise DimensionMismatch("eigenvalues must be a 1-d vector")
    if separated_rows(lam[None])[0]:
        return
    if not np.all(lam > 0.0):
        raise NotPositiveDefinite(f"{what}: eigenvalues must be positive, got {lam}")
    gaps = lam[:-1] - lam[1:]
    j = int(np.argmin(gaps))
    raise NearDegenerateSpectrum(
        f"{what}: eigenvalue gap {gaps[j]:.3e} between positions {j} and "
        f"{j + 1} is below the tolerance {GAP_TOLERANCE_REL * lam[0]:.3e}"
    )


_NON_FINITE = "matrix has non-finite entries"
_ASYMMETRIC = "matrix is not symmetric"


def _not_pd(trace: float, low: float | None = None) -> str:
    # A nonpositive trace is refused before any decomposition: the p = 2
    # closed form divides by the larger eigenvalue, which trace > 0 keeps
    # positive.  Its products a d and b^2 overflow once entries pass about
    # 1e154, which can leave a NaN smallest eigenvalue: that is refused too.
    if low is None:
        return f"matrix is not positive definite (trace {trace:.3e})"
    return f"matrix is not positive definite (min eigenvalue {low:.3e}, trace {trace:.3e})"


@dataclass(frozen=True)
class SpdMatrix:
    """A p x p symmetric positive-definite matrix (a covariance).

    The stored matrix is exactly symmetric: construction averages the input
    with its transpose, which is bitwise symmetric in IEEE arithmetic.
    Positive definiteness is checked on the descending spectrum
    ``descending_eigenvalues(matrix[None])[0]`` (every eigenvalue must
    exceed ``PD_TOLERANCE * trace``), which is kept, read-only, as
    ``eigenvalues`` so that no caller decomposes the matrix again.
    ``SpdMatrix.stack`` applies the same checks to a whole stack at once.
    """

    matrix: np.ndarray
    dim: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionMismatch("matrix must be at least 1 x 1")
        scale = float(np.abs(m).max())  # NaN or inf exactly when an entry is
        if not math.isfinite(scale):
            raise NotPositiveDefinite(_NON_FINITE)
        sym = 0.5 * (m + m.T)
        if np.abs(m - sym).max() > SYMMETRY_TOLERANCE * max(1.0, scale):
            raise NotPositiveDefinite(_ASYMMETRIC)
        tr = float(sym.trace())
        if tr <= 0.0:
            raise NotPositiveDefinite(_not_pd(tr))
        eigs = descending_eigenvalues(sym[None])[0]
        if not eigs[-1] > PD_TOLERANCE * tr:  # NaN too (see _not_pd)
            raise NotPositiveDefinite(_not_pd(tr, eigs[-1]))
        sym.setflags(write=False)
        eigs.setflags(write=False)
        self._adopt(sym, eigs)

    def _adopt(self, sym: np.ndarray, eigs: np.ndarray) -> None:
        object.__setattr__(self, "matrix", sym)
        object.__setattr__(self, "dim", sym.shape[0])
        object.__setattr__(self, "eigenvalues", eigs)

    @classmethod
    def stack(cls, batch) -> list[SpdMatrix]:
        """One SpdMatrix per slice of a (reps, p, p) stack, with the scalar
        constructor's checks run on the whole stack at once (one batched
        ``descending_eigenvalues``).  A refused stack raises the scalar
        constructor's exception and message, prefixed with the index of the
        first refused slice.  An accepted stack's slices are built without
        re-checking, as read-only views of one symmetrized stack and its
        spectra.
        """
        m = np.asarray(batch, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DimensionMismatch(f"expected a (reps, p, p) stack, got shape {m.shape}")
        if m.shape[1] < 1:
            raise DimensionMismatch("matrix must be at least 1 x 1")
        # Each check looks only at the slices before the first refusal found
        # so far, so the refusal raised is the first slice's, and no check
        # runs on a slice an earlier check refused.
        fault = None
        scale = np.abs(m).max(axis=(1, 2))
        finite = np.isfinite(scale)
        if not finite.all():
            r = int(np.argmin(finite))
            fault, m, scale = (r, _NON_FINITE), m[:r], scale[:r]
        sym = 0.5 * (m + m.swapaxes(1, 2))
        asym = np.abs(m - sym).max(axis=(1, 2)) > SYMMETRY_TOLERANCE * np.maximum(1.0, scale)
        if asym.any():
            r = int(np.argmax(asym))
            fault, sym = (r, _ASYMMETRIC), sym[:r]
        tr = np.trace(sym, axis1=1, axis2=2)
        nonpositive = tr <= 0.0
        if nonpositive.any():
            r = int(np.argmax(nonpositive))
            fault, sym, tr = (r, _not_pd(tr[r])), sym[:r], tr[:r]
        eigs = descending_eigenvalues(sym)
        low = ~(eigs[:, -1] > PD_TOLERANCE * tr)
        if low.any():
            r = int(np.argmax(low))
            fault = (r, _not_pd(tr[r], eigs[r, -1]))
        if fault is not None:
            raise NotPositiveDefinite(f"slice {fault[0]}: {fault[1]}")
        sym.setflags(write=False)
        eigs.setflags(write=False)
        out = []
        for s, e in zip(sym, eigs):
            S = object.__new__(cls)
            S._adopt(s, e)
            out.append(S)
        return out

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)


def as_spd(S) -> SpdMatrix:
    """Coerce an array-like (or pass through an SpdMatrix) to SpdMatrix."""
    return S if isinstance(S, SpdMatrix) else SpdMatrix(np.asarray(S, dtype=float))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (strictly descending) plus an orthogonal eigenvector frame.

    Construction validates descending order, the minimum-gap policy, and
    orthogonality of the frame, then normalizes column signs so the entry
    of largest magnitude in each column is positive.  Sign flips leave the
    composed covariance unchanged, so normalization is loss-free and makes
    decompositions deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        gamma = np.asarray(self.eigenvectors, dtype=float)
        p = lam.size
        if gamma.shape != (p, p):
            raise DimensionMismatch(
                f"eigenvector matrix shape {gamma.shape} does not match p={p}"
            )
        check_eigenvalue_gaps(lam, "Spectrum")
        err = np.abs(gamma.T @ gamma - np.eye(p)).max()
        if err > ORTHOGONALITY_TOLERANCE:
            raise NotPositiveDefinite(
                f"eigenvector matrix is not orthogonal (max deviation {err:.3e})"
            )
        gamma = _fix_column_signs(gamma)
        object.__setattr__(self, "eigenvalues", _frozen(lam))
        object.__setattr__(self, "eigenvectors", _frozen(gamma))
        object.__setattr__(self, "dim", p)


def _fix_column_signs(gamma: np.ndarray) -> np.ndarray:
    gamma = np.array(gamma)
    for j in range(gamma.shape[1]):
        k = int(np.argmax(np.abs(gamma[:, j])))
        if gamma[k, j] < 0.0:
            gamma[:, j] = -gamma[:, j]
    return gamma


@dataclass(frozen=True)
class SkewParams:
    """Chart coordinates for the orthogonal group near a base frame.

    ``coords`` has length p(p-1)/2 and holds the strict upper triangle of a
    skew-symmetric matrix, row-major over pairs (s, t) with s < t (the same
    order as ``index_pairs``).  ``to_matrix`` rebuilds the full matrix.
    """

    dim: int
    coords: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.coords, dtype=float)
        want = self.dim * (self.dim - 1) // 2
        if u.shape != (want,):
            raise DimensionMismatch(
                f"expected {want} coordinates for dim {self.dim}, got shape {u.shape}"
            )
        if not np.all(np.isfinite(u)):
            raise ValueError("skew coordinates must be finite")
        object.__setattr__(self, "coords", _frozen(u))

    @classmethod
    def zero(cls, p: int) -> "SkewParams":
        return cls(p, np.zeros(p * (p - 1) // 2))

    def to_matrix(self) -> np.ndarray:
        U = np.zeros((self.dim, self.dim))
        U[_triu(self.dim, 1)] = self.coords
        return U - U.T


@dataclass(frozen=True)
class NaturalCoords:
    """Natural exponential-family parameters of a zero-mean Gaussian.

    ``theta`` is packed over index pairs i <= j, row-major: the diagonal
    entry is -(precision_ii)/2 and each off-diagonal entry is -precision_ij,
    where precision = inverse covariance.
    """

    dim: int
    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        want = self.dim * (self.dim + 1) // 2
        if th.shape != (want,):
            raise DimensionMismatch(
                f"expected {want} natural parameters for dim {self.dim}, "
                f"got shape {th.shape}"
            )
        object.__setattr__(self, "theta", _frozen(th))

    def entry(self, i: int, j: int) -> float:
        """Packed lookup; (i, j) and (j, i) address the same parameter."""
        if i > j:
            i, j = j, i
        _check_index(i, self.dim)
        _check_index(j, self.dim)
        return float(self.theta[i * self.dim - i * (i - 1) // 2 + (j - i)])


def spectral_decompose(S) -> Spectrum:
    """Eigendecompose an SPD matrix into descending eigenvalues and a
    sign-normalized orthogonal frame.

    Raises NearDegenerateSpectrum when any eigenvalue gap falls below the
    relative tolerance: the spectral chart (and all curvature formulas)
    degenerate at ties, so we refuse rather than perturb.
    """
    S = as_spd(S)
    w, v = np.linalg.eigh(S.matrix)
    return Spectrum(w[::-1].copy(), v[:, ::-1].copy())


def compose(sp: Spectrum) -> SpdMatrix:
    """Rebuild the covariance from a Spectrum: frame @ diag(eigs) @ frame.T."""
    m = (sp.eigenvectors * sp.eigenvalues) @ sp.eigenvectors.T
    return SpdMatrix(0.5 * (m + m.T))


def exp_skew(u: SkewParams) -> np.ndarray:
    """Matrix exponential of the skew-symmetric matrix built from ``u``.

    Scaling-and-squaring on a truncated Taylor series; the p=2 case uses the
    closed-form plane rotation.  The result is orthogonal to ~1e-13.
    """
    U = u.to_matrix()
    p = u.dim
    if p == 1:
        return np.ones((1, 1))
    if p == 2:
        c, s = np.cos(u.coords[0]), np.sin(u.coords[0])
        return np.array([[c, s], [-s, c]])
    return _expm_skew(U)


def _expm_skew(U: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(U, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0)
    A = U / (2.0**squarings)
    # 18 Taylor terms leave a remainder below 1e-16 for ||A|| <= 0.25.
    result = np.eye(U.shape[0])
    term = np.eye(U.shape[0])
    for k in range(1, 19):
        term = term @ A / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def sigma_of_coords(base: Spectrum, u: SkewParams) -> SpdMatrix:
    """Covariance at spectral coordinates (eigenvalues of ``base``, chart
    offset ``u``): frame @ expU @ diag(eigs) @ expU.T @ frame.T.

    At u = 0 this is exactly compose(base); moving u rotates the eigenvector
    frame while leaving the eigenvalues fixed.
    """
    if u.dim != base.dim:
        raise DimensionMismatch(
            f"skew coords dim {u.dim} does not match spectrum dim {base.dim}"
        )
    O = base.eigenvectors @ exp_skew(u)
    m = (O * base.eigenvalues) @ O.T
    return SpdMatrix(0.5 * (m + m.T))


def to_natural(S) -> NaturalCoords:
    """Natural parameters of the zero-mean Gaussian with covariance S."""
    S = as_spd(S)
    prec = np.linalg.inv(S.matrix)
    prec = 0.5 * (prec + prec.T)
    rows, cols = _triu(S.dim)
    packed = -prec[rows, cols]
    packed[rows == cols] *= 0.5
    return NaturalCoords(S.dim, packed)


def from_natural(coords: NaturalCoords) -> SpdMatrix:
    """Invert to_natural.  Raises NotPositiveDefinite when the implied
    precision matrix is not SPD."""
    rows, cols = _triu(coords.dim)
    prec = np.zeros((coords.dim, coords.dim))
    prec[rows, cols] = prec[cols, rows] = -coords.theta
    prec[np.diag_indices_from(prec)] *= 2.0
    eigs = np.linalg.eigvalsh(prec)
    if eigs[0] <= 0.0:
        raise NotPositiveDefinite(
            "natural parameters do not define a positive-definite precision"
        )
    cov = np.linalg.inv(prec)
    return SpdMatrix(0.5 * (cov + cov.T))


def kl_divergence(S, T) -> float:
    """Kullback-Leibler divergence between zero-mean Gaussians with
    covariances S and T: trace(S T^-1) - log det(S T^-1) - p.

    Nonnegative, zero only at S = T, and asymmetric in its arguments.
    """
    S, T = as_spd(S), as_spd(T)
    if S.dim != T.dim:
        raise DimensionMismatch(f"dims {S.dim} and {T.dim} differ")
    X = np.linalg.solve(T.matrix, S.matrix)  # T^-1 S; same trace/det as S T^-1
    tr = float(np.trace(X))
    _, logdet_s = np.linalg.slogdet(S.matrix)
    _, logdet_t = np.linalg.slogdet(T.matrix)
    return tr - (logdet_s - logdet_t) - S.dim


def kl_project(S, gamma: np.ndarray) -> np.ndarray:
    """Diagonal of S in the frame ``gamma``: the eigenvalue vector of the
    KL-closest covariance among those with eigenvector frame ``gamma``.

    For each coordinate this is the minimizer of KL(S, gamma diag(x) gamma.T),
    so perturbing any returned entry strictly increases the divergence.
    A frame with a non-finite entry is refused (ValueError).
    """
    S = as_spd(S)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (S.dim, S.dim):
        raise DimensionMismatch(
            f"frame shape {gamma.shape} does not match dim {S.dim}"
        )
    if not np.isfinite(gamma).all():
        raise ValueError("frame has non-finite entries")
    return np.einsum("ij,ik,kj->j", gamma, S.matrix, gamma)
