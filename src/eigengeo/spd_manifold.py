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

from dataclasses import dataclass, field

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
GAP_TOLERANCE_REL = 1e-8
PD_TOLERANCE = 1e-12
ORTHOGONALITY_TOLERANCE = 1e-10


def index_pairs(p: int) -> list[tuple[int, int]]:
    """All index pairs (s, t) with s < t, in row-major (flattened) order."""
    return [(s, t) for s in range(p - 1) for t in range(s + 1, p)]


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


@dataclass(frozen=True)
class SpdMatrix:
    """A p x p symmetric positive-definite matrix (a covariance).

    The stored matrix is exactly symmetric: construction averages the input
    with its transpose, which is bitwise symmetric in IEEE arithmetic.
    Positive definiteness is checked with a symmetric eigendecomposition
    (every eigenvalue must exceed ``PD_TOLERANCE * trace``).
    """

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        p = m.shape[0]
        if p < 1:
            raise DimensionMismatch("matrix must be at least 1 x 1")
        if not np.isfinite(m).all():
            raise NotPositiveDefinite("matrix has non-finite entries")
        sym = 0.5 * (m + m.T)
        if np.abs(m - sym).max() > 1e-9 * max(1.0, np.abs(m).max()):
            raise NotPositiveDefinite("matrix is not symmetric")
        eigs = np.linalg.eigvalsh(sym)
        tr = float(np.trace(sym))
        if tr <= 0.0 or eigs[0] <= PD_TOLERANCE * tr:
            raise NotPositiveDefinite(
                f"matrix is not positive definite (min eigenvalue {eigs[0]:.3e}, "
                f"trace {tr:.3e})"
            )
        object.__setattr__(self, "matrix", _frozen(sym))
        object.__setattr__(self, "dim", p)

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
        iu = np.triu_indices(self.dim, k=1)
        U[iu] = self.coords
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
    p = S.dim
    packed = []
    for i in range(p):
        packed.append(-0.5 * prec[i, i])
        packed.extend(-prec[i, i + 1 :])
    return NaturalCoords(p, np.array(packed))


def from_natural(coords: NaturalCoords) -> SpdMatrix:
    """Invert to_natural.  Raises NotPositiveDefinite when the implied
    precision matrix is not SPD."""
    p = coords.dim
    prec = np.zeros((p, p))
    k = 0
    for i in range(p):
        prec[i, i] = -2.0 * coords.theta[k]
        k += 1
        for j in range(i + 1, p):
            prec[i, j] = prec[j, i] = -coords.theta[k]
            k += 1
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
    """
    S = as_spd(S)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (S.dim, S.dim):
        raise DimensionMismatch(
            f"frame shape {gamma.shape} does not match dim {S.dim}"
        )
    return np.einsum("ij,ik,kj->j", gamma, S.matrix, gamma)
