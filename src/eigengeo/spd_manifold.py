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


@cache
def _triu(p: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.triu_indices(p, k)``, built once per (p, k) and read-only."""
    rows, cols = np.triu_indices(p, k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def index_pairs(p: int) -> list[tuple[int, int]]:
    """All index pairs (s, t) with s < t, in row-major (flattened) order."""
    s, t = _triu(p, 1)
    return list(zip(s.tolist(), t.tolist()))


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


def _frozen(a) -> np.ndarray:
    """A read-only float copy (the caller's array stays writeable): how every
    value type freezes an array it is given."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def check_sample_size(n: int, p: int) -> None:
    """The one n >= p check (ValueError): fewer observations give a singular product-sum matrix."""
    if n < p:
        raise ValueError(f"need n >= p, got n={n}, p={p}")


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

    At p = 2 these are the rows of ``_p2_eigenvalues`` on the stack's entry
    columns.  At p != 2 it is the reversed view of ``eigvalsh``
    (``OrthogonalEnsemble.diagonals`` copies it to C order for BLAS).
    """
    if S_batch.shape[-1] != 2:
        return np.linalg.eigvalsh(S_batch)[:, ::-1]
    return _p2_eigenvalues(S_batch[:, 0, 0], S_batch[:, 1, 0], S_batch[:, 1, 1]).T.copy()


def _p2_eigenvalues(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric 2 x 2 matrices [[a, b], [b, d]], given
    as entry columns: a (2, rows) array, the larger eigenvalues first.

    The closed form: large = m + r with m the mean of the diagonal and
    r = hypot((a - d)/2, b); small = det / large (never above large) when
    m > 0, and m - r otherwise (no cancellation there, where large can
    cancel or be 0).  A row whose largest |entry| lies outside
    [2^-480, 2^480] is first scaled by the power of two that brings it into
    [1/2, 1), and its eigenvalues are scaled back, so a d and b^2 neither
    overflow nor underflow, indefinite rows included; other rows are
    computed as they are.  Positive-definite rows keep each eigenvalue to
    relative accuracy; an indefinite row only to accuracy relative to its
    largest |eigenvalue| (at m < 0, m + r cancels as m - r does at m > 0).
    """
    m = 0.5 * (a + d)
    shift = None
    # Every row's largest |entry| is in range when each m exceeds 2^-480 (m
    # is at most that entry) and no entry reaches 2^480 (NaN fails both).
    # Only columns that fail this form the per-row maximum: formed on every
    # call, its temporaries doubled the time at 10^4 rows.
    lim = 2.0**480
    in_range = (m > 1.0 / lim).all() and all(
        -lim < x.min(initial=0.0) and x.max(initial=0.0) < lim for x in (a, b, d)
    )
    if not in_range:
        top = np.maximum(np.maximum(np.abs(a), np.abs(d)), np.abs(b))
        shift = np.frexp(top)[1]  # 0 for a zero, inf or NaN top: nothing to scale
        shift[np.abs(shift) <= 480] = 0
        a, b, d = (np.ldexp(x, -shift) for x in (a, b, d))
        m = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), b)
    out = np.empty((2, m.size))
    large, small = out
    np.add(m, r, out=large)
    np.subtract(m, r, out=small)
    np.divide(a * d - b * b, large, out=small, where=m > 0.0)
    np.minimum(small, large, out=small)
    return out if shift is None else np.ldexp(out, shift)


def check_eigenvalue_gaps(eigenvalues, what: str = "spectrum") -> np.ndarray:
    """The eigenvalues as a float vector, once checked: NearDegenerateSpectrum
    unless strictly descending with all consecutive gaps >= GAP_TOLERANCE_REL
    * largest eigenvalue (NotPositiveDefinite unless all positive).  Decided
    on Python floats with ``separated_rows``' inequalities, which on a
    vector of a few entries cost less than as a one-row array."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise DimensionMismatch("eigenvalues must be a 1-d vector")
    vals = lam.tolist()
    positive = all(v > 0.0 for v in vals)
    floor = GAP_TOLERANCE_REL * vals[0]
    if positive and all(a - b >= floor for a, b in zip(vals, vals[1:])):
        return lam
    if not positive:
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
    # positive.
    if low is None:
        return f"matrix is not positive definite (trace {trace:.3e})"
    return f"matrix is not positive definite (min eigenvalue {low:.3e}, trace {trace:.3e})"


def _checked_stack(m: np.ndarray, prefix: str):
    """The SPD checks on a (reps, p, p) stack: finite entries, symmetry
    within SYMMETRY_TOLERANCE * max(1, max |entry|), trace > 0, and smallest
    eigenvalue > PD_TOLERANCE * trace, in that order.

    Returns the symmetrized stack and its ``descending_eigenvalues``, both
    read-only.  A refused stack raises NotPositiveDefinite with the message
    of its first refused slice, after ``prefix.format(index of that slice)``.
    """
    # Each check looks only at the slices before the first refusal found so
    # far, so the refusal raised is the first slice's, and no check runs
    # on a slice an earlier check refused.  The only full-size temporaries
    # are sym and m - sym: max |entry| is max(max, -min), and |m - sym| is
    # taken in place and dropped before the decomposition.
    fault = None
    scale = np.maximum(m.max(axis=(1, 2)), -m.min(axis=(1, 2)))
    finite = np.isfinite(scale)
    if not finite.all():
        r = int(np.argmin(finite))
        fault, m, scale = (r, _NON_FINITE), m[:r], scale[:r]
    sym = m + m.swapaxes(1, 2)
    sym *= 0.5
    dev = m - sym
    asym = np.abs(dev, out=dev).max(axis=(1, 2)) > SYMMETRY_TOLERANCE * np.maximum(1.0, scale)
    del dev
    if asym.any():
        r = int(np.argmax(asym))
        fault, sym = (r, _ASYMMETRIC), sym[:r]
    tr = sym.trace(axis1=1, axis2=2)
    nonpositive = tr <= 0.0
    if nonpositive.any():
        r = int(np.argmax(nonpositive))
        fault, sym, tr = (r, _not_pd(tr[r])), sym[:r], tr[:r]
    eigs = descending_eigenvalues(sym)
    low = ~(eigs[:, -1] > PD_TOLERANCE * tr)  # NaN too
    if low.any():
        r = int(np.argmax(low))
        fault = (r, _not_pd(tr[r], eigs[r, -1]))
    if fault is not None:
        raise NotPositiveDefinite(prefix.format(fault[0]) + fault[1])
    sym.setflags(write=False)
    eigs.setflags(write=False)
    return sym, eigs


@dataclass(frozen=True)
class SpdMatrix:
    """A p x p symmetric positive-definite matrix (a covariance).

    The stored matrix is exactly symmetric: construction averages the input
    with its transpose, which is bitwise symmetric in IEEE arithmetic.
    Positive definiteness is checked on the descending spectrum
    ``descending_eigenvalues(matrix[None])[0]`` (every eigenvalue must
    exceed ``PD_TOLERANCE * trace``), which is kept, read-only, as
    ``eigenvalues`` so that no caller decomposes the matrix again.

    One validator runs the checks (finite entries, symmetry, positive
    trace, positive definiteness), here on a stack of one and in
    ``SpdMatrix.stack`` on a whole stack at once.  Every public constructor
    of a covariance and every CLI matrix file goes through it.  The
    finite-difference stencil points of ``fisher_geometry`` do not: they
    are rows of one stacked ``_chart`` call at a validated ``Spectrum``,
    symmetric by construction.
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
        sym, eigs = _checked_stack(m[None], "")
        self._adopt(sym[0], eigs[0])

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
        return list(cls._checked_slices(batch))

    @classmethod
    def _checked_slices(cls, batch):
        """``stack``'s checks, run (and any refusal raised) before this
        returns; its slices, each built when the returned iterator reaches
        it, so a loop over them holds O(1) SpdMatrix objects."""
        m = np.asarray(batch, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DimensionMismatch(f"expected a (reps, p, p) stack, got shape {m.shape}")
        if m.shape[1] < 1:
            raise DimensionMismatch("matrix must be at least 1 x 1")
        sym, eigs = _checked_stack(m, "slice {}: ")
        return map(cls._checked_slice, sym, eigs)

    @classmethod
    def _checked_slice(cls, sym: np.ndarray, eigs: np.ndarray) -> SpdMatrix:
        S = object.__new__(cls)
        S._adopt(sym, eigs)
        return S

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
            raise DimensionMismatch(f"eigenvector matrix shape {gamma.shape} does not match p={p}")
        check_eigenvalue_gaps(lam, "Spectrum")
        _check_orthogonal(gamma, "eigenvector matrix")
        gamma = _fix_column_signs(gamma)
        object.__setattr__(self, "eigenvalues", _frozen(lam))
        object.__setattr__(self, "eigenvectors", _frozen(gamma))
        object.__setattr__(self, "dim", p)


def _check_orthogonal(frames: np.ndarray, what: str) -> None:
    """The one orthogonality check, |F^T F - I| <= ORTHOGONALITY_TOLERANCE
    entrywise, on a frame or a (count, p, p) stack: else ValueError, naming
    a stack's first bad member and its deviation, or its non-finite entries."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN in dev is refused below
        dev = np.abs(frames.swapaxes(-1, -2) @ frames - np.eye(frames.shape[-1]))
    if not dev.max() <= ORTHOGONALITY_TOLERANCE:  # one reduction when every frame passes
        errs = dev.reshape(-1, dev.shape[-1] ** 2).max(axis=1)
        k = int(np.argmax(~(errs <= ORTHOGONALITY_TOLERANCE)))
        name = f"{what} {k}" if frames.ndim == 3 else what
        finite = np.isfinite(frames.reshape(errs.size, -1)[k]).all()
        detail = f"deviation {errs[k]:.3e}" if finite else "non-finite entries"
        raise ValueError(f"{name} is not orthogonal ({detail})")


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
    return SpdMatrix(_chart(sp, sp.eigenvalues[None])[0])


def _chart(base: Spectrum, X: np.ndarray) -> np.ndarray:
    """The spectral chart on an (m, n) stack of coordinates, one (p, p)
    matrix per row: the symmetrized O @ diag(x[:p]) @ O.T with
    O = frame @ exp_skew(x[p:]).

    Each row holds p eigenvalues, then p(p-1)/2 rotation coordinates or
    none; the frames are ``_rotated_frames``.  Nothing is validated:
    callers returning a covariance wrap a row in ``SpdMatrix``.
    """
    p = base.dim
    O = _rotated_frames(base.eigenvectors, X[:, p:])
    m = (O * X[:, None, :p]) @ O.swapaxes(1, 2)
    return 0.5 * (m + m.swapaxes(1, 2))


def _rotated_frames(F: np.ndarray, U: np.ndarray) -> np.ndarray:
    """F @ exp(U) for each row of an (m, p(p-1)/2) stack U of rotation
    coordinates (or an (m, 0) stack, read as zero rotation): a (m, p, p)
    stack.  A row with zero rotation is F as it is (exp of zero is exactly
    I); a row that moves one coordinate rotates two columns of F
    (``_rotate_planes``); the rows that move more go through
    ``_expm_skew`` together."""
    p = F.shape[0]
    moved = U != 0.0
    count = moved.sum(axis=1)
    O = np.repeat(F[None], len(U), axis=0)
    one = np.flatnonzero(count == 1)
    if one.size:
        k = moved[one].argmax(axis=1)
        s, t = (ix[k] for ix in _triu(p, 1))
        _rotate_planes(O, one, s, t, U[one, k])
    many = np.flatnonzero(count > 1)
    if many.size:
        W = np.zeros((many.size, p, p))
        W[(slice(None), *_triu(p, 1))] = U[many]
        O[many] = F @ _expm_skew(W - W.swapaxes(1, 2))
    return O


def _rotate_planes(O: np.ndarray, rows, s, t, theta) -> None:
    """In place, O[r] @ the plane rotation by theta on pair (s, t), for each
    (r, s, t, theta) of the equal-length arrays: only columns s and t of
    O[r] change, to cos * col_s - sin * col_t and sin * col_s + cos * col_t."""
    c, sn = np.cos(theta)[:, None], np.sin(theta)[:, None]
    cs, ct = O[rows, :, s], O[rows, :, t]
    O[rows, :, s] = c * cs - sn * ct
    O[rows, :, t] = sn * cs + c * ct


def exp_skew(u: SkewParams) -> np.ndarray:
    """Matrix exponential of the skew matrix built from ``u``, orthogonal to
    rounding at any angle: the chart's frame (``_rotated_frames``) on the
    identity, so exactly I at zero, the plane rotation when one coordinate
    is non-zero, else read off an eigendecomposition."""
    return _rotated_frames(np.eye(u.dim), u.coords[None])[0]


def _expm_skew(U: np.ndarray) -> np.ndarray:
    # 1j U is Hermitian: with 1j U = V diag(w) V^H, exp(U) = V diag(e^-iw) V^H.
    # U may be a stack of skew matrices.
    w, V = np.linalg.eigh(1j * U)
    return ((V * np.exp(-1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)).real


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
    return SpdMatrix(_chart(base, np.concatenate([base.eigenvalues, u.coords])[None])[0])


def to_natural(S) -> NaturalCoords:
    """Natural parameters of the zero-mean Gaussian with covariance S."""
    S = as_spd(S)
    return NaturalCoords(S.dim, _natural_packed(S.matrix))


def _natural_packed(cov: np.ndarray) -> np.ndarray:
    """``to_natural(cov).theta`` for a symmetric covariance, or one row per
    matrix of a stack of them, unvalidated."""
    prec = np.linalg.inv(cov)
    prec = 0.5 * (prec + prec.swapaxes(-1, -2))
    rows, cols = _triu(cov.shape[-1])
    packed = -prec[..., rows, cols]
    packed[..., rows == cols] *= 0.5
    return packed


def from_natural(coords: NaturalCoords) -> SpdMatrix:
    """Invert to_natural.  Raises NotPositiveDefinite when the implied
    precision matrix is not SPD."""
    rows, cols = _triu(coords.dim)
    prec = np.zeros((coords.dim, coords.dim))
    prec[rows, cols] = prec[cols, rows] = -coords.theta
    prec[np.diag_indices_from(prec)] *= 2.0
    cov = np.linalg.inv(SpdMatrix(prec).matrix)
    return SpdMatrix(0.5 * (cov + cov.T))


def kl_divergence(S, T) -> float:
    """Kullback-Leibler divergence between zero-mean Gaussians with
    covariances S and T: trace(S T^-1) - log det(S T^-1) - p.

    Nonnegative, zero only at S = T, and asymmetric in its arguments.
    """
    S, T = as_spd(S), as_spd(T)
    if S.dim != T.dim:
        raise DimensionMismatch(f"dims {S.dim} and {T.dim} differ")
    X = np.linalg.solve(T.matrix, S.matrix)  # T^-1 S; same trace as S T^-1
    log_det_ratio = np.log(S.eigenvalues).sum() - np.log(T.eigenvalues).sum()
    return float(np.trace(X)) - float(log_det_ratio) - S.dim


def kl_project(S, gamma: np.ndarray) -> np.ndarray:
    """Diagonal of S in the frame ``gamma``: the eigenvalue vector of the
    KL-closest covariance among those with eigenvector frame ``gamma``.

    For each coordinate this is the minimizer of KL(S, gamma diag(x) gamma.T),
    so perturbing any returned entry strictly increases the divergence.
    A frame that is not orthogonal, or has a non-finite entry, is refused
    (ValueError).
    """
    S = as_spd(S)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (S.dim, S.dim):
        raise DimensionMismatch(f"frame shape {gamma.shape} does not match dim {S.dim}")
    _check_orthogonal(gamma, "frame")
    return np.einsum("ij,ik,kj->j", gamma, S.matrix, gamma)
