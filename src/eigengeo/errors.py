"""Exception and warning types shared across the package."""


class EigengeoError(Exception):
    """Base class for all domain errors raised by this package."""


class NotPositiveDefinite(EigengeoError):
    """A matrix required to be symmetric positive definite is not."""


class NearDegenerateSpectrum(EigengeoError):
    """Eigenvalues are tied or too close for spectral coordinates.

    Spectral coordinates (and every formula with a 1/(lambda_a - lambda_b)
    pole) are ill-defined when eigenvalues coalesce; callers must separate
    the spectrum or avoid these charts.
    """


class DimensionMismatch(EigengeoError):
    """Operands have incompatible dimensions."""


class IndexOutOfRange(EigengeoError, IndexError):
    """An eigenvalue index or index pair is outside the valid range."""


class QuadratureUnderflow(EigengeoError):
    """A row's quadrature log-weight terms are not finite; the integral is unusable.

    Raised when the terms hold a NaN or are all -inf, as when exp(-log lam)
    overflows for eigenvalues near the bottom of the float range.
    """


class OptimizerFailure(EigengeoError):
    """The eigen-LRT profile maximizer gave no certified maximum.

    Raised when the EM ascent ends below its best starting point, or when a
    row is still above the gradient tolerance once the SQUAREM cycle budget
    is spent.
    """


class NotPositiveDefiniteWarning(UserWarning):
    """A first-order approximation produced a non-positive-definite matrix."""
