"""Exception taxonomy shared by all modules."""


class OUSpectralError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(OUSpectralError):
    """Matrix argument is not square."""


class DefectiveMatrixError(OUSpectralError):
    """Drift matrix has no complete eigenbasis to working tolerance."""


class UnstableDriftError(OUSpectralError):
    """Drift matrix has an eigenvalue whose real part is not negative."""


class NotSPDError(OUSpectralError):
    """Matrix expected to be symmetric positive definite is not."""


class SingularSystemError(OUSpectralError):
    """Linear system assembled from the inputs could not be solved."""


class DimensionMismatchError(OUSpectralError):
    """Operands disagree on the number of variables or dimensions."""


class AxisOutOfRangeError(OUSpectralError):
    """Variable axis index outside 0..nvars-1."""


class ModeOutOfRangeError(OUSpectralError):
    """Ladder mode index outside 0..N-1."""


class ModeIndexMismatchError(OUSpectralError):
    """Mode multi-index has wrong length or negative entries."""


class NotCanonicalError(OUSpectralError):
    """Model is not in canonical coordinates (stationary covariance I/2)."""


class NonFiniteResultError(OUSpectralError):
    """A computed value overflowed to infinity or became NaN."""


class NotSolvableError(OUSpectralError):
    """Inhomogeneous source has a stationary component; no solution exists."""


class ConfigError(OUSpectralError):
    """Configuration file is missing, malformed, or fails validation."""
