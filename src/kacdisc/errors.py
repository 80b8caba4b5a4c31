"""Exception types raised across the package."""


class KacdiscError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDegreeError(KacdiscError):
    """Leading coefficient is zero, so the stated degree is not attained."""


class NonFiniteCoefficientError(KacdiscError):
    """A coefficient is NaN or infinite."""


class NonConvergenceError(KacdiscError):
    """The root finder's Aberth candidate failed the residual check.

    Carries ``worst_residual`` so callers can report how far off the solve was.
    """

    def __init__(self, message: str, worst_residual: float):
        super().__init__(message)
        self.worst_residual = worst_residual


class DoubleRootError(KacdiscError):
    """A repeated root was detected; log|discriminant| is -inf."""


class OracleCapError(KacdiscError):
    """Degree exceeds the configured cap for the exact integer oracle."""


class GridCollisionError(KacdiscError):
    """A root lies on the unit circle, so a quadrature grid point may hit it."""


class InvalidBoundError(KacdiscError):
    """Angular-discrepancy bound invoked with an out-of-domain maximum."""


class ConfigurationError(KacdiscError, ValueError):
    """An experiment configuration lies outside the experiment's domain."""


class ExperimentIntegrityError(KacdiscError):
    """Too many per-trial failures for the experiment summary to be trusted."""


class EmptyInputError(KacdiscError):
    """A statistic was requested for an empty sample."""
