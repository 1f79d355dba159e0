"""Exception hierarchy.

Two broad families: structural problems with a model or its serialized
form (``ModelError``) and failures of the numerical machinery
(``NumericError``). The CLI maps these to exit codes 2 and 3, and
every other ``RobkfError`` to exit code 1.
"""

__all__ = [
    "RobkfError",
    "ModelError",
    "DimensionMismatch",
    "SingularDD",
    "V0NotSPD",
    "NotReachable",
    "NotObservable",
    "ModelIOError",
    "ConfigError",
    "OutputError",
    "NumericError",
    "NotSPD",
    "NotOrdered",
    "DomainViolation",
    "ToleranceUnreachable",
    "NonConvergence",
    "MaxIterExceeded",
    "SearchFailed",
    "RiskSensitiveModeUnsupported",
]


class RobkfError(Exception):
    """Base class for every error raised by this package."""


class ModelError(RobkfError):
    """A state-space model (or its file form) is structurally invalid."""


class DimensionMismatch(ModelError):
    """Matrix or vector shapes are mutually inconsistent."""


class SingularDD(ModelError):
    """D Dᵀ is not positive definite, so no measurement noise floor exists."""


class V0NotSPD(ModelError):
    """Initial covariance V₀ is not symmetric positive definite."""


class NotReachable(ModelError):
    """(A, B) fails the reachability rank test."""


class NotObservable(ModelError):
    """(A, C) fails the observability rank test."""


class ModelIOError(ModelError):
    """A model or data file is missing, unreadable, or malformed."""


class ConfigError(RobkfError):
    """A filter configuration mixes fields that do not belong together."""


class OutputError(RobkfError):
    """An output file or stream could not be written."""


class NumericError(RobkfError):
    """Base class for numerical failures."""


class NotSPD(NumericError):
    """A matrix required to be symmetric positive definite is not."""


class NotOrdered(NumericError):
    """An expected Loewner ordering between two matrices fails."""


class DomainViolation(NumericError):
    """An argument left the open domain of a matrix function."""


class ToleranceUnreachable(NumericError):
    """The requested divergence radius exceeds what any admissible theta attains."""


class NonConvergence(NumericError):
    """A scalar root-finder failed to converge."""


class MaxIterExceeded(NumericError):
    """Fixed-point iteration hit its iteration cap.

    The partial result is attached as ``report`` so callers can inspect
    how far the iteration got.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SearchFailed(NumericError):
    """No positive phi_N exists: the closed form's Omega_N is singular or
    R_N lacks full row rank (possible only for a block length N < n)."""


class RiskSensitiveModeUnsupported(RobkfError):
    """Risk-sensitive certification requested for a tau it does not cover."""
