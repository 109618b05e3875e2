"""Exception types shared across the package."""


class ConesumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ConesumError, ValueError):
    """A parameter lies outside the documented domain of an operation."""


class UnsupportedMultiplicityError(ConesumError, LookupError):
    """The closed-form sphere multiplicity is not an integer at the requested mode."""


class SolverDisagreementError(ConesumError):
    """Independent solvers disagree beyond the configured tolerance."""


class ConvergenceError(ConesumError):
    """Mesh refinement did not converge, or an eigensolve produced unusable output."""


class ZeroModeMismatchError(ConesumError):
    """Numerically counted zero modes differ from the analytic harmonic count."""


class ConfigError(ConesumError, ValueError):
    """A run configuration failed schema or consistency validation."""
