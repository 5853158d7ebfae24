"""Exception hierarchy shared across the package."""


class GaussminError(Exception):
    """Base class for all package errors."""


class DomainError(GaussminError):
    """A point or measure lies outside the domain of a kernel or scale function."""


class NotPositiveSemidefiniteError(GaussminError):
    """A matrix fails the PSD check (its Cholesky factor fails at the largest jitter)."""


class GridMismatchError(GaussminError):
    """Two grid-supported objects do not live on compatible grids."""


class OptimizerError(GaussminError):
    """The simplex solver could not produce a usable solution."""


class ClosedFormError(GaussminError):
    """Hypotheses of an analytic construction are violated."""


class EstimationError(GaussminError):
    """A Monte Carlo estimator could not produce a valid result."""


class ConfigError(GaussminError):
    """Invalid CLI configuration or arguments."""
