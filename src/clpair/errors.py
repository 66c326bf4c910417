"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the physically admissible domain."""


class ConvergenceError(RuntimeError):
    """Quadrature or iteration failed to reach the requested tolerance.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message, best_estimate=None, previous_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.previous_estimate = previous_estimate


class SingularPointError(ValueError):
    """Evaluation requested at a singular point (e.g. k = 0)."""


class ResolutionError(ValueError):
    """Grid too coarse to resolve the structure it must represent."""


class ConsistencyError(RuntimeError):
    """Internal cross-check failed (e.g. kernel symmetry violation)."""


class ConfigError(ValueError):
    """Malformed or contradictory run configuration."""
