"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An operation was called outside its stated preconditions."""


class UnsupportedParameterError(ValueError):
    """A parameter value outside the supported set (e.g. smoothness nu)."""


class UnreachableAccuracyError(RuntimeError):
    """No approximant in the search schedule meets the requested accuracy."""

    def __init__(self, message, best_k=None, best_eps=None):
        super().__init__(message)
        self.best_k = best_k
        self.best_eps = best_eps


class PoleEvaluationError(ZeroDivisionError):
    """A rational approximant was evaluated exactly at one of its poles."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


class PivotBreakdownError(NumericalFailureError):
    """A pivot in the shifted-LU recurrence fell below the underflow guard;
    ``column`` is the monitored column it broke."""

    def __init__(self, message, pole=None, column=None):
        super().__init__(message)
        self.pole = pole
        self.column = column


class QuadratureDomainError(ValueError):
    """f is undefined at a quadrature node (Ritz value)."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class CalibrationFailedError(RuntimeError):
    """The pilot run could not produce a usable tolerance."""
