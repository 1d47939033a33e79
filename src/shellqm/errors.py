"""Exception types raised across the package."""


class ShellQMError(Exception):
    """Base class for all errors raised by shellqm."""


class InvalidArgumentError(ShellQMError, ValueError):
    """An argument lies outside its valid range (too few trials, a non-finite
    flow parameter, ...)."""


class DimensionMismatchError(ShellQMError):
    """Operands have incompatible dimensions."""


class OffShellError(ShellQMError):
    """A vector does not satisfy the shell norm constraint."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"vector is off shell (norm residual {residual:.3e})")


class ZeroVectorError(ShellQMError):
    """All components are numerically zero; no shell representative exists."""


class NotHermitianError(ShellQMError):
    """Matrix fails the Hermiticity check."""


class NonRealValueError(ShellQMError):
    """A Poisson bracket evaluated to a non-finite value.  Observable values
    need no such check: their kernels are exactly Hermitian."""


class NotVanishingAtRestError(ShellQMError):
    """Observable function does not vanish at the rest point."""


class NoConvergenceError(ShellQMError):
    """Iteration budget exhausted before reaching the convergence criterion."""

    def __init__(self, message: str, best_value: float | None = None):
        self.best_value = best_value
        super().__init__(message)


class DegenerateProjectionUnderflowError(ShellQMError):
    """Collapse projection has numerically zero norm (forced zero-probability outcome)."""


class InsufficientTrialsError(ShellQMError):
    """Too few trials: pooling left fewer than two categories."""


class ScenarioParseError(ShellQMError):
    """Scenario document is malformed."""


class ScenarioValidationError(ShellQMError):
    """Scenario parsed but violates a validity constraint."""
