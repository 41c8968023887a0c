"""Exception types shared across the solver kit."""


class GarzError(Exception):
    """Base class for every error raised by this package."""


class InputRangeError(GarzError, ValueError):
    """An argument lies outside the admissible range (rho, u, cfl, ...)."""


class InvalidDataError(GarzError, ValueError):
    """Initial data violates a structural requirement (range, sign, margins)."""


class GridMismatchError(GarzError, ValueError):
    """Two fields that must share a grid do not."""


class CflViolationError(GarzError, RuntimeError):
    """A step was attempted with dt above the stable limit."""


class ModelValidationError(GarzError, RuntimeError):
    """The velocity closure failed validation on the working box."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegeneratePairError(GarzError, ValueError):
    """Stability measurement needs two distinct initial data."""


class PicardDivergenceError(GarzError, RuntimeError):
    """The fixed-point iteration did not reach tol_phi within the budget."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConfigError(GarzError, ValueError):
    """A run configuration could not be parsed or is inconsistent."""
