"""Exception types shared across the package, and the argument checks."""

import numbers


class TilqError(Exception):
    """Base class for all package errors."""


class AssumptionError(TilqError):
    """A coefficient violates one of the standing problem assumptions."""


class ConvergenceError(TilqError):
    """A fixed-point solve failed; carries the iteration diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConsistencyError(TilqError):
    """Two redundant computations of the same quantity disagreed."""


class ProblemFileError(TilqError):
    """A problem file failed to parse, validate, or satisfy the assumptions."""


def _require_count(name: str, value) -> None:
    """Raise TilqError unless ``value`` is an integer >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise TilqError(f"{name} must be an integer >= 1, got {value!r}")


def _require_real(name: str, value) -> None:
    """Raise TilqError unless ``value`` is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TilqError(f"{name} must be a real number, got {value!r}")
