"""Exception types shared across the package, and the checks of a count setting and a seed."""

import numbers


class InvalidInputError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalFailureError(RuntimeError):
    """Raised when an optimization run produces non-finite values.

    Carries the iteration index at which the failure was detected.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


def require_count(name, value, least=1):
    """Refuse a count setting that is not an integer (numpy's included) or is below ``least``."""
    if not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")


def require_seed(name, value):
    """Refuse a seed that is not an integer (numpy's included) in [0, 2**63)."""
    if not isinstance(value, numbers.Integral) or not 0 <= value < 2**63:
        raise InvalidInputError(f"{name} must be an integer in [0, 2**63), got {value!r}")
