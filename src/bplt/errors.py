"""Exception types shared across the package, and the one check of k."""

import operator


class DomainError(ValueError):
    """A parameter lies outside the range where a formula or solver is valid."""


class SizeGuardError(ValueError):
    """An exact computation was requested on an instance above its size guard."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _check_k(k, least, error=DomainError):
    """``k`` as a Python int, or ``error`` unless it is an integer of at
    least ``least``; operator.index refuses 3.5, which int would truncate."""
    try:
        k = operator.index(k)
    except TypeError:
        raise error(f"k must be an integer, got {k!r}") from None
    if k < least:
        raise error(f"k must be >= {least}")
    return k
