"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class StatmeanError(Exception):
    """Base class for all library errors."""


class ValidationError(StatmeanError):
    """A parameter or input is outside its declared range."""


class AccuracyError(StatmeanError):
    """A numerical routine could not reach its target tolerance.

    Carries the tolerance that was actually achieved so callers can decide
    whether the result is still usable.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class NearSingularError(StatmeanError):
    """A Toeplitz factorization broke down (reflection magnitude too close to 1).

    The recursion also carries the reflections it computed up to and including
    the offending one, so callers can locate the first coefficient past their
    own bound, and, on the all-ones pass, the variance curve at the orders
    below the failing one (rounded to double), so they can keep that prefix.
    """

    def __init__(self, message: str, order: int, extended: bool = False,
                 reflections=None, curve=None):
        super().__init__(message)
        self.order = order
        self.extended = extended
        self.reflections = reflections
        self.curve = curve


class NearTrivialMeasureError(StatmeanError):
    """The orthogonal-polynomial recursion produced a recursion coefficient of modulus >= 1."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index
