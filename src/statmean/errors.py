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
    """A Toeplitz pass stopped short of the order asked: a breakdown (reflection
    magnitude too close to 1), a lost pivot, or a variance out of range.

    Raised by the readers of the pass that need the whole order; the pass
    itself, with the orders it reached, is `toeplitz.levinson_pass`.  order
    is where it stopped: for a stop of the pass, the first order its variance
    curve does not reach.
    """

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


class NearTrivialMeasureError(StatmeanError):
    """The orthogonal-polynomial recursion produced a recursion coefficient of modulus >= 1."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index
