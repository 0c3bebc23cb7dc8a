"""Exception hierarchy and warnings.

Every failure mode the library can diagnose maps to one exception class so
callers (and the CLI exit-code logic) can branch on type instead of message
text.
"""

from __future__ import annotations


def _restore(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class DysonMapError(Exception):
    """Base class for all library errors.

    Pickles with its attributes without calling ``__init__``, so subclasses
    taking keyword-only arguments survive the trip back from a worker
    process.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


class InvalidDimensionError(DysonMapError):
    """Truncation dimension or index out of the allowed range."""


class ExponentialRangeError(DysonMapError):
    """An initial map exp[gamma0 a + lambda0 a†] overflows."""


class SingularityError(DysonMapError):
    """A coefficient function hits a value that divides something."""


class IllConditionedError(DysonMapError):
    """Reciprocal condition number below the safe floor.

    Carries it and, when raised from a trajectory, the time stamp of the
    offending sample.
    """

    def __init__(self, message: str, *, rcond: float, t: float | None = None):
        super().__init__(message)
        self.rcond = rcond
        self.t = t


class StepSizeError(DysonMapError):
    """Step-size guard refused the grid; carries a workable step count.

    The count is None when H's norm is beyond floating-point range, where no
    step count satisfies the guard.
    """

    def __init__(self, message: str, *, recommended_steps: int | None):
        super().__init__(message)
        self.recommended_steps = recommended_steps


class DivergenceError(DysonMapError):
    """Non-finite values appeared during integration."""

    def __init__(self, message: str, *, t: float):
        super().__init__(message)
        self.t = t


class ScenarioInvalidError(DysonMapError):
    """Scenario violates the constraints required for a constant metric.

    ``failed_checks`` lists the names of the violated conditions.
    """

    def __init__(
        self, message: str, *, failed_checks: tuple[str, ...], report: object | None = None
    ):
        super().__init__(message)
        self.failed_checks = failed_checks
        self.report = report


class ConfigError(DysonMapError):
    """Scenario file or CLI configuration is malformed."""


class TruncationWarning(UserWarning):
    """State mass in the guard band exceeded the reporting threshold."""
