"""Semantic exception hierarchy shared by every module.

Public functions never raise bare ValueError/RuntimeError; they raise one of
the classes below so callers (and the CLI exit-code mapping) can tell a bad
argument from a numerical failure.  The integer argument check that every
module shares lives here too, beside the error it raises.
"""

import numbers
import operator


class MLEBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MLEBoundsError, ValueError):
    """An argument violates a documented precondition (wrong range, wrong
    parameter space, sample outside the support, unknown identifier)."""


class QuadratureError(MLEBoundsError, RuntimeError):
    """Adaptive integration exhausted its refinement budget before meeting
    the requested tolerance, or the integrand produced non-finite values."""


class RootFindError(MLEBoundsError, RuntimeError):
    """The generic one-dimensional inversion failed to converge."""


class ConsistencyError(MLEBoundsError, RuntimeError):
    """Two algebraically equivalent computations disagreed beyond tolerance,
    or a model produced values that contradict its own contract."""


def _require_int(
    value, name: str, minimum: int = 1, context: str = "", maximum: int | None = None
) -> int:
    """``value`` as a Python int in [minimum, maximum], or DomainError.

    Accepts any ``numbers.Integral``, numpy integers included, and rejects
    ``bool``.  The caller must use the returned int: arithmetic on a numpy
    integer rounds differently from Python's exact integers.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        v = operator.index(value)
        if minimum <= v and (maximum is None or v <= maximum):
            return v
    allowed = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise DomainError(f"{name} must be an integer {allowed}{context}, got {value!r}")
