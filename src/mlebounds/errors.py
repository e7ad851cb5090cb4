"""Semantic exception hierarchy shared by every module, and the argument checks.

Public functions never raise bare ValueError/RuntimeError; they raise one of
the classes below so callers (and the CLI exit-code mapping) can tell a bad
argument (DomainError) from a numerical failure (QuadratureError,
ConsistencyError).

Every scalar argument of a public function or dataclass goes through one of
the two helpers at the end, and no other module checks a scalar by hand:
:func:`_require_int` for counts, sizes and seeds (any ``numbers.Integral``
in a range; a count a float holds), :func:`_require_real` for real
parameters (any finite ``numbers.Real`` of kind ``"positive"``,
``"non-negative"`` or ``"finite"``).  Both accept numpy scalars and return
the Python number, which callers use, so a numpy scalar gives the Python
result; ``bool``, strings and other non-numbers raise DomainError.  Arrays
(samples, values of a test function) are checked by the code owning them.
"""

import math
import numbers
import operator
import sys

# Every count (n, trials, size) is used as a float, so none may pass this.
_COUNT_MAX = int(sys.float_info.max)

__all__ = [
    "ConsistencyError",
    "DomainError",
    "MLEBoundsError",
    "QuadratureError",
]


class MLEBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MLEBoundsError, ValueError):
    """An argument violates a documented precondition (wrong range, wrong
    parameter space, sample outside the support, unknown identifier)."""


class QuadratureError(MLEBoundsError, RuntimeError):
    """Adaptive integration exhausted its refinement budget before meeting
    the requested tolerance, or the integrand produced non-finite values."""


class ConsistencyError(MLEBoundsError, RuntimeError):
    """A model produced values that contradict its own contract: a negative
    Fisher information, an MLE from its closed-form inverse that fails
    D(theta_hat) = mean T, or a declared identity D whose D' is not 1."""


def _require_int(
    value, name: str, minimum: int = 1, context: str = "", maximum: int | None = None
) -> int:
    """``value`` as a Python int in [minimum, maximum], or DomainError.

    Without a ``maximum`` it is a count, refused above the largest float
    before any arithmetic uses it.  Accepts any ``numbers.Integral``, numpy
    integers included, and rejects ``bool``.  The caller must use the
    returned int: a numpy integer rounds differently from Python's ints.
    """
    # The exact-type test skips the much slower ABC check for a plain int.
    if type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    ):
        v = operator.index(value)
        if minimum <= v <= (_COUNT_MAX if maximum is None else maximum):
            return v
        if maximum is None and v > _COUNT_MAX:
            context = f" that a float can hold (at most {sys.float_info.max!r}){context}"
    allowed = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise DomainError(f"{name} must be an integer {allowed}{context}, got {value!r}")


def _require_real(value, name: str, kind: str = "positive") -> float:
    """``value`` as a finite Python float of the given ``kind``, or
    DomainError.

    ``kind`` is ``"positive"`` (> 0), ``"non-negative"`` (>= 0) or
    ``"finite"`` (any finite value), and words the error message.  Accepts
    any ``numbers.Real``, numpy floats and integers included, and rejects
    ``bool`` and integers too large for a float.
    """
    # The exact-type test skips the much slower ABC check for a plain float.
    if type(value) is float:
        v = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:
            v = math.inf
    else:
        v = math.nan
    # NaN fails every test, and so does any value under an unknown kind.
    if kind == "positive":
        if 0.0 < v < math.inf:
            return v
    elif kind == "non-negative":
        if 0.0 <= v < math.inf:
            return v
    elif kind == "finite" and math.isfinite(v):
        return v
    raise DomainError(f"{name} must be a {kind} real number, got {value!r}")
