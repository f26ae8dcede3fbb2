"""Exception types shared across the package, and its one rule each for integers in a range (orders, sample sizes, seeds, counts, dimensions and indices), lists of integers, real numbers and a real m and n."""

import contextlib
import numbers
import sys
from typing import Iterable, Mapping


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition.

    The CLI maps this to exit code 1.
    """


class SizeLimitError(RuntimeError):
    """Raised when a lattice enumeration would exceed the configured size cap.

    The CLI maps this to exit code 2.
    """


def _as_int(value: object, what: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` as an int of at least ``least`` and at most ``most``, or a :class:`ValidationError` naming ``what``.

    Ints (numpy ints too), integral floats and strings that ``int()`` reads
    (as JSON object keys are) pass; bools, non-integral numbers and
    everything else are refused rather than truncated.  ``most`` needs ``least``.
    """
    result = None
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            result = int(value)
    elif not isinstance(value, bool):  # a bool is an int to Python, but never an intended count or index
        if isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer():
            result = int(value)
    if result is None:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if least is not None and (result < least or most is not None and result > most):
        bounds = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValidationError(f"{what} must be {bounds}, got {result}")
    return result


def _list_items(values: object, what: str) -> tuple:
    """The items of ``values``, a list of integers that the caller converts one by one, or a :class:`ValidationError` naming ``what``.

    A string, a mapping and anything not iterable are refused whole rather
    than read item by item: ``"12"`` is not the list ``[1, 2]``.
    """
    if isinstance(values, (str, Mapping)) or not isinstance(values, Iterable):
        raise ValidationError(f"{what} must be a list of integers, got {values!r}")
    return tuple(values)


def _as_real(value: object, requirement: str, holds=lambda v: True) -> float:
    """``value`` as a float if it is a real number for which ``holds`` is true, else a :class:`ValidationError`.

    The message is ``{requirement}, got {value!r}``, the requirement naming
    the value and its rule, as in ``"lambda must be >= 0"``.  Bools, strings
    and other non-numbers are refused rather than converted, and so is an
    int beyond float range; ints, floats and numpy numbers pass.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and holds(value):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValidationError(f"{requirement}, got {value!r}")


def _check_mn(m: object, n: object = 1.0) -> None:
    """Refuse a bandwidth ``m`` or sample size ``n`` that is not a positive real of float range, by :func:`_as_real`."""
    for what, value in (("bandwidth 'm'", m), ("sample size 'n'", n)):
        _as_real(value, f"{what} must be a finite positive number", lambda v: 0 < v <= sys.float_info.max)
