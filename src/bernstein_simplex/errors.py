"""Exception types shared across the package, and its one rule each for integer inputs, orders, sample sizes and seeds."""

import numbers


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition.

    The CLI maps this to exit code 1.
    """


class SizeLimitError(RuntimeError):
    """Raised when a lattice enumeration would exceed the configured size cap.

    The CLI maps this to exit code 2.
    """


def _as_int(value: object, what: str) -> int:
    """``value`` as an int, or a :class:`ValidationError` naming ``what``.

    Ints (numpy ints too), integral floats and strings that ``int()`` reads
    (as JSON object keys are) pass; bools, non-integral numbers and
    everything else are refused rather than truncated.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, bool):
        pass  # an int to Python, but never an intended count or index
    elif isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _as_order(m: object, least: int) -> int:
    """The order ``m`` as an int of at least ``least``, by :func:`_as_int`, or a :class:`ValidationError`."""
    m = _as_int(m, "order m")
    if m < least:
        raise ValidationError(f"order m must be >= {least}, got {m}")
    return m


def _as_sample_size(n: object) -> int:
    """The sample size ``n`` as an int of at least 1, by :func:`_as_int`, or a :class:`ValidationError`."""
    n = _as_int(n, "sample size n")
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    return n


def _as_seed(seed: object) -> int:
    """A random seed as a non-negative int, by :func:`_as_int`, or a :class:`ValidationError` naming 'seed'."""
    seed = _as_int(seed, "'seed'")
    if seed < 0:
        raise ValidationError(f"'seed' must be a non-negative integer, got {seed}")
    return seed
