"""The package's one rule for integer inputs: ints and their exact spellings pass, nothing is truncated."""

import numpy as np
import pytest

from bernstein_simplex import ValidationError
from bernstein_simplex.errors import _as_int


@pytest.mark.parametrize("value", [3, np.int64(3), 3.0, np.float64(3.0), "3", " 3 "])
def test_integers_pass(value):
    result = _as_int(value, "field 'k'")
    assert result == 3 and type(result) is int


@pytest.mark.parametrize(
    "value", [2.5, np.float64(2.5), True, np.bool_(True), "2.5", "three", "", None, float("nan"), float("inf"), [3]]
)
def test_everything_else_is_refused_naming_the_field(value):
    with pytest.raises(ValidationError, match="field 'k' must be an integer, got "):
        _as_int(value, "field 'k'")


def test_ints_beyond_float_range_pass():
    assert _as_int(10**400, "field 'k'") == 10**400


@pytest.mark.parametrize(
    "value,least,most,message",
    [(0, 1, None, ">= 1, got 0"), (-1, 1, None, ">= 1, got -1"), ("0", 1, None, ">= 1, got 0"),
     (0, 1, 3, "in 1..3, got 0"), (4, 1, 3, "in 1..3, got 4"), (4.0, 1, 3, "in 1..3, got 4")],
)
def test_bounds_are_checked_after_the_conversion(value, least, most, message):
    with pytest.raises(ValidationError, match=f"^field 'k' must be {message}$"):
        _as_int(value, "field 'k'", least, most)


@pytest.mark.parametrize("value,least,most", [(1, 1, None), (10**20, 1, None), (1, 1, 1), ("3", 1, 3), (2.0, 1, 3)])
def test_values_within_the_bounds_pass(value, least, most):
    assert _as_int(value, "field 'k'", least, most) == int(value)
