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
