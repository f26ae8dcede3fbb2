"""The package's one rule for integer inputs (ints and their exact spellings pass, nothing is truncated) and for real ones."""

import numpy as np
import pytest

from bernstein_simplex import (
    BoundaryProfile,
    Experiment,
    MomentQuery,
    SimplexPoint,
    ValidationError,
    bessel_i,
    bessel_i_scaled,
    dirichlet_model,
    fourth_moment_scaling,
    min_coupling_factor,
    min_coupling_sum,
    poisson_equal_probability,
    psi,
    sum_pmf_power,
)
from bernstein_simplex.errors import _as_int, _as_real


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


@pytest.mark.parametrize("value", [0.5, 1, np.float64(0.5), np.int64(1), 1e308])
def test_real_numbers_pass(value):
    result = _as_real(value, "field 'v' must be a real number")
    assert result == float(value) and type(result) is float


@pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", "", None, [0.5], 0.5j, 10**400])
def test_everything_else_is_refused_as_a_real_number(value):
    with pytest.raises(ValidationError, match="^field 'v' must be a real number, got "):
        _as_real(value, "field 'v' must be a real number")


@pytest.mark.parametrize("value", [0.0, -1, float("nan")])
def test_a_real_number_outside_the_rule_is_refused(value):
    with pytest.raises(ValidationError, match=f"^field 'v' must be positive, got {value!r}$"):
        _as_real(value, "field 'v' must be positive", lambda v: v > 0)


@pytest.mark.parametrize(
    "call",
    [lambda: dirichlet_model([True, 2]), lambda: dirichlet_model(["2", "2"]), lambda: bessel_i(0, "1"),
     lambda: bessel_i(0, True), lambda: poisson_equal_probability(True), lambda: min_coupling_factor("1"),
     lambda: min_coupling_sum(10, "0.5"), lambda: BoundaryProfile(d=1, boundary={1: True}),
     lambda: BoundaryProfile(d=1, boundary={1: "1.0"}), lambda: BoundaryProfile(d=1, interior={1: "0.5"}),
     lambda: SimplexPoint.of("0.5"), lambda: SimplexPoint.of(True), lambda: SimplexPoint.of([0.2, True]),
     lambda: SimplexPoint.of(np.array([True, False])), lambda: SimplexPoint.of(np.array(["0.5"])),
     lambda: SimplexPoint.of([0.2, None]), lambda: SimplexPoint((0.2, "0.3")), lambda: sum_pmf_power(10, True, 2),
     lambda: bessel_i(True, 2.0)],
    ids=["alpha-bool", "alpha-strings", "bessel-string", "bessel-bool", "poisson-bool", "coupling-factor-string",
         "coupling-sum-string", "lambda-bool", "lambda-string", "interior-string", "point-string", "point-bool",
         "point-bool-in-list", "point-bool-array", "point-string-array", "point-object-array", "point-constructor",
         "power-sum-bool-point", "bessel-order-bool"],
)
def test_bools_and_strings_are_not_read_as_real_numbers(call):
    # each of these ran as a number (a bool as 0 or 1, a numeric string as its value) or ended in a raw TypeError
    with pytest.raises(ValidationError, match=" must (be|lie) .*, got "):
        call()


@pytest.mark.parametrize("bessel", [bessel_i, bessel_i_scaled])
@pytest.mark.parametrize("nu", [0, 1])
def test_an_integral_float_order_is_the_integer_order(bessel, nu):
    # 1.0 and 0.0 ended in "TypeError: 'float' object cannot be interpreted as an integer"
    assert bessel(float(nu), 2.0) == bessel(nu, 2.0)
    assert type(bessel(float(nu), 2.0).order) is int


def _experiment(m_grid):
    return Experiment(model_name="uniform", model_params={"d": 1}, profile=BoundaryProfile(d=1, boundary={1: 1.0}),
                      kind="density", m_grid=m_grid, n_grid=(100,), replicates=2, seed=1)


@pytest.mark.parametrize(
    "call,message",
    [(lambda: _experiment("12"), "experiment field 'm_grid' must be a list of integers, got '12'"),
     (lambda: MomentQuery(m=5, x=(0.2, 0.3), indices="12"), "moment indices must be a list of integers, got '12'"),
     (lambda: fourth_moment_scaling("12", (0.2, 0.3), (1, 1, 2, 2)), "m_grid must be a list of integers, got '12'"),
     (lambda: fourth_moment_scaling([10], (0.2, 0.3), "1122"), "moment indices must be a list of integers, got '1122'"),
     (lambda: psi((0.2, 0.3), "12"), "psi subset must be a list of integers, got '12'"),
     (lambda: psi((0.2, 0.3), {1: 2}), "psi subset must be a list of integers, got {1: 2}"),
     (lambda: MomentQuery(m=5, x=(0.2, 0.3), indices=1), "moment indices must be a list of integers, got 1")],
    ids=["experiment-grid", "moment-query-indices", "fourth-moment-grid", "fourth-moment-indices", "psi-subset",
         "psi-mapping", "moment-query-int"],
)
def test_a_string_or_mapping_is_not_a_list_of_integers(call, message):
    # a string was read one character at a time: "12" ran m = 1 and m = 2, or indices (1, 2), and psi returned 0.4594
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_real_numbers_keep_their_values():
    assert SimplexPoint.of([1, 0]).coords == (1.0, 0.0) == SimplexPoint.of(np.array([1, 0])).coords
    assert SimplexPoint.of(np.float64(0.3)).coords == SimplexPoint.of(0.3).coords == (0.3,)
    assert BoundaryProfile(d=1, boundary={1: 2}).boundary == {1: 2.0}
    assert dirichlet_model([2, 3]).density(np.array([0.3])) == dirichlet_model([2.0, 3.0]).density(np.array([0.3]))
