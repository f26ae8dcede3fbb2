import math

import numpy as np
import pytest

from bernstein_simplex import (
    BoundaryProfile,
    SizeLimitError,
    ValidationError,
    density_mse,
    dirichlet_model,
    lattice_size,
    min_coupling_diagnostics,
    min_coupling_sum,
    pmf_square_diagnostics,
    poisson_equal_probability,
    poisson_within_one_probability,
    simplex,
    sum_pmf_power,
)

from conftest import binom_pmf_exact, chain_pmf_power_sum, reference_pmf_power_sum

SQRT_PI = math.sqrt(math.pi)

PROFILES = {
    "d1-interior": BoundaryProfile.interior_point(0.5),
    "d1-boundary": BoundaryProfile(d=1, boundary={1: 1.0}),
    "d2-mixed": BoundaryProfile(d=2, boundary={2: 0.5}, interior={1: 0.4}),
    "d2-full": BoundaryProfile(d=2, boundary={1: 1.0, 2: 2.0}),
}


class TestPowerSums:
    def test_hand_enumeration_order_one(self):
        assert sum_pmf_power(2, 0.5, 2) == pytest.approx(0.5, abs=1e-14)

    def test_hand_enumeration_order_two(self):
        assert sum_pmf_power(3, 0.5, 2) == pytest.approx(0.375, abs=1e-14)

    def test_degenerate_point_gives_one(self):
        assert sum_pmf_power(6, (1.0, 0.0), 2) == pytest.approx(1.0, abs=1e-14)
        assert sum_pmf_power(6, 1.0, 2) == pytest.approx(1.0, abs=1e-14)

    def test_power_validation(self):
        with pytest.raises(ValidationError):
            sum_pmf_power(5, 0.5, 4)

    def test_non_integer_order_is_refused(self):
        with pytest.raises(ValidationError, match="order m must be an integer, got 2.5"):
            sum_pmf_power(2.5, 0.5, 2)
        with pytest.raises(ValidationError, match="order m must be an integer, got 2.5"):
            min_coupling_sum(2.5, 0.5)
        assert sum_pmf_power(3.0, 0.5, 2) == sum_pmf_power(3, 0.5, 2)

    @pytest.mark.parametrize("m,x", [(9, 0.3), (11, (0.2, 0.3)), (8, (0.1, 0.2, 0.5))])
    def test_cube_below_square_below_one(self, m, x):
        square = sum_pmf_power(m, x, 2)
        cube = sum_pmf_power(m, x, 3)
        assert 0.0 < cube <= square <= 1.0


#: points of every kind the fold must handle: interior, a face x_i = 0, the face sum(x) = 1, the vertices
FOLD_POINTS = {
    "d1-interior": (0.3,), "d1-sum-one": (1.0,), "d1-origin": (0.0,),
    "d2-interior": (0.2, 0.3), "d2-face": (0.0, 0.4), "d2-sum-one": (0.45, 0.55),
    "d2-origin": (0.0, 0.0), "d2-vertex1": (1.0, 0.0), "d2-vertex2": (0.0, 1.0),
    "d3-interior": (0.1, 0.2, 0.3), "d3-face": (0.0, 0.3, 0.2), "d3-sum-one": (0.2, 0.3, 0.5),
    "d3-origin": (0.0, 0.0, 0.0), "d3-vertex1": (1.0, 0.0, 0.0), "d3-vertex2": (0.0, 1.0, 0.0),
    "d3-vertex3": (0.0, 0.0, 1.0),
}


class TestConvolutionFold:
    @pytest.mark.parametrize("power", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 9, 50, 300])
    @pytest.mark.parametrize("name", list(FOLD_POINTS))
    def test_matches_enumeration(self, name, m, power):
        x = FOLD_POINTS[name]
        assert sum_pmf_power(m, x, power) == pytest.approx(reference_pmf_power_sum(m, x, power), rel=1e-11)

    def test_matches_binomial_chain_beyond_the_lattice_cap(self):
        # the lattice here has 1.3e9 points, above the cap; the fold multiplies 4.0e6 terms
        x = (0.001, 0.3, 0.2)
        assert sum_pmf_power(2000, x, 2) == pytest.approx(chain_pmf_power_sum(2000, x, 2), rel=1e-10)

    def test_size_rule_at_d3(self):
        # the fold multiplies (d - 1) C(m + 1, 2) terms: 99,990,000 at m = 9,999 and 100,010,000 at m = 10,000
        assert 0.0 < sum_pmf_power(9999, (2 / 9999, 0.3, 0.2), 2) < 1.0
        with pytest.raises(SizeLimitError, match="folds 100010000 terms, exceeding the cap of 100000000"):
            sum_pmf_power(10_000, (2 / 10_000, 0.3, 0.2), 2)

    @pytest.mark.parametrize("d", [1, 2])
    def test_size_rule_is_the_lattice_cap_up_to_d2(self, monkeypatch, d):
        monkeypatch.setattr(simplex, "MAX_LATTICE_SIZE", 1000)
        x = (0.3, 0.4)[:d]
        big_m = next(big_m for big_m in range(10_000) if lattice_size(big_m + 1, d) > 1000)  # the last order under the cap
        assert sum_pmf_power(big_m + 1, x, 2) > 0.0
        with pytest.raises(SizeLimitError):
            sum_pmf_power(big_m + 2, x, 2)

    def test_first_order_convergence_at_d3(self):
        # rel_gap shrinks like 2.74 / m on the benchmark's d = 3 profile, up to m = 9,999
        prof = BoundaryProfile(d=3, boundary={1: 2.0}, interior={2: 0.3, 3: 0.2})
        rows = pmf_square_diagnostics(prof, (1000, 3000, 9999))
        assert rows[0].rel_gap > rows[1].rel_gap > rows[2].rel_gap
        for row in rows:
            assert row.m * row.rel_gap == pytest.approx(2.74, rel=0.02)


def square_sum_limit(profile: BoundaryProfile) -> float:
    """The predicted limit of the scaled squared-weight sum, as the diagnostic rows carry it."""
    return pmf_square_diagnostics(profile, (50,))[0].prediction


class TestPredictedLimits:
    def test_interior_limit(self):
        assert square_sum_limit(PROFILES["d1-interior"]) == pytest.approx(
            1.0 / SQRT_PI, rel=1e-12
        )

    def test_boundary_limit(self):
        assert square_sum_limit(PROFILES["d1-boundary"]) == pytest.approx(
            poisson_equal_probability(1.0), rel=1e-12
        )
        assert square_sum_limit(PROFILES["d1-boundary"]) == pytest.approx(
            0.308508, abs=5e-7
        )

    def test_mixed_limit_with_zero_lambda(self):
        prof = BoundaryProfile(d=2, boundary={2: 0.0}, interior={1: 0.5})
        assert square_sum_limit(prof) == pytest.approx(1.0 / SQRT_PI, rel=1e-12)

    @pytest.mark.parametrize("name", list(PROFILES))
    def test_scaled_sums_converge(self, name):
        small, large = pmf_square_diagnostics(PROFILES[name], (50, 400))
        gap_small = abs(small.scaled_exact - small.prediction)
        gap_large = abs(large.scaled_exact - large.prediction)
        assert gap_large < gap_small

    @pytest.mark.parametrize("name", list(PROFILES))
    def test_cube_sums_stay_bounded(self, name):
        # the cube sum at the realized point, scaled by m^(d-|J|)
        prof = PROFILES[name]
        seq = [m ** (prof.d - prof.j_size) * sum_pmf_power(m, prof.realized_point(m), 3) for m in (50, 100, 200, 400)]
        assert max(seq) / min(seq) <= 1.25


class TestMinCoupling:
    def test_single_trial_identity(self):
        for x in (0.1, 0.3, 0.5, 0.9):
            assert min_coupling_sum(1, x) == pytest.approx(-x * (1 - x), abs=1e-14)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            m = int(rng.integers(2, 40))
            x = float(rng.uniform(0.05, 0.95))
            pmf = binom_pmf_exact(m, x)
            brute = sum(
                (min(k, ell) / m - x) * pmf[k] * pmf[ell]
                for k in range(m + 1)
                for ell in range(m + 1)
            )
            assert min_coupling_sum(m, x) == pytest.approx(brute, abs=1e-13)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = int(rng.integers(1, 200))
            x = float(rng.uniform(0.01, 0.99))
            assert min_coupling_sum(m, x) <= 0.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            min_coupling_sum(10, 0.0)
        with pytest.raises(ValidationError):
            min_coupling_sum(0, 0.5)

    def test_interior_large_m(self):
        value = math.sqrt(800) * min_coupling_sum(800, 0.25)
        assert value == pytest.approx(-math.sqrt(0.1875 / math.pi), rel=0.02)

    def test_boundary_large_m(self):
        value = 800 * min_coupling_sum(800, 1.0 / 800)
        assert value == pytest.approx(-poisson_within_one_probability(1.0), rel=0.02)


def coupling_prediction(m: int, profile: BoundaryProfile, p: int) -> float:
    """The predicted min-coupling sum at bandwidth ``m``: the diagnostic row's prediction over its scale."""
    (row,) = min_coupling_diagnostics(profile, p, (m,))
    return row.prediction / (m if p in profile.j_set else math.sqrt(m))


class TestMinCouplingLimit:
    def test_zero_lambda_coordinate_is_refused(self):
        # lambda = 0 realizes the coordinate at 0, outside the open interval the coupling sum needs; sums skips it
        prof = BoundaryProfile(d=2, boundary={1: 0.0}, interior={2: 0.5})
        with pytest.raises(ValidationError, match="strictly in"):
            min_coupling_diagnostics(prof, 1, (100,))

    def test_interior_half(self):
        prof = BoundaryProfile.interior_point(0.5)
        assert coupling_prediction(25, prof, 1) == pytest.approx(
            -1.0 / (2.0 * SQRT_PI) / 5.0, rel=1e-12
        )

    def test_boundary_unit_lambda(self):
        prof = BoundaryProfile(d=1, boundary={1: 1.0})
        assert coupling_prediction(50, prof, 1) == pytest.approx(-0.523773 / 50, abs=1e-7)

    def test_index_range(self):
        with pytest.raises(ValidationError):
            coupling_prediction(10, PROFILES["d1-interior"], 2)

    @pytest.mark.parametrize("m", [0, -4, math.nan, True])
    def test_bandwidth_must_be_a_finite_positive_number(self, m):
        # 0 divided by zero, NaN came back as NaN and True ran as m = 1
        with pytest.raises(ValidationError, match="bandwidth 'm' must be a finite positive number"):
            min_coupling_diagnostics(PROFILES["d1-boundary"], 1, (m,))


class TestDiagnostics:
    def test_square_sum_gap_shrinks(self):
        rows = pmf_square_diagnostics(PROFILES["d1-interior"], (100, 400))
        assert [r.m for r in rows] == [100, 400]
        assert rows[1].rel_gap < rows[0].rel_gap
        assert all(r.quantity == "pmf_square_sum" for r in rows)

    def test_min_coupling_rows(self):
        prof = PROFILES["d2-mixed"]
        rows = min_coupling_diagnostics(prof, 2, (50, 200))
        assert rows[0].prediction == pytest.approx(
            -0.5 * poisson_within_one_probability(0.5), rel=1e-12
        )
        assert rows[1].rel_gap < rows[0].rel_gap

    def test_coordinate_realized_at_one_is_refused(self):
        # lambda = m puts the coordinate at 1, outside the open interval the coupling sum needs
        with pytest.raises(ValidationError, match="strictly in"):
            min_coupling_diagnostics(BoundaryProfile(d=1, boundary={1: 10.0}), 1, (10,))

    @pytest.mark.parametrize("p,message", [(1.5, "must be an integer, got 1.5"), (True, "must be an integer, got True"),
                                           (3, "must be in 1..2, got 3")])
    def test_coordinate_index_is_refused(self, p, message):
        with pytest.raises(ValidationError, match="coordinate index p " + message):
            min_coupling_diagnostics(PROFILES["d2-mixed"], p, (50,))

    @pytest.mark.parametrize("p", ["2", 2.0])
    def test_coordinate_index_is_converted_once(self, p):
        # the index names the rows and picks the coordinate as the int it spells
        rows = min_coupling_diagnostics(PROFILES["d2-mixed"], p, (50, 200))
        assert [row.quantity for row in rows] == ["min_coupling_x2"] * 2
        assert rows == min_coupling_diagnostics(PROFILES["d2-mixed"], 2, (50, 200))

    def test_interior_scaling_uses_sqrt_m(self):
        prof = PROFILES["d1-interior"]
        rows = min_coupling_diagnostics(prof, 1, (64,))
        assert rows[0].scaled_exact == pytest.approx(8 * rows[0].exact, rel=1e-14)

    @pytest.mark.parametrize("name", list(PROFILES))
    def test_density_variance_shares_the_square_sum_limit(self, name):
        # the density variance factor is f on the slice times the squared-weight sum limit
        prof = PROFILES[name]
        model = dirichlet_model([1.0 if i in prof.boundary else 2.0 for i in range(1, prof.d + 1)] + [2.0])
        m, n = 400.0, 1e5
        scaled = density_mse(model, prof, m, n).terms["var_leading"] * n / m ** ((prof.d + prof.j_size) / 2)
        assert scaled == pytest.approx(model.density(prof.slice_point()) * square_sum_limit(prof), rel=1e-15)
