import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bernstein_simplex
from bernstein_simplex import (
    ValidationError,
    bessel_i,
    bessel_i0,
    bessel_i1,
    bessel_i_scaled,
    min_coupling_factor,
    poisson_equal_probability,
    poisson_within_one_probability,
)


def series_oracle_z2(nu: int, terms: int = 40) -> tuple[float, float]:
    """Exact-rational partial sum of the series at z = 2, with a tail bound.

    At z = 2 every term is 1 / (k! (k + nu)!), so the sum is a rational
    number; the tail after ``terms`` terms is below twice the next term.
    """
    total = Fraction(0)
    fact = [Fraction(1)]
    for k in range(1, terms + 3):
        fact.append(fact[-1] * k)
    for k in range(terms):
        total += Fraction(1) / (fact[k] * fact[k + nu])
    tail_bound = 2 * Fraction(1) / (fact[terms] * fact[terms + nu])
    return float(total), float(tail_bound)


# frozen from the rational oracle above
I0_AT_2 = 2.2795853023360673
I1_AT_2 = 1.5906368546373291


class TestSeriesValues:
    def test_zero_argument(self):
        assert bessel_i(0, 0.0).value == 1.0
        assert bessel_i(1, 0.0).value == 0.0

    def test_oracle_freeze(self):
        for nu, frozen in ((0, I0_AT_2), (1, I1_AT_2)):
            value, tail = series_oracle_z2(nu)
            assert tail < 1e-30
            assert value == pytest.approx(frozen, rel=1e-15)

    def test_matches_oracle_at_two(self):
        assert bessel_i0(2.0) == pytest.approx(I0_AT_2, rel=1e-12)
        assert bessel_i1(2.0) == pytest.approx(I1_AT_2, rel=1e-12)

    def test_matches_scipy_on_grid(self):
        scipy_special = pytest.importorskip("scipy.special")
        for nu in (0, 1):
            for z in (0.1, 0.7, 2.0, 6.5, 17.0, 40.0):
                assert bessel_i(nu, z).value == pytest.approx(
                    float(scipy_special.iv(nu, z)), rel=1e-12
                )

    def test_remainder_bound_recorded(self):
        result = bessel_i(0, 3.0)
        assert result.terms_used > 3
        assert 0.0 <= result.remainder_bound < 1e-12 * result.value

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            bessel_i(0, -1.0)
        with pytest.raises(ValidationError):
            bessel_i(2, 1.0)


class TestWholeDomain:
    """Every argument terminates: subnormal, overflowing and in between."""

    @pytest.mark.parametrize("z", [5e-324, 1e-300])
    def test_tiny_arguments(self, z):
        for nu in (0, 1):
            result = bessel_i(nu, z)
            assert result.remainder_bound == 0.0
            assert result.value == pytest.approx(1.0 if nu == 0 else z / 2, rel=1e-15, abs=1e-323)

    @pytest.mark.parametrize("z", [5e-324, 1e-300, 2.0, 40.0, 700.0, 710.0, 1e4])
    def test_scaled_matches_scipy(self, z):
        scipy_special = pytest.importorskip("scipy.special")
        for nu, oracle in ((0, scipy_special.i0e), (1, scipy_special.i1e)):
            result = bessel_i_scaled(nu, z)
            want = float(oracle(z))
            assert result.value == pytest.approx(want, rel=1e-13, abs=1e-323)
            assert 0.0 <= result.remainder_bound <= 1e-13 * want + 1e-323

    @pytest.mark.parametrize("z", [700.0, 710.0])
    def test_unscaled_in_asymptotic_range(self, z):
        scipy_special = pytest.importorskip("scipy.special")
        for nu, oracle in ((0, scipy_special.i0e), (1, scipy_special.i1e)):
            want = float(oracle(z)) * math.exp(z / 2) * math.exp(z / 2)
            assert bessel_i(nu, z).value == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "call",
        ["bessel_i(0, nan)", "bessel_i_scaled(1, nan)", "poisson_equal_probability(nan)",
         "poisson_within_one_probability(nan)", "min_coupling_factor(nan)"],
    )
    def test_nan_is_refused(self, call):
        # in a child process, so that a call that never returns fails this test instead of stalling the suite
        script = f"from math import nan\nfrom bernstein_simplex import *\ntry:\n    {call}\nexcept ValidationError as e:\n    print(e)"
        src = os.path.dirname(os.path.dirname(bernstein_simplex.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10, env=env)
        except subprocess.TimeoutExpired:
            pytest.fail(f"{call} did not return within 10 s")
        assert result.returncode == 0 and "nan" in result.stdout, result.stderr

    def test_overflow_raises(self):
        for nu in (0, 1):
            with pytest.raises(ValidationError, match="overflows"):
                bessel_i(nu, 1e4)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
    def test_small_lambda_keeps_unscaled_rounding(self, lam):
        z = 2.0 * lam
        assert poisson_equal_probability(lam) == math.exp(-z) * bessel_i0(z)
        assert poisson_within_one_probability(lam) == math.exp(-z) * (bessel_i0(z) + bessel_i1(z))

    def test_large_lambda_factors_are_finite(self):
        assert 0.0 < poisson_equal_probability(400.0) < 1.0
        assert 0.0 < poisson_within_one_probability(400.0) < 1.0
        assert 0.0 < min_coupling_factor(400.0) < 400.0
        # P{X = Y} ~ (4 pi lam)^(-1/2) for large lam
        assert poisson_equal_probability(400.0) == pytest.approx((4 * math.pi * 400.0) ** -0.5, rel=1e-3)


class TestDerivedFactors:
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 0.05, 0.5, 1.0, 4.0, 20.0])
    def test_equal_probability_in_unit_interval(self, lam):
        value = poisson_equal_probability(lam)
        assert 0.0 < value <= 1.0
        assert (value == 1.0) == (lam == 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1e-8, 0.3, 1.0, 10.0])
    def test_within_one_probability_in_unit_interval(self, lam):
        value = poisson_within_one_probability(lam)
        assert 0.0 < value <= 1.0

    def test_within_one_tends_to_one(self):
        assert 1.0 - poisson_within_one_probability(1e-8) < 1e-6

    def test_min_coupling_factor_vanishes_at_zero(self):
        assert min_coupling_factor(0.0) == 0.0
        assert min_coupling_factor(1e-8) < 1e-7
        assert min_coupling_factor(2.0) > 0.0

    # Relative bound, derived for z = 2 lam.  Below z = 2 the value is lam e^-z (I_1 + 2 sum_k I_k) with positive
    # terms: each I_k series stops at a term below 1e-14 of its sum while term ratios are below (z/2)^2 / 6 < 1/6
    # (drops < 1.2e-14), the sum over k stops at a term below 1e-14 of the sum while I_(k+1)/I_k < 1/3 (drops
    # < 1e-14), and about 40 roundings of positive terms add < 5e-15.  From z = 2 on, 1 - P multiplies P's error
    # (< 1.3e-14: truncation and about 10 roundings at z = 2, shrinking against 1 - P as z grows) by
    # P/(1 - P) <= 1.1.  Below lam = 1.5e-154 the value lam^2 (1 + O(lam)) is subnormal or underflows, so one
    # subnormal step is allowed on top.  Measured worst: 9.9e-15, at lam = 1.4e-7.
    MIN_COUPLING_REL = 3e-14

    @pytest.mark.parametrize("lam", [*(10.0**e for e in range(-300, 0, 10)), 0.1, 0.25, 0.5, 0.75, 0.999, 1.0, 1.001,
                                     1.5, 3.0, 10.0, 100.0, 1e3])
    def test_min_coupling_factor_against_mpmath(self, lam):
        mpmath = pytest.importorskip("mpmath")
        # 1 - P cancels about log10(1/lam) digits for lam < 1, so mpmath works with that many more than 50
        with mpmath.workdps(50 + max(0, int(-math.log10(lam)))):
            z = 2 * mpmath.mpf(lam)
            want = mpmath.mpf(lam) * (1 - mpmath.exp(-z) * (mpmath.besseli(0, z) + mpmath.besseli(1, z)))
            assert abs(min_coupling_factor(lam) - want) <= self.MIN_COUPLING_REL * want + 5e-324

    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_series_nondecreasing_in_argument(self, z, delta):
        for nu in (0, 1):
            assert bessel_i(nu, z + delta).value >= bessel_i(nu, z).value
