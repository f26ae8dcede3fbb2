"""Modified Bessel functions of the first kind, orders 0 and 1 (any order in the private series).

Only nonnegative real arguments are needed here (they enter as ``2*lambda``
with a boundary parameter ``lambda``).  Below ``ASYMPTOTIC_FROM`` the power
series is summed directly with a geometric tail bound; from there on its
terms would overflow, and the scaled value ``e^{-z} I_nu(z)`` comes from the
large-argument expansion (Abramowitz & Stegun 9.7.1) with its own
remainder bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, _as_int, _as_real

#: Both expansions stop at the first term below this share of their partial sum.
DEFAULT_TOL = 1e-14

#: Arguments at and above this use the large-argument expansion; the series
#: terms overflow a little above 710.
ASYMPTOTIC_FROM = 700.0


@dataclass(frozen=True)
class BesselValue:
    """A truncated series value together with its remainder bound."""

    order: int
    argument: float
    value: float
    terms_used: int
    remainder_bound: float


def _check_arguments(nu: int, z: float) -> int:
    """The order ``nu`` as an int in 0..1, by :func:`_as_int`, once ``z`` is also found to be >= 0."""
    nu = _as_int(nu, "Bessel order nu", least=0, most=1)
    _as_real(z, "argument must be >= 0", lambda v: v >= 0)  # written so that NaN fails it too
    return nu


def _series(nu: int, z: float) -> BesselValue:
    if z == 0.0:
        return BesselValue(order=nu, argument=0.0, value=1.0 if nu == 0 else 0.0,
                           terms_used=1, remainder_bound=0.0)
    half_sq = (z / 2.0) ** 2
    term = (z / 2.0) ** nu / math.factorial(nu)
    total = term
    k = 0
    while True:
        next_term = term * half_sq / ((k + 1) * (k + 1 + nu))
        # an exact 0 means every later term underflows too (subnormal z)
        if next_term == 0.0 or next_term < DEFAULT_TOL * total:
            ratio = half_sq / ((k + 2) * (k + 2 + nu))
            remainder = next_term / (1.0 - ratio) if ratio < 1.0 else math.inf
            return BesselValue(order=nu, argument=float(z), value=total, terms_used=k + 1,
                               remainder_bound=remainder)
        term = next_term
        total += term
        k += 1


def _asymptotic_scaled(nu: int, z: float) -> BesselValue:
    """``e^{-z} I_nu(z)`` from A&S 9.7.1, for ``z >= ASYMPTOTIC_FROM``.

    ``sqrt(2 pi z) e^{-z} I_nu(z) ~ sum_k c_k`` with ``c_0 = 1`` and
    ``c_{k+1} = c_k ((2k+1)^2 - 4 nu^2) / (8 (k+1) z)``.  The sum stops once
    a term falls below ``DEFAULT_TOL`` times the partial sum, or would stop
    shrinking.  The remainder is bounded by ``2 chi(l) exp(chi(1) |nu^2 -
    1/4| / z)`` times the first omitted term, ``chi(l) = sqrt(pi)
    Gamma(l/2 + 1) / Gamma(l/2 + 1/2)``: Olver's bound for the Hankel
    expansion, which this one continues (DLMF 10.17(iv), 10.40(iii)).  The
    exponentially small part of relative size ``e^{-2z}`` underflows here.
    """
    mu = 4.0 * nu * nu
    term = 1.0
    total = term
    k = 0
    while True:
        next_term = term * ((2 * k + 1) ** 2 - mu) / (8.0 * (k + 1) * z)
        if abs(next_term) < DEFAULT_TOL * abs(total) or abs(next_term) >= abs(term):
            break
        term = next_term
        total += term
        k += 1
    used = k + 1
    chi = math.sqrt(math.pi) * math.exp(math.lgamma(used / 2 + 1) - math.lgamma(used / 2 + 0.5))
    factor = 2.0 * chi * math.exp(0.5 * math.pi * abs(nu * nu - 0.25) / z)
    norm = math.sqrt(2.0 * math.pi * z)
    return BesselValue(order=nu, argument=float(z), value=total / norm, terms_used=used,
                       remainder_bound=factor * abs(next_term) / norm)


def bessel_i(nu: int, z: float) -> BesselValue:
    """Evaluate I_nu(z) = sum_k (z/2)^(2k+nu) / (k! (k+nu)!) for nu in {0, 1}.

    The series is truncated once the next term falls below ``DEFAULT_TOL``
    times the partial sum, or is exactly 0; since successive term ratios
    decrease, the dropped tail is bounded by a geometric series and recorded
    in ``remainder_bound``.  From ``ASYMPTOTIC_FROM`` on, the value is
    ``e^z`` times :func:`bessel_i_scaled`; where that overflows a float,
    :class:`ValidationError` is raised.
    """
    nu = _check_arguments(nu, z)
    if z < ASYMPTOTIC_FROM:
        return _series(nu, z)
    scaled = _asymptotic_scaled(nu, z)
    # e^z overflows before I_nu(z) does, so apply it in two halves
    try:
        half = math.exp(0.5 * z)
    except OverflowError:
        half = math.inf
    value = scaled.value * half * half
    if not math.isfinite(value):
        raise ValidationError(f"I_{nu}({z}) overflows a float; use bessel_i_scaled")
    return BesselValue(order=nu, argument=float(z), value=value, terms_used=scaled.terms_used,
                       remainder_bound=scaled.remainder_bound * half * half)


def bessel_i_scaled(nu: int, z: float) -> BesselValue:
    """Evaluate ``e^{-z} I_nu(z)``, finite on the whole domain ``z >= 0``.

    Below ``ASYMPTOTIC_FROM`` this is ``e^{-z}`` times the series of
    :func:`bessel_i`; from there on it is the large-argument expansion.
    The remainder bound is on the same scale as the value.
    """
    nu = _check_arguments(nu, z)
    if z >= ASYMPTOTIC_FROM:
        return _asymptotic_scaled(nu, z)
    series = _series(nu, z)
    decay = math.exp(-z)
    return BesselValue(order=nu, argument=float(z), value=decay * series.value,
                       terms_used=series.terms_used, remainder_bound=decay * series.remainder_bound)


def bessel_i0(z: float) -> float:
    return bessel_i(0, z).value


def bessel_i1(z: float) -> float:
    return bessel_i(1, z).value


def _check_lambda(lam: float) -> None:
    _as_real(lam, "lambda must be >= 0", lambda v: v >= 0)  # NaN fails too


def poisson_equal_probability(lam: float) -> float:
    """P{X = Y} for X, Y independent Poisson(lam), i.e. exp(-2 lam) I_0(2 lam).

    This is the factor by which smoothing weights concentrate along a
    coordinate that sits a fixed number of lattice steps from the boundary.
    Equals 1 exactly at lam = 0 and decays like (4 pi lam)^(-1/2).
    """
    _check_lambda(lam)
    return bessel_i_scaled(0, 2.0 * lam).value


def poisson_within_one_probability(lam: float) -> float:
    """P{0 <= X - Y <= 1} for X, Y independent Poisson(lam).

    Equals exp(-2 lam)(I_0(2 lam) + I_1(2 lam)); tends to 1 as lam -> 0.
    """
    _check_lambda(lam)
    z = 2.0 * lam
    if z < ASYMPTOTIC_FROM:
        # scale the sum, not each term, so the value keeps its rounding
        return math.exp(-z) * (bessel_i0(z) + bessel_i1(z))
    return bessel_i_scaled(0, z).value + bessel_i_scaled(1, z).value


def min_coupling_factor(lam: float) -> float:
    """lam * (1 - P{0 <= X - Y <= 1}) for X, Y independent Poisson(lam).

    The coefficient of the smoothed-distribution variance contributed by a
    coordinate at lattice distance ``lam`` from the boundary.  Vanishes at
    lam = 0 and is nonnegative everywhere.  Below ``z = 2 lam = 2``, where P > 0.524 tends to 1,
    ``1 - P`` is the Skellam tail ``e^{-z} (I_1(z) + 2 sum_{k >= 2} I_k(z))``, summed until a term is 0
    or below ``DEFAULT_TOL`` of the sum; every term is positive, so nothing cancels.
    """
    _check_lambda(lam)
    z = 2.0 * lam
    if z >= 2.0:
        return lam * (1.0 - poisson_within_one_probability(lam))
    tail, k, term = _series(1, z).value, 1, math.inf
    while term > 0.0 and term >= DEFAULT_TOL * tail:
        k += 1
        term = _series(k, z).value
        tail += 2.0 * term
    return lam * (math.exp(-z) * tail)
