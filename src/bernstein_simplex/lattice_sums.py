"""Exact finite-bandwidth lattice sums and their predicted limits.

Two families of sums drive the variance expansions: power sums of the
multinomial weights over the lattice, and the min-coupling sums measuring
how much the smoothed cdf of two independent draws co-moves.  Both are
computed exactly here (up to floating point) so the predicted limits can
be verified numerically at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asymptotics import BoundaryProfile, _boundary_factor
from .bessel import poisson_within_one_probability
from .errors import _as_int, _as_real
from .simplex import SimplexPoint, _log_multinomial_pmfs, _poisson_fold, _poisson_log_row, lattice_array


def sum_pmf_power(m: int, x: "SimplexPoint | float | Sequence[float]", power: int) -> float:
    """Sum of the order-(m-1) multinomial weights raised to ``power`` (2 or 3), by a convolution fold.

    With ``M = m - 1``, Multinomial(M, x)(k) is ``prod_j Pois(k_j; M x_j) /
    Pois(M; M)`` over the d + 1 categories (see ``simplex._poisson_fold``),
    so the sum is the fold of the rows ``Pois(t; M x_j) ** power`` divided
    by ``Pois(M; M) ** power``.  All terms are positive, so nothing
    cancels.  Cost O(d M^2), memory O(d M); no lattice is enumerated.
    Refused with :class:`SizeLimitError` when the fold multiplies more
    terms than the lattice cap.
    """
    power = _as_int(power, "power", least=2, most=3)
    m = _as_int(m, "order m", least=1)
    x = SimplexPoint.of(x)
    big_m = m - 1
    folded = _poisson_fold(big_m, x, f"power sum for (m={m}, d={x.d})", lambda j, rate, log_row: np.exp(power * log_row))
    return folded / np.exp(power * _poisson_log_row(big_m, float(big_m)))[-1]


# ---------------------------------------------------------------------------
# min-coupling sums (univariate reduction)
# ---------------------------------------------------------------------------

def min_coupling_sum(m: int, x_p: float) -> float:
    """``E[min(K, L)/m] - x_p`` for K, L independent Binomial(m, x_p).

    Each coordinate of the multinomial is binomial, so the d-dimensional
    double sum over index pairs collapses to this univariate quantity.  It
    is computed in O(m) through the survival-function identity
    ``E[min(K, L)] = sum_t P(K >= t)^2`` and is always <= 0.
    """
    m = _as_int(m, "order m", least=1)
    x_p = _as_real(x_p, "x_p must lie strictly in (0, 1)", lambda v: 0 < v < 1)
    pmf = np.exp(next(_log_multinomial_pmfs(lattice_array(m, 1), m, [(x_p,)])))
    # survival[t] = P(K >= t); reversed cumsum avoids cancellation in the tail
    survival = np.cumsum(pmf[::-1])[::-1]
    e_min = float(np.sum(survival[1:] ** 2))
    return e_min / m - x_p


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumDiagnostic:
    """One exact-vs-predicted comparison at a given bandwidth."""

    quantity: str
    m: int
    exact: float
    scaled_exact: float
    prediction: float
    rel_gap: float


def _diagnostic(quantity: str, m: int, exact: float, scaled: float, pred: float) -> SumDiagnostic:
    gap = abs(scaled - pred) / abs(pred) if pred != 0.0 else abs(scaled)
    return SumDiagnostic(
        quantity=quantity, m=m, exact=exact, scaled_exact=scaled, prediction=pred, rel_gap=gap
    )


def pmf_square_diagnostics(
    profile: BoundaryProfile, m_grid: Sequence[int]
) -> list[SumDiagnostic]:
    """Squared-weight sums scaled by ``m^((d-|J|)/2)`` against their limit, per bandwidth."""
    pred = _boundary_factor(profile)
    rows = []
    for m in m_grid:
        exact = sum_pmf_power(m, profile.realized_point(m), 2)
        scaled = m ** ((profile.d - profile.j_size) * 0.5) * exact
        rows.append(_diagnostic("pmf_square_sum", int(m), exact, scaled, pred))
    return rows


def min_coupling_diagnostics(
    profile: BoundaryProfile, p: int, m_grid: Sequence[int]
) -> list[SumDiagnostic]:
    """Min-coupling sums of coordinate ``p``, scaled by ``m`` on J and ``sqrt(m)`` off it, against their limits.

    The scaled sum of a scaling coordinate tends to ``-lam (P{X=Y} + P{X-Y=1})``
    with the Poisson factors at ``lam``; that of a fixed coordinate to the
    normal-range constant ``-sqrt(x(1-x)/pi)``.
    """
    p = _as_int(p, "coordinate index p", least=1, most=profile.d)
    if p in profile.j_set:
        lam = profile.boundary[p]
        pred = -lam * poisson_within_one_probability(lam)
    else:
        x_p = profile.interior[p]
        pred = -math.sqrt(x_p * (1.0 - x_p) / math.pi)
    rows = []
    for m in m_grid:
        exact = min_coupling_sum(m, profile.realized_point(m)[p - 1])
        scaled = (m if p in profile.j_set else math.sqrt(m)) * exact
        rows.append(_diagnostic(f"min_coupling_x{p}", int(m), exact, scaled, pred))
    return rows

