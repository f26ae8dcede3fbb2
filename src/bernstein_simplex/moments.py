"""Joint central moments of the multinomial: closed forms and enumeration.

Orders two and three have exact closed forms; order four only carries an
``O(m^2)`` growth bound, checked here by dividing enumerated moments by
``m^2``.  The enumeration path doubles as an independent oracle for the
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, _as_int, _as_order
from .simplex import SimplexPoint, lattice_array, log_multinomial_pmf


@dataclass(frozen=True)
class MomentQuery:
    """A joint central moment request: indices are 1-based, repeats allowed."""

    m: int
    x: SimplexPoint
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", SimplexPoint.of(self.x))
        object.__setattr__(self, "m", _as_order(self.m, 0))
        indices = tuple(_as_int(i, "a moment index", least=1, most=self.x.d) for i in self.indices)
        if not 2 <= len(indices) <= 4:
            raise ValidationError(f"moment order must be 2..4, got {len(indices)}")
        object.__setattr__(self, "indices", indices)


def central_moment_analytic(query: MomentQuery) -> float:
    """Closed-form joint central moment of order two or three."""
    x = query.x.coords
    m = query.m
    if len(query.indices) == 2:
        i, j = (k - 1 for k in query.indices)
        return m * (x[i] * (1.0 if i == j else 0.0) - x[i] * x[j])
    if len(query.indices) == 3:
        i, j, ell = (k - 1 for k in query.indices)
        xi, xj, xl = x[i], x[j], x[ell]
        return m * (
            2.0 * xi * xj * xl
            - (xi * xl if i == j else 0.0)
            - (xi * xj if j == ell else 0.0)
            - (xj * xl if i == ell else 0.0)
            + (xi if i == j == ell else 0.0)
        )
    raise ValidationError(
        "no closed form for order-4 central moments; use central_moment_bruteforce"
    )


def central_moment_bruteforce(query: MomentQuery) -> float:
    """Joint central moment by full enumeration of multinomial outcomes."""
    x = query.x
    karr = lattice_array(query.m, x.d)
    probs = np.exp(log_multinomial_pmf(karr, query.m, x))
    centered = karr.astype(float) - query.m * x.array
    product = np.ones(len(karr))
    for i in query.indices:
        product *= centered[:, i - 1]
    return float(np.dot(product, probs))


def fourth_moment_scaling(
    m_grid: Sequence[int],
    x: "SimplexPoint | float | Sequence[float]",
    indices: Sequence[int],
) -> list[float]:
    """``|fourth central moment| / m^2`` along a bandwidth grid.

    The sequence stays bounded as the bandwidth grows; callers assert the
    trend they need.
    """
    indices = tuple(indices)
    if len(indices) != 4:
        raise ValidationError(f"need exactly 4 indices, got {len(indices)}")
    point = SimplexPoint.of(x)
    orders = [_as_order(m, 1) for m in m_grid]  # m = 0 would divide by zero below
    return [abs(central_moment_bruteforce(MomentQuery(m=m, x=point, indices=indices))) / float(m) ** 2 for m in orders]
