"""Joint central moments of the multinomial: closed forms and an exact oracle.

Orders two to four have closed forms, built from the central moments of
one trial's one-hot vector.  The oracle is the exact sum over every
outcome, by the Poisson convolution fold of ``simplex._poisson_fold``; it
enumerates no lattice and checks the closed forms independently.
Fourth moments grow as ``m^2``, checked here by dividing them by ``m^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, _as_int, _as_order
from .simplex import SimplexPoint, _poisson_fold


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


def _trial_moment(x: SimplexPoint, indices: Sequence[int]) -> float:
    """``mu_A = sum_c x_c prod_{a in A} (delta_ca - x_a)`` over the d + 1 categories.

    This is the joint central moment of the 1-based ``indices`` for a single
    trial, whose outcome is the one-hot vector of its category.
    """
    shares = (*x.coords, x.remainder)
    return sum(share * math.prod(float(c == a - 1) - x.coords[a - 1] for a in indices) for c, share in enumerate(shares))


def central_moment_analytic(query: MomentQuery) -> float:
    """Closed-form joint central moment of order two, three or four.

    K is a sum of m independent one-hot trials, so the moments of order two
    and three are m times a single trial's.  Order four is ``m mu_ijkl +
    m (m - 1) (s_ij s_kl + s_ik s_jl + s_il s_jk)``, with ``mu`` and the
    covariances ``s`` of one trial (Ouimet, arXiv:2006.09059).
    """
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
    i, j, k, ell = query.indices
    s = lambda a, b: _trial_moment(query.x, (a, b))  # noqa: E731
    pairs = s(i, j) * s(k, ell) + s(i, k) * s(j, ell) + s(i, ell) * s(j, k)
    return m * _trial_moment(query.x, query.indices) + m * (m - 1) * pairs


def central_moment_bruteforce(query: MomentQuery) -> float:
    """Joint central moment: the exact sum over every outcome, by a Poisson convolution fold.

    With ``c_j`` the number of times coordinate j appears in the indices,
    ``E prod_j (K_j - m x_j)^c_j`` is the fold of the rows ``Pois(t; m x_j)
    (t - m x_j)^c_j`` (the remainder category has ``c = 0``), divided by
    the fold of the plain Poisson rows.  That denominator is the total mass
    ``Pois(m; m)``; dividing by it rather than by its exact value cancels
    the rounding the two folds share.  Cost O(d m^2), and refused with
    :class:`SizeLimitError` when the fold multiplies more terms than the
    lattice cap.  No lattice is enumerated.
    """
    x, m = query.x, query.m
    counts = [query.indices.count(j + 1) for j in range(x.d)] + [0]
    t = np.arange(m + 1)
    what = f"central moment for (m={m}, d={x.d})"
    centred = _poisson_fold(m, x, what, lambda j, rate, log_row: np.exp(log_row) * (t - rate) ** counts[j])
    return centred / _poisson_fold(m, x, what, lambda j, rate, log_row: np.exp(log_row))


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
