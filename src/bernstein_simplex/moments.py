"""Joint central moments of the multinomial: closed forms and an exact oracle.

Orders two to four have closed forms, built from the central moments of
one trial's one-hot vector (the bias brackets use them too).  The oracle
is the exact sum over every outcome, by the Poisson convolution fold of
``simplex._poisson_fold``; it enumerates no lattice and checks the closed forms independently.
Fourth moments grow as ``m^2``, checked here by dividing them by ``m^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, _as_int, _as_order, _list_items
from .simplex import SimplexPoint, _poisson_fold, _shares


@dataclass(frozen=True)
class MomentQuery:
    """A joint central moment request: indices are 1-based, repeats allowed."""

    m: int
    x: SimplexPoint
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", SimplexPoint.of(self.x))
        object.__setattr__(self, "m", _as_order(self.m, 0))
        indices = tuple(_as_int(i, "a moment index", least=1, most=self.x.d) for i in _list_items(self.indices, "moment indices"))
        if not 2 <= len(indices) <= 4:
            raise ValidationError(f"moment order must be 2..4, got {len(indices)}")
        object.__setattr__(self, "indices", indices)


def _trial_moment(coords: Sequence[float], indices: Sequence["int | np.ndarray"]) -> "float | np.ndarray":
    """One trial's joint central moment ``mu_A = sum_c x_c prod_{a in A} (delta_ca - x_a)`` over the d + 1 categories.

    The 0-based ``indices`` may be int arrays of one shape, such as the rows of ``np.indices``, for a whole tensor.
    """
    shares = _shares(coords)
    x = np.array(shares[:-1])
    return sum(math.prod(((c == a) - x[a] for a in indices), start=share) for c, share in enumerate(shares))


def central_moment_analytic(query: MomentQuery) -> float:
    """Closed-form joint central moment of order two, three or four.

    K is a sum of m independent one-hot trials, so its moment is m times a
    single trial's (:func:`_trial_moment`), plus at order four the pair term
    ``m (m - 1) (s_ij s_kl + s_ik s_jl + s_il s_jk)`` with the covariances
    ``s`` of one trial (Ouimet, arXiv:2006.09059).
    """
    x, m = query.x.coords, query.m
    indices = [i - 1 for i in query.indices]
    value = m * _trial_moment(x, indices)
    if len(indices) == 4:
        i, j, k, ell = indices
        s = lambda a, b: _trial_moment(x, (a, b))  # noqa: E731
        value += m * (m - 1) * (s(i, j) * s(k, ell) + s(i, k) * s(j, ell) + s(i, ell) * s(j, k))
    return float(value)


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
    indices = _list_items(indices, "moment indices")
    if len(indices) != 4:
        raise ValidationError(f"need exactly 4 indices, got {len(indices)}")
    point = SimplexPoint.of(x)
    orders = [_as_order(m, 1) for m in _list_items(m_grid, "m_grid")]  # m = 0 would divide by zero below
    return [abs(central_moment_bruteforce(MomentQuery(m=m, x=point, indices=indices))) / float(m) ** 2 for m in orders]
