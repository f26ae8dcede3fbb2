"""Geometry of the unit simplex and exact multinomial weight evaluation.

The unit simplex in dimension ``d`` is the set of points with nonnegative
coordinates summing to at most one.  Smoothing weights are probabilities of
a Multinomial(m, x) outcome ``k``, evaluated in log space so that orders in
the hundreds (needed for asymptotic checks) do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import SizeLimitError, ValidationError, _as_int, _as_real

#: Tolerance used when validating simplex membership of a single point.
COORD_TOLERANCE = 1e-12

#: Refuse to enumerate lattices, build dense grids or run Poisson convolution folds with more points, cells or terms than this.
MAX_LATTICE_SIZE = 10**8


def _row_sums(arr: np.ndarray) -> np.ndarray:
    """``arr.sum(axis=1)`` bit for bit, for a C-order float64 or int64 ``arr``; at d = 1 the column itself, a view.

    Below 8 columns numpy adds a row's entries one after another onto +0.0,
    and from 8 on it sums them in pairwise blocks.  Adding whole columns in
    that order gives the same bits without a reduction per row.
    """
    d = arr.shape[1]
    if d == 1:
        return arr[:, 0]
    if d >= 8:
        return arr.sum(axis=1)
    out = arr[:, 0] + arr[:, 1]
    for j in range(2, d):
        out += arr[:, j]
    if out.dtype.kind == "f":
        out += 0.0  # the +0.0 numpy starts from: a row of -0.0 sums to 0.0
    return out


def _validated_points(
    arr: np.ndarray, tol: float = COORD_TOLERANCE, lines: Sequence[int] | None = None, label: str = ""
) -> np.ndarray:
    """``arr`` checked, clipped and rescaled onto the simplex: the one rule for points and data rows.

    The result is one new read-only C-order float array; the caller's is never
    written.  Clean rows pass on the copy's minimum and largest row sum alone;
    only when those are out of range do the row scans run, to find the first
    fault and name its row.  Errors name a row by ``label`` if one is given,
    else by ``lines[index]``, else 1-based.
    """
    if arr.ndim != 2:
        raise ValidationError("data must be a 2-d array of shape (n, d)")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise ValidationError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
    name = lambda row: label or f"row {row + 1 if lines is None else lines[row]}"  # noqa: E731
    # numpy sums a row in an order that depends on the memory layout; one layout, one result
    arr = np.array(arr, dtype=float, order="C")
    low = arr.min()
    if -tol <= low <= 0.0:  # -0.0 too, as it prints differently; below -tol the scans raise on the values as given
        np.maximum(arr, 0.0, out=arr)
    sums = _row_sums(arr)
    high = sums.max()
    if not (low >= -tol and high <= 1.0 + tol):  # NaN fails both comparisons
        if not np.isfinite(arr).all():
            row = int(np.argwhere(~np.isfinite(arr))[0, 0])
            raise ValidationError(f"{name(row)}: non-finite value")
        if (arr < -tol).any():
            row = int(np.argwhere(arr < -tol)[0, 0])
            raise ValidationError(f"{name(row)}: negative coordinate beyond tolerance")
        row = int(np.argmax(sums > 1.0 + tol))
        raise ValidationError(f"{name(row)}: coordinate sum {float(sums[row])!r} > 1 beyond tolerance")
    if high > 1.0:
        over = sums > 1.0
        arr[over] /= sums[over, None]
    arr.setflags(write=False)
    return arr


def _shares(coords: "Sequence[float] | np.ndarray") -> tuple[float, ...]:
    """The d + 1 category shares of a point, as floats: its coordinates, then the remainder clamped at 0."""
    coords = np.asarray(coords, dtype=float).ravel().tolist()
    return (*coords, max(0.0, 1.0 - sum(coords)))


@dataclass(frozen=True)
class SimplexPoint:
    """A validated point of the unit simplex.

    Coordinates must be real numbers (not bools or strings), nonnegative
    and sum to at most one; violations up to ``COORD_TOLERANCE`` are
    clamped, larger ones raise :class:`ValidationError`; a one-row dataset
    passes the same rule.
    """

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        if not (isinstance(coords, np.ndarray) and coords.dtype.kind in "iuf"):
            for value in np.asarray(coords, dtype=object).ravel():
                _as_real(value, "a simplex point coordinate must be a real number")
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValidationError("a simplex point needs a one-dimensional sequence of at least one coordinate")
        row = _validated_points(arr[None, :], label=f"simplex point {tuple(arr.tolist())}")
        object.__setattr__(self, "coords", tuple(row[0].tolist()))

    @classmethod
    def of(cls, value: "SimplexPoint | float | Sequence[float]") -> "SimplexPoint":
        """Coerce a scalar, sequence or SimplexPoint into a SimplexPoint."""
        if isinstance(value, SimplexPoint):
            return value
        # an array keeps its dtype; anything else is read as objects, so a bool or a string in it meets the check
        return cls(np.atleast_1d(value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)))

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    @property
    def remainder(self) -> float:
        """Mass left for the implicit last coordinate, ``1 - sum(coords)`` clamped at 0."""
        return _shares(self.coords)[-1]


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------

def lattice_size(m: int, d: int) -> int:
    """Number of nonnegative integer vectors of length ``d >= 1`` with sum <= ``m >= 0``."""
    m = _as_int(m, "order m", least=0)
    d = _as_int(d, "dimension d", least=1)
    return math.comb(m + d, d)


def check_cap(count: int, what: str) -> None:
    """Refuse with :class:`SizeLimitError` a ``count`` of points, cells or terms above the cap; ``what`` says whose."""
    if count > MAX_LATTICE_SIZE:
        raise SizeLimitError(f"{what}, exceeding the cap of {MAX_LATTICE_SIZE}")


def lattice_array(m: int, d: int) -> np.ndarray:
    """All integer vectors ``k >= 0`` with ``sum(k) <= m``, as an ``(N, d)`` int array.

    Rows are in lexicographic order, fixed so that downstream outputs are
    reproducible byte-for-byte.  The array grows one trailing coordinate
    at a time: each row of the shorter lattice is repeated once for every
    value ``0..m - sum(row)`` the new coordinate can take.
    """
    m, d = _as_int(m, "order m", least=0), _as_int(d, "dimension d", least=1)
    size = lattice_size(m, d)
    check_cap(size, f"lattice for (m={m}, d={d}) has {size} points")
    out = np.arange(m + 1, dtype=np.int64)[:, None]
    for width in range(2, d + 1):
        room = m + 1 - _row_sums(out)
        grown = np.empty((lattice_size(m, width), width), dtype=np.int64)
        for j in range(width - 1):
            grown[:, j] = np.repeat(out[:, j], room)
        starts = np.cumsum(room) - room
        np.subtract(np.arange(len(grown)), np.repeat(starts, room), out=grown[:, -1])
        out = grown
    return out


# ---------------------------------------------------------------------------
# log-factorial table
# ---------------------------------------------------------------------------

_log_fact_cache = np.zeros(1)


def log_factorials(n: int) -> np.ndarray:
    """Cumulative table ``[log(0!), ..., log(n!)]``, grown lazily and cached.

    Growth builds the new table in a local and swaps it in only if it is
    longer than the cached one, and the slice is taken from the local, so
    concurrent callers always get a full prefix even when their growths
    race.
    """
    global _log_fact_cache
    table = _log_fact_cache
    if n >= len(table):
        top = max(n, 2 * len(table))
        table = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, top + 1.0)))])
        if len(table) > len(_log_fact_cache):
            _log_fact_cache = table
    return table[: n + 1]


# ---------------------------------------------------------------------------
# Poisson convolution fold
# ---------------------------------------------------------------------------

def _poisson_log_row(big_m: int, rate: float) -> np.ndarray:
    """``log Pois(t; rate)`` for ``t = 0..big_m``; a zero rate is the point mass at 0 (``0**0 == 1``)."""
    if rate == 0.0:
        row = np.full(big_m + 1, -np.inf)
        row[0] = 0.0
        return row
    return np.arange(big_m + 1) * math.log(rate) - rate - log_factorials(big_m)


def _poisson_fold(
    big_m: int, x: SimplexPoint, what: str, weight: Callable[[int, float, np.ndarray], np.ndarray]
) -> float:
    """Entry ``big_m`` of the convolution of one weighted Poisson row per category of ``x``.

    The categories are the d coordinates and the remainder ``x_{d+1} = 1 -
    sum(x)``.  Category ``j`` has the rate ``big_m x_j`` and contributes the
    row ``weight(j, rate, log Pois(t; rate))``, ``t = 0..big_m``.  Since
    Multinomial(M, x)(k) is ``prod_j Pois(k_j; M x_j) / Pois(M; M)`` with
    ``k_{d+1} = M - sum(k)``, the entry is a sum over every outcome of
    Multinomial(big_m, x) without enumerating them: each convolution is
    cut back to ``0..big_m`` and the last one is a single dot product.
    Cost O(d M^2), memory O(d M).  The fold multiplies ``(d - 1) C(M + 2,
    2)`` terms (``M + 1`` at d = 1); above the lattice cap it is refused
    with :class:`SizeLimitError`, naming ``what``, before any row is built.
    """
    terms = big_m + 1 if x.d == 1 else (x.d - 1) * math.comb(big_m + 2, 2)
    check_cap(terms, f"{what} folds {terms} terms")
    rates = [big_m * share for share in _shares(x.coords)]
    rows = [weight(j, rate, _poisson_log_row(big_m, rate)) for j, rate in enumerate(rates)]
    folded = rows[0]
    for row in rows[1:-1]:
        folded = np.convolve(folded, row)[: big_m + 1]
    return float(folded @ rows[-1][::-1])


# ---------------------------------------------------------------------------
# multinomial pmf
# ---------------------------------------------------------------------------

def log_multinomial_pmf(karr: np.ndarray, m: int, x: SimplexPoint) -> np.ndarray:
    """Log pmf of Multinomial(m, x) at each row of ``karr``.

    ``karr`` has shape ``(N, d)``; entries with zero probability get
    ``-inf``.  The convention ``0**0 == 1`` applies, so boundary points of
    the simplex are legal arguments.
    """
    karr = np.asarray(karr, dtype=np.int64)
    if karr.ndim != 2 or karr.shape[1] != x.d:
        raise ValidationError(f"index array of shape {karr.shape} needs {x.d} columns, one per coordinate")
    if np.any(karr < 0) or np.any(_row_sums(karr) > m):
        raise ValidationError("lattice indices must be >= 0 with sum <= m")
    return next(_log_multinomial_pmfs(karr, m, [x.coords]))


def _log_multinomial_pmfs(karr: np.ndarray, m: int, xs: Iterable[Sequence[float]]) -> Iterator[np.ndarray]:
    """:func:`log_multinomial_pmf` at each coordinate row of ``xs``, for an int64 ``karr`` valid by construction; nothing is re-checked."""
    lf, rem_k = log_factorials(m), m - _row_sums(karr)
    coef = lf[m] - _row_sums(lf[karr]) - lf[rem_k]  # the log coefficients, built once: only the powers of x depend on the point
    for coords in xs:
        out = coef
        for ki, xi in zip((*karr.T, rem_k), _shares(coords)):
            if xi > 0.0:
                out = out + ki * math.log(xi)
            else:
                out = np.where(ki > 0, -np.inf, out)
        yield out
