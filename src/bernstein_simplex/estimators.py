"""Smoothed distribution and density estimators on the unit simplex.

Given observations on the simplex, the distribution estimator replaces the
empirical cdf by its degree-``m`` polynomial smoothing with multinomial
weights; the density estimator smooths the histogram over the half-open
cubes ``(k/m, (k+1)/m]`` with weights of order ``m - 1`` and rescales by the
cube volume.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .simplex import (
    LatticeIndex,
    SimplexPoint,
    check_lattice_size,
    lattice_array,
    log_multinomial_pmf,
)

#: Row-level tolerance for CSV ingestion.
CSV_TOLERANCE = 1e-9


def _validated_points(arr: np.ndarray, tol: float) -> np.ndarray:
    if arr.ndim != 2:
        raise ValidationError("data must be a 2-d array of shape (n, d)")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise ValidationError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("data contains non-finite values")
    if np.any(arr < -tol):
        row = int(np.argwhere(arr < -tol)[0, 0])
        raise ValidationError(f"row {row}: negative coordinate beyond tolerance")
    arr = np.clip(arr, 0.0, None)
    sums = arr.sum(axis=1)
    if np.any(sums > 1.0 + tol):
        row = int(np.argmax(sums > 1.0 + tol))
        raise ValidationError(f"row {row}: coordinate sum {sums[row]!r} > 1 beyond tolerance")
    over = sums > 1.0
    if np.any(over):
        arr = arr.copy()
        arr[over] /= sums[over, None]
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """An immutable batch of n observations on the d-dimensional simplex."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _validated_points(np.asarray(self.points, dtype=float), 1e-12))

    @classmethod
    def from_points(cls, rows: Sequence[Sequence[float]] | np.ndarray) -> "Dataset":
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return cls(arr)

    @classmethod
    def from_csv(cls, source: "str | io.TextIOBase", d: int | None = None) -> "Dataset":
        """Read one observation per row; an optional non-numeric header is skipped.

        Rows violating the simplex constraints beyond ``CSV_TOLERANCE`` are
        rejected with the offending row number (1-based, counting the header).
        """
        if isinstance(source, str):
            with open(source, newline="") as fh:
                return cls.from_csv(fh, d=d)
        rows: list[list[float]] = []
        for lineno, record in enumerate(csv.reader(source), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValidationError(f"row {lineno}: non-numeric value") from None
            if d is not None and len(values) != d:
                raise ValidationError(f"row {lineno}: expected {d} columns, found {len(values)}")
            if rows and len(values) != len(rows[0]):
                raise ValidationError(f"row {lineno}: ragged row of {len(values)} columns")
            if any(v < -CSV_TOLERANCE for v in values):
                raise ValidationError(f"row {lineno}: negative coordinate beyond tolerance")
            if sum(values) > 1.0 + CSV_TOLERANCE:
                raise ValidationError(f"row {lineno}: coordinate sum exceeds 1 beyond tolerance")
            rows.append(values)
        if not rows:
            raise ValidationError("no data rows found")
        arr = np.clip(np.asarray(rows, dtype=float), 0.0, None)
        sums = arr.sum(axis=1)
        arr[sums > 1.0] /= sums[sums > 1.0, None]
        return cls(arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def empirical_cdf(data: Dataset, x: "SimplexPoint | float | Sequence[float]") -> float:
    """Fraction of observations dominated by ``x`` in every coordinate (closed corner)."""
    x = SimplexPoint.of(x)
    if x.d != data.d:
        raise ValidationError(f"point dimension {x.d} does not match data dimension {data.d}")
    return float(np.all(data.points <= x.array, axis=1).mean())


def _upper_grid_index(points: np.ndarray, m: int) -> np.ndarray:
    """Per coordinate, the number of grid values ``j/m`` strictly below it.

    Equal to ``np.searchsorted(np.arange(m + 1) / m, points, side="left")``,
    so ``x <= k/m`` holds exactly when the index is at most ``k``.  It is
    computed as ``ceil(m*x)`` and then moved one step wherever rounding put
    it on the wrong side of the grid value ``j/m`` it is compared with.
    Coordinates must lie in ``[0, 1]``.
    """
    u = np.multiply(points, m)
    np.ceil(u, out=u)
    index = u.astype(np.int64)
    grid = np.subtract(index, 1.0, out=u)
    grid /= m  # the grid value below the index
    index -= points <= grid
    np.divide(index, m, out=grid)  # the grid value at the index
    index += points > grid
    return index


def _flat_cells(index: np.ndarray, side: int) -> np.ndarray:
    """Row indices of an ``(n, d)`` array of cells in a ``side**d`` grid, C order."""
    if index.shape[1] == 1:
        return index[:, 0]
    return np.ravel_multi_index(tuple(index.T), (side,) * index.shape[1])


def _empirical_cdf_on_lattice(data: Dataset, karr: np.ndarray, m: int) -> np.ndarray:
    """Empirical cdf at every lattice point k/m, as one vector.

    Each observation is counted at its upper grid index; the d-fold
    cumulative sum of those counts on the ``(m+1)^d`` grid is, at ``k``, the
    number of observations with ``x <= k/m`` in every coordinate.
    """
    shape = (m + 1,) * data.d
    counts = np.bincount(_flat_cells(_upper_grid_index(data.points, m), m + 1), minlength=math.prod(shape))
    counts = counts.reshape(shape)
    for axis in range(data.d):
        np.cumsum(counts, axis=axis, out=counts)
    return counts[tuple(karr.T)] / data.n


def bernstein_cdf_many(
    data: Dataset, m: int, points: "Iterable[SimplexPoint | float | Sequence[float]]"
) -> np.ndarray:
    """:func:`bernstein_cdf` at each of ``points``, as one array.

    The lattice and the empirical cdf on it are built once, in
    ``O(n + m^d)``; after that each point costs only its ``O(m^d)``
    multinomial weights.
    """
    if m < 1:
        raise ValidationError(f"order m must be >= 1, got {m}")
    xs = [SimplexPoint.of(x) for x in points]
    for x in xs:
        if x.d != data.d:
            raise ValidationError(f"point dimension {x.d} does not match data dimension {data.d}")
    check_lattice_size(m, data.d)
    karr = lattice_array(m, data.d)
    values = _empirical_cdf_on_lattice(data, karr, m)
    return np.array([np.dot(values, np.exp(log_multinomial_pmf(karr, m, x))) for x in xs], dtype=float)


def bernstein_cdf(data: Dataset, m: int, x: "SimplexPoint | float | Sequence[float]") -> float:
    """Degree-``m`` polynomial smoothing of the empirical cdf at ``x``.

    Evaluation is allowed anywhere on the simplex, but the smoothed cdf is
    only a sensible estimator when the observations' support is contained
    in a hyperrectangle inside the simplex; with full-support data the
    relevant cdf lives on the unit hypercube instead.  This is a caveat,
    not an error.  To evaluate many points, use :func:`bernstein_cdf_many`.
    """
    return float(bernstein_cdf_many(data, m, [x])[0])


@dataclass(frozen=True)
class HistogramCounts:
    """Counts of observations per half-open cube ``(k/m, (k+1)/m]``.

    Points with a coordinate exactly 0 sit on a lower cube face, which the
    half-open convention would leave unassigned; they are counted in the
    lowest cube of that coordinate so the counts always sum to n.
    """

    m: int
    d: int
    counts: Mapping[LatticeIndex, int]

    def total(self) -> int:
        return int(sum(self.counts.values()))


def histogram_counts(data: Dataset, m: int) -> HistogramCounts:
    """Assign each observation to its cube of side 1/m.

    The cube of ``x`` is one below its upper grid index, so ``x = k/m``
    falls in the cube ``((k-1)/m, k/m]``, and 0 in the lowest cube.
    """
    if m < 1:
        raise ValidationError(f"order m must be >= 1, got {m}")
    check_lattice_size(m - 1, data.d)
    cells = _upper_grid_index(data.points, m)
    cells -= 1
    np.maximum(cells, 0, out=cells)
    flat = np.bincount(_flat_cells(cells, m), minlength=m**data.d)
    keys = np.flatnonzero(flat)
    rows = np.column_stack(np.unravel_index(keys, (m,) * data.d)).tolist()
    counts = dict(zip(map(tuple, rows), flat[keys].tolist()))
    return HistogramCounts(m=m, d=data.d, counts=counts)


def bernstein_density(data: Dataset, m: int, x: "SimplexPoint | float | Sequence[float]") -> float:
    """Histogram of mesh 1/m smoothed with weights of order m - 1, at ``x``.

    Nonnegative everywhere; for m = 1 it degenerates to the constant 1 on
    the whole simplex.
    """
    counts = histogram_counts(data, m)
    return density_from_counts(counts, data.n, x)


def density_from_counts(
    counts: HistogramCounts, n: int, x: "SimplexPoint | float | Sequence[float]"
) -> float:
    """Evaluate the density estimator from precomputed cube counts."""
    x = SimplexPoint.of(x)
    if x.d != counts.d:
        raise ValidationError(f"point dimension {x.d} does not match histogram dimension {counts.d}")
    check_lattice_size(counts.m - 1, counts.d)
    if not counts.counts:
        return 0.0
    karr = np.array(list(counts.counts.keys()), dtype=np.int64)
    weights = np.array(list(counts.counts.values()), dtype=float)
    logp = log_multinomial_pmf(karr, counts.m - 1, x)
    return float(counts.m ** counts.d * np.dot(weights / n, np.exp(logp)))
