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
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .simplex import COORD_TOLERANCE, SimplexPoint, check_grid_size, check_lattice_size, lattice_array, log_multinomial_pmf

#: Row-level tolerance for CSV ingestion.
CSV_TOLERANCE = 1e-9


def _validated_points(arr: np.ndarray, tol: float, lines: Sequence[int] | None = None) -> np.ndarray:
    """``arr`` checked, clipped and rescaled onto the simplex; errors name a row by ``lines[index]``, else 1-based."""
    if arr.ndim != 2:
        raise ValidationError("data must be a 2-d array of shape (n, d)")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise ValidationError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
    name = (lambda row: row + 1) if lines is None else lines.__getitem__
    if not np.all(np.isfinite(arr)):
        row = int(np.argwhere(~np.isfinite(arr))[0, 0])
        raise ValidationError(f"row {name(row)}: non-finite value")
    if np.any(arr < -tol):
        row = int(np.argwhere(arr < -tol)[0, 0])
        raise ValidationError(f"row {name(row)}: negative coordinate beyond tolerance")
    arr = np.clip(arr, 0.0, None)
    sums = arr.sum(axis=1)
    if np.any(sums > 1.0 + tol):
        row = int(np.argmax(sums > 1.0 + tol))
        raise ValidationError(f"row {name(row)}: coordinate sum {float(sums[row])!r} > 1 beyond tolerance")
    over = sums > 1.0
    if np.any(over):
        arr = arr.copy()
        arr[over] /= sums[over, None]
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _csv_floats(record: list[str]) -> list[float] | None:
    """The cells of a CSV record as floats, or ``None`` if one of them is not a number."""
    try:
        return [float(cell) for cell in record]
    except ValueError:
        return None


def _blank(record: list[str]) -> bool:
    return not record or all(not cell.strip() for cell in record)


def _read_csv_rows(lines: Iterable[str], d: int | None) -> np.ndarray:
    """The points of a CSV source read row by row; errors name the row by its 1-based CSV record."""
    rows: list[list[float]] = []
    linenos: list[int] = []
    for lineno, record in enumerate(csv.reader(lines), start=1):
        if _blank(record):
            continue
        values = _csv_floats(record)
        if values is None:
            if lineno == 1:
                continue  # header
            raise ValidationError(f"row {lineno}: non-numeric value")
        if d is not None and len(values) != d:
            raise ValidationError(f"row {lineno}: expected {d} columns, found {len(values)}")
        if rows and len(values) != len(rows[0]):
            raise ValidationError(f"row {lineno}: ragged row of {len(values)} columns")
        rows.append(values)
        linenos.append(lineno)
    if not rows:
        raise ValidationError("no data rows found")
    return _validated_points(np.asarray(rows, dtype=float), CSV_TOLERANCE, linenos)


def _loadtxt_points(text: str, d: int | None) -> np.ndarray | None:
    """What :func:`_read_csv_rows` returns for ``text``, from one ``np.loadtxt`` call; ``None`` where it cannot tell.

    ``np.loadtxt`` accepts a subset of what ``float()`` accepts and gives the
    same value on it.  Quotes, a byte-order mark, a lone carriage return and a
    blank first line change how rows are split or counted, so they, a file
    with no data row, and every parse or validation failure are left to the
    row-by-row reader.
    """
    if not text or '"' in text or text.startswith("\ufeff") or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.split("\n")
    first = next(csv.reader(lines[:1]))
    if _blank(first):
        return None
    header = _csv_floats(first) is None
    if header and all(not line.strip() for line in lines[1:]):
        return None  # keeps np.loadtxt from warning that the input has no data
    try:
        arr = np.loadtxt(lines, dtype=float, delimiter=",", comments=None, skiprows=int(header), ndmin=2)
    except ValueError:
        return None
    if d is not None and arr.shape[1] != d:
        return None
    try:
        return _validated_points(arr, CSV_TOLERANCE)
    except ValidationError:
        return None


@dataclass(frozen=True)
class Dataset:
    """An immutable batch of n observations on the d-dimensional simplex."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _validated_points(np.asarray(self.points, dtype=float), COORD_TOLERANCE))

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
        The whole source is parsed in one vectorised pass; whatever that pass
        cannot settle is read again row by row, which is where every error
        message comes from.
        """
        if isinstance(source, str):
            with open(source, newline="") as fh:
                return cls.from_csv(fh, d=d)
        text = source.read()
        points = _loadtxt_points(text, d)
        if points is None:
            points = _read_csv_rows(io.StringIO(text, newline=""), d)
        return cls(points)

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


def _grid_counts(index: np.ndarray, side: int) -> np.ndarray:
    """Counts of the rows of an ``(n, d)`` index array on the ``side**d`` grid, shaped as the grid."""
    shape = (side,) * index.shape[1]
    check_grid_size(shape)
    flat = index[:, 0] if len(shape) == 1 else np.ravel_multi_index(tuple(index.T), shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def bernstein_cdf_many(
    data: Dataset, m: int, points: "Iterable[SimplexPoint | float | Sequence[float]]"
) -> np.ndarray:
    """:func:`bernstein_cdf` at each of ``points``, as one array.

    The lattice and the empirical cdf on it are built once, in
    ``O(n + m^d)``; after that each point costs only its ``O(m^d)``
    multinomial weights.  Each observation is counted at its upper grid
    index; the d-fold cumulative sum of those counts on the ``(m+1)^d``
    grid is, at ``k``, the number of observations with ``x <= k/m`` in
    every coordinate.
    """
    if m < 1:
        raise ValidationError(f"order m must be >= 1, got {m}")
    xs = [SimplexPoint.of(x) for x in points]
    for x in xs:
        if x.d != data.d:
            raise ValidationError(f"point dimension {x.d} does not match data dimension {data.d}")
    below = _grid_counts(_upper_grid_index(data.points, m), m + 1)
    for axis in range(data.d):
        np.cumsum(below, axis=axis, out=below)
    karr = lattice_array(m, data.d)
    values = below[tuple(karr.T)] / data.n
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


@dataclass(frozen=True, eq=False)
class HistogramCounts:
    """Counts of observations per half-open cube ``(k/m, (k+1)/m]``.

    ``cells`` is a ``(K, d)`` int64 array of the occupied cubes' indices
    ``k``, in lexicographic order, and ``counts`` the ``(K,)`` int64 array
    of their counts.  Points with a coordinate exactly 0 sit on a lower
    cube face, which the half-open convention would leave unassigned; they
    are counted in the lowest cube of that coordinate so the counts always
    sum to n.
    """

    m: int
    d: int
    cells: np.ndarray
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())


def histogram_counts(data: Dataset, m: int) -> HistogramCounts:
    """Assign each observation to its cube of side 1/m.

    The cube of ``x`` is one below its upper grid index, so ``x = k/m``
    falls in the cube ``((k-1)/m, k/m]``, and 0 in the lowest cube.
    """
    if m < 1:
        raise ValidationError(f"order m must be >= 1, got {m}")
    cells = _upper_grid_index(data.points, m)
    cells -= 1
    np.maximum(cells, 0, out=cells)
    flat = _grid_counts(cells, m).ravel()
    keys = np.flatnonzero(flat)
    cells = np.column_stack(np.unravel_index(keys, (m,) * data.d))
    return HistogramCounts(m=m, d=data.d, cells=cells, counts=flat[keys])


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
    logp = log_multinomial_pmf(counts.cells, counts.m - 1, x)
    return float(counts.m ** counts.d * np.dot(counts.counts / n, np.exp(logp)))
