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
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, _as_int, _as_order
from .simplex import SimplexPoint, _log_multinomial_pmfs, _row_sums, _validated_points, check_grid_size, lattice_array

#: Row-level tolerance for CSV ingestion.
CSV_TOLERANCE = 1e-9

#: Rows of data binned at a time.
_BIN_BLOCK = 65536


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


def _parsed_points(first: str, rest: Iterable[str], source: "str | list[str]", d: int | None) -> np.ndarray | None:
    """What :func:`_read_csv_rows` returns for a source, from one ``np.loadtxt`` call; ``None`` where it cannot tell.

    ``first`` is the source's first line, ``rest`` its later lines, read only
    up to the first one that is not blank, and ``source`` what numpy reads.
    ``np.loadtxt`` accepts a subset of what ``float()`` accepts and gives the
    same value on it.  A quote or a blank first line changes how records are
    split or counted, so those, a source with no data row, and every parse
    or validation failure are left to the row-by-row reader.
    """
    if '"' in first:
        return None  # a quote in a later row fails numpy's float parse
    record = next(csv.reader([first]), [])
    if _blank(record):
        return None
    header = _csv_floats(record) is None
    if header and all(not line.strip() for line in rest):
        return None  # keeps np.loadtxt from warning that the input has no data
    try:
        arr = np.loadtxt(
            source, dtype=float, delimiter=",", comments=None, skiprows=int(header), ndmin=2, encoding="utf-8-sig"
        )
    except Exception:  # whatever numpy refuses, the row reader reads again and names the fault, if there is one
        return None
    if d is not None and arr.shape[1] != d:
        return None
    try:
        return _validated_points(arr, CSV_TOLERANCE)
    except ValidationError:
        return None


def _loadtxt_points(text: str, d: int | None) -> np.ndarray | None:
    """:func:`_parsed_points` of ``text`` split at ``\\n``; ``None`` on a lone carriage return, which ends a csv row."""
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    lines = text.split("\n")
    return _parsed_points(lines[0], lines[1:], lines, d)


def _csv_file_points(path: "str | bytes", d: int | None) -> np.ndarray | None:
    """:func:`_parsed_points` of the file at ``path``, read by numpy in C chunks; ``None`` unless it is a ``.csv`` file.

    Only a regular file whose name ends in ``.csv`` (any case) goes to numpy,
    by its absolute path: numpy's opener decompresses by suffix (``.gz``,
    ``.bz2``, ...) and fetches URL-shaped names, and would open a FIFO a
    second time.  A byte that is not UTF-8 also leaves it ``None``, so the
    error names its position in the whole file, as the text route reads it.
    """
    if not (isinstance(path, str) and path[-4:].lower() == ".csv" and os.path.isfile(path)):
        return None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _parsed_points(fh.readline(), fh, os.path.abspath(path), d)
    except (OSError, UnicodeDecodeError):
        return None


@dataclass(frozen=True)
class Dataset:
    """An immutable batch of n observations on the d-dimensional simplex."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _validated_points(np.asarray(self.points, dtype=float)))

    @classmethod
    def from_points(cls, rows: Sequence[Sequence[float]] | np.ndarray) -> "Dataset":
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return cls(arr)

    @classmethod
    def from_csv(cls, source: "str | os.PathLike | io.TextIOBase", d: int | None = None) -> "Dataset":
        """Read one observation per row from a path or a text stream; an optional non-numeric header is skipped.

        Rows violating the simplex constraints beyond ``CSV_TOLERANCE`` are
        rejected with the offending row number (1-based, counting the header).
        One leading byte-order mark (U+FEFF, as in a "CSV UTF-8" spreadsheet
        export) is dropped.  A regular file whose name ends in ``.csv`` is
        parsed by numpy from its path; any other source (a stream, a pipe, a
        file of another name) is read into one text and parsed from that.
        Whatever the one vectorised pass cannot settle is read again row by
        row, which is where every error message comes from.
        """
        d = None if d is None else _as_int(d, "dimension d", least=1)
        if isinstance(source, (str, os.PathLike)):
            path = os.fspath(source)
            points = _csv_file_points(path, d)
            if points is None:
                with open(path, newline="", encoding="utf-8") as fh:
                    return cls.from_csv(fh, d=d)
        else:
            text = source.read().removeprefix("\ufeff")
            points = _loadtxt_points(text, d)
            if points is None:
                points = _read_csv_rows(io.StringIO(text, newline=""), d)
        dataset = object.__new__(cls)  # the rows passed the simplex rule once, under CSV_TOLERANCE; not again
        object.__setattr__(dataset, "points", points)
        return dataset

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _evaluation_rows(points: "Dataset | Iterable[SimplexPoint | float | Sequence[float]]", d: int) -> list:
    """The rows of ``points``, each checked to have the data's dimension ``d``: a Dataset's as they are, else by ``SimplexPoint.of``."""
    rows = points.points.tolist() if isinstance(points, Dataset) else (SimplexPoint.of(x).coords for x in points)
    checked = []
    for row in rows:
        if len(row) != d:
            raise ValidationError(f"point dimension {len(row)} does not match data dimension {d}")
        checked.append(row)
    return checked


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


def _grid_counts(points: np.ndarray, m: int, cubes: bool) -> np.ndarray:
    """Counts of the rows of ``(n, d)`` points on a grid of mesh 1/m, shaped as the grid.

    A row counts at its upper grid index on the ``(m+1)**d`` grid, or with
    ``cubes`` one below it, clamped at 0, on the ``m**d`` grid.  The rows
    are indexed ``_BIN_BLOCK`` at a time into one array of flat keys, so
    no ``(n, d)`` temporary is made, and the keys are counted at once: a
    count per block would cost the whole grid per block.
    """
    n, d = points.shape
    shape = (m if cubes else m + 1,) * d
    check_grid_size(shape)
    keys = np.empty(n, dtype=np.int64)
    for start in range(0, n, _BIN_BLOCK):
        index = _upper_grid_index(points[start : start + _BIN_BLOCK], m)
        if cubes:
            index -= 1
            np.maximum(index, 0, out=index)
        keys[start : start + len(index)] = index[:, 0] if d == 1 else np.ravel_multi_index(tuple(index.T), shape)
    return np.bincount(keys, minlength=math.prod(shape)).reshape(shape)


def _weighted_sums(cells: np.ndarray, values: np.ndarray, order: int, xs: Sequence[Sequence[float]]) -> np.ndarray:
    """At each of ``xs``, the sum of ``values`` weighted by the Multinomial(``order``, x) pmf of their ``cells``.

    ``xs`` are coordinate rows on the simplex and the rows of ``cells`` lie
    on the order-``order`` lattice; neither is checked again.  The cells'
    log coefficients are built once for all of ``xs``.
    """
    return np.array([np.dot(values, np.exp(logp)) for logp in _log_multinomial_pmfs(cells, order, xs)], dtype=float)


def bernstein_cdf_many(
    data: Dataset, m: int, points: "Dataset | Iterable[SimplexPoint | float | Sequence[float]]"
) -> np.ndarray:
    """:func:`bernstein_cdf` at each of ``points``, as one array.

    The lattice, the empirical cdf on it and the lattice's log multinomial
    coefficients are built once, in ``O(n + m^d)``; after that each point
    costs only the powers of x in its ``O(m^d)`` weights.  Each
    observation is counted at its upper grid index; the d-fold cumulative
    sum of those counts on the ``(m+1)^d`` grid is, at ``k``, the number
    of observations with ``x <= k/m`` in every coordinate.
    """
    m = _as_order(m, 1)
    xs = _evaluation_rows(points, data.d)
    below = _grid_counts(data.points, m, cubes=False)
    for axis in range(data.d):
        np.cumsum(below, axis=axis, out=below)
    karr = lattice_array(m, data.d)
    return _weighted_sums(karr, below[tuple(karr.T)] / data.n, m, xs)


def bernstein_cdf(data: Dataset, m: int, x: "SimplexPoint | float | Sequence[float]") -> float:
    """Degree-``m`` polynomial smoothing of the empirical cdf at ``x``.

    Evaluation is allowed anywhere on the simplex, but the smoothed cdf is
    only a sensible estimator when the observations' support is contained
    in a hyperrectangle inside the simplex; with full-support data the
    relevant cdf lives on the unit hypercube instead.  This is a caveat,
    not an error.  To evaluate many points, use :func:`bernstein_cdf_many`.
    """
    return float(bernstein_cdf_many(data, m, [x])[0])


def _cube_counts(data: Dataset, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupied cubes ``(k/m, (k+1)/m]`` of the data and their counts.

    Returns a ``(K, d)`` int64 array of the cubes' indices ``k``, in
    lexicographic order, and the ``(K,)`` int64 array of their counts,
    which sum to n.  The cube of ``x`` is one below its upper grid index,
    so ``x = k/m`` falls in the cube ``((k-1)/m, k/m]``, and a coordinate
    0, which the half-open convention would leave unassigned, in the
    lowest cube.  The rows are binned a block at a time on the dense
    ``m**d`` grid (:func:`_grid_counts`), and only then are the occupied
    cubes read off.  A point whose coordinates sum to 1 only up to rounding
    can land one cube past the order-(m - 1) lattice; that cube's largest
    index (the first on a tie) is lowered by one, so every cube lies on
    that lattice.
    """
    shape = (m,) * data.d
    flat = _grid_counts(data.points, m, cubes=True).ravel()
    keys = np.flatnonzero(flat)
    cells = np.column_stack(np.unravel_index(keys, shape))
    over = _row_sums(cells) > m - 1
    if over.any():
        moved = cells[over]
        moved[np.arange(len(moved)), moved.argmax(axis=1)] -= 1
        np.add.at(flat, np.ravel_multi_index(tuple(moved.T), shape), flat[keys[over]])
        flat[keys[over]] = 0
        keys = np.flatnonzero(flat)
        cells = np.column_stack(np.unravel_index(keys, shape))
    return cells, flat[keys]


def bernstein_density_many(
    data: Dataset, m: int, points: "Dataset | Iterable[SimplexPoint | float | Sequence[float]]"
) -> np.ndarray:
    """:func:`bernstein_density` at each of ``points``, as one array.

    The data are binned once, in ``O(n + m^d)``, into the cubes of side
    1/m, and the occupied cubes' log Multinomial(m - 1) coefficients are
    built once; after that each point costs only the powers of x in their weights.
    """
    m = _as_order(m, 1)
    xs = _evaluation_rows(points, data.d)
    cells, counts = _cube_counts(data, m)
    return m**data.d * _weighted_sums(cells, counts / data.n, m - 1, xs)


def bernstein_density(data: Dataset, m: int, x: "SimplexPoint | float | Sequence[float]") -> float:
    """Histogram of mesh 1/m smoothed with weights of order m - 1, at ``x``.

    Nonnegative everywhere; for m = 1 it degenerates to the constant 1 on
    the whole simplex.  To evaluate many points, use
    :func:`bernstein_density_many`.
    """
    return float(bernstein_density_many(data, m, [x])[0])
