import io
import itertools
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_simplex import (
    Dataset,
    SizeLimitError,
    ValidationError,
    bernstein_cdf,
    bernstein_cdf_many,
    bernstein_density,
    bernstein_density_many,
    lattice_array,
    sample,
)

from bernstein_simplex import estimators, simplex
from bernstein_simplex.cli import main
from bernstein_simplex.estimators import _csv_file_points, _cube_counts, _loadtxt_points, _upper_grid_index

from conftest import (
    multinomial_pmf_exact,
    reference_cdf,
    reference_cdf_1d,
    reference_density,
    reference_density_1d,
    reference_read_csv,
    simplex_integral_2d,
)


class TestDataset:
    def test_basic_shape(self):
        data = Dataset.from_points([[0.1, 0.2], [0.3, 0.3]])
        assert data.n == 2 and data.d == 2

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            Dataset.from_points([[0.7, 0.7]])
        with pytest.raises(ValidationError):
            Dataset.from_points([[-0.2]])

    def test_array_rows_named_one_based_like_csv_rows(self):
        with pytest.raises(ValidationError, match="row 1: coordinate sum"):
            Dataset.from_points([[0.5, 0.9]])
        with pytest.raises(ValidationError, match="row 2: negative coordinate"):
            Dataset.from_points([[0.1, 0.2], [-0.5, 0.3]])

    def test_points_are_readonly(self):
        data = Dataset.from_points([[0.1], [0.5]])
        with pytest.raises(ValueError):
            data.points[0, 0] = 0.9


class TestCsvIngestion:
    def test_reads_with_header(self):
        text = "a,b\n0.1,0.2\n0.3,0.3\n"
        data = Dataset.from_csv(io.StringIO(text))
        assert data.n == 2 and data.d == 2

    def test_row_numbered_rejection(self):
        text = "0.1,0.2\n0.9,0.3\n"
        with pytest.raises(ValidationError, match="row 2"):
            Dataset.from_csv(io.StringIO(text))

    def test_sum_message_prints_a_plain_float(self):
        with pytest.raises(ValidationError, match=r"row 2: coordinate sum 1\.2 > 1"):
            Dataset.from_csv(io.StringIO("0.1,0.2\n0.9,0.3\n"))

    def test_non_numeric_mid_file(self):
        with pytest.raises(ValidationError, match="row 3"):
            Dataset.from_csv(io.StringIO("0.1\n0.2\noops\n"))

    def test_ragged_row(self):
        with pytest.raises(ValidationError, match="row 2"):
            Dataset.from_csv(io.StringIO("0.1,0.2\n0.3\n"))

    def test_tolerance_clamp(self):
        data = Dataset.from_csv(io.StringIO("0.5,0.5000000001\n"))
        assert data.points.sum() <= 1.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_row_named(self, value):
        with pytest.raises(ValidationError, match="row 2"):
            Dataset.from_csv(io.StringIO(f"0.1,0.2\n{value},0.3\n"))

    def test_rows_named_by_line_past_header_and_blank_lines(self):
        with pytest.raises(ValidationError, match="row 4"):
            Dataset.from_csv(io.StringIO("a,b\n0.1,0.2\n\n0.2,nan\n"))
        with pytest.raises(ValidationError, match="row 5"):
            Dataset.from_csv(io.StringIO("a,b\n0.1,0.2\n\n0.2,0.3\n-0.5,0.3\n"))

    def test_dimension_mismatch_flagged(self):
        with pytest.raises(ValidationError, match="row 1"):
            Dataset.from_csv(io.StringIO("0.1,0.2\n"), d=3)

    @pytest.mark.parametrize("d,message", [(0, "must be >= 1, got 0"), (1.5, "must be an integer, got 1.5"),
                                           (True, "must be an integer, got True")])
    def test_dimension_is_refused(self, d, message):
        # True used to be compared with the column count ("expected True columns")
        with pytest.raises(ValidationError, match="dimension d " + message):
            Dataset.from_csv(io.StringIO("0.1\n0.2\n"), d=d)


@st.composite
def simplex_csv(draw):
    """CSV text of points on the simplex in d = 1..4, as ``(text, d)``."""
    d = draw(st.integers(1, 4))
    style = draw(st.sampled_from(["repr", "%.17g", "%.2f"]))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if style == "%.2f":
            cuts = sorted(draw(st.lists(st.integers(0, 100), min_size=d, max_size=d)))
            rows.append([f"{(b - a) / 100:.2f}" for a, b in zip([0] + cuts, cuts)])
        else:
            u = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
            total = sum(u)
            u = [x / total for x in u] if total > 1.0 else u
            rows.append([repr(x) if style == "repr" else "%.17g" % x for x in u])
    lines = [",".join(row) for row in rows]
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=3)):
        lines.insert(at, "")  # blank lines anywhere after line 1
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"x{i + 1}" for i in range(d)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), d


#: sources that the row reader refuses, with the dimension asked for
ERROR_CASES = [
    ("0.1,0.2\n0.3\n", None),
    ("0.1,0.2\n0.3,0.4\n", 3),
    ("a,b\n0.1,0.2\n\n0.2,nan\n", None),
    ("a,b\r\n\r\n0.1,0.2\r\n-inf,0.1\r\n", None),
    ("a,b\n0.1,0.2\n\n0.2,0.3\n-0.5,0.3\n", 2),
    ("a,b\n\n0.1,0.2\n0.9,0.3\n", None),
    ("0.1\n0.2\noops\n0.3\n", None),
    ("\nx1\n0.1\n", None),
    ("0.1\n0.5 # note\n", None),
    ("0.1\n1_0\n", None),
    ("x1,x2\n", None),
    ("x1,x2\n\n\r\n", 2),
    ("", None),
]
ERROR_IDS = ["ragged", "d-mismatch", "nan", "inf-crlf", "negative", "sum-over-one", "non-numeric-mid-file",
             "blank-line-1-then-header", "hash-is-not-a-comment", "underscore-digits", "header-only",
             "header-and-blank-lines", "empty"]

#: sources that only the row reader can read
ROW_READER_CASES = ['"0.1","0.2"\n0.3,0.4\n', '"x1","x2"\n0.1,0.2\n', "0.1\n0.2_5\n", "\n0.1\n0.2\n"]
ROW_READER_IDS = ["quoted-cells", "quoted-header", "underscore-digits", "blank-line-1"]


def _write_csv(path, text: str) -> str:
    """``text`` written to ``path`` byte for byte, line ends as given; the path as a string."""
    path.write_bytes(text.encode())
    return str(path)


@pytest.mark.filterwarnings("error")
class TestCsvParity:
    """The one-pass parser and the row-by-row reader give the same points and the same errors."""

    @settings(max_examples=150, deadline=None)
    @given(simplex_csv(), st.booleans())
    def test_points_bit_identical(self, case, pass_d):
        text, d = case
        d = d if pass_d else None
        assert _loadtxt_points(text, d) is not None  # settled in one pass
        got = Dataset.from_csv(io.StringIO(text), d=d).points
        want = reference_read_csv(io.StringIO(text), d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text,d", ERROR_CASES, ids=ERROR_IDS)
    def test_error_message_is_the_row_readers(self, text, d):
        with pytest.raises(ValidationError) as want:
            reference_read_csv(io.StringIO(text), d)
        with pytest.raises(ValidationError) as got:
            Dataset.from_csv(io.StringIO(text), d=d)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", ROW_READER_CASES, ids=ROW_READER_IDS)
    def test_row_reader_decides(self, text):
        assert _loadtxt_points(text, None) is None
        got = Dataset.from_csv(io.StringIO(text)).points
        assert got.tobytes() == reference_read_csv(io.StringIO(text)).tobytes()

    @pytest.mark.parametrize(
        "text, want",
        [("\ufeff0.1\n0.2\n", [[0.1], [0.2]]), ("\ufeffx1\n0.1\n", [[0.1]])],
        ids=["bom-first-row", "bom-header"],
    )
    def test_byte_order_mark_is_dropped(self, text, want):
        # the marked first row is data, not a header; the rest reads as it would without the mark
        assert Dataset.from_csv(io.StringIO(text)).points.tolist() == want

    def test_byte_order_mark_of_a_utf8_sig_file(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n", encoding="utf-8-sig")
        assert Dataset.from_csv(str(path)).points.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    @pytest.mark.parametrize(
        "text,parsed",
        [("x1,x2\n0.1,0.2\n", True), ("x1,x2\r\n0.1,0.2\r\n", True), ("x1,x2\r\n0.1,0.2\r0.3,0.4\r\n", False)],
        ids=["no-cr", "crlf", "lone-cr-among-crlf"],
    )
    def test_one_pass_takes_files_without_a_lone_carriage_return(self, text, parsed):
        assert (_loadtxt_points(text, None) is not None) == parsed

    def test_lone_carriage_returns_split_rows_in_a_file(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"x1\r0.1\r\r0.2\r")
        assert _loadtxt_points(path.read_bytes().decode(), None) is None
        with open(path, newline="") as fh:
            want = reference_read_csv(fh)
        assert Dataset.from_csv(str(path)).points.tobytes() == want.tobytes()
        assert want.tolist() == [[0.1], [0.2]]

    @settings(max_examples=150, deadline=None)
    @given(simplex_csv(), st.booleans())
    def test_points_bit_identical_from_a_file(self, case, pass_d):
        text, d = case
        d = d if pass_d else None
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_csv(pathlib.Path(tmp) / "data.csv", text)
            assert _csv_file_points(path, d) is not None  # settled by numpy from the path
            got = Dataset.from_csv(path, d=d).points
        want = reference_read_csv(io.StringIO(text, newline=""), d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text,d", ERROR_CASES, ids=ERROR_IDS)
    def test_error_message_is_the_row_readers_from_a_file(self, tmp_path, text, d):
        path = _write_csv(tmp_path / "data.csv", text)
        with pytest.raises(ValidationError) as want:
            reference_read_csv(io.StringIO(text, newline=""), d)
        with pytest.raises(ValidationError) as got:
            Dataset.from_csv(path, d=d)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", ROW_READER_CASES, ids=ROW_READER_IDS)
    def test_row_reader_decides_from_a_file(self, tmp_path, text):
        path = _write_csv(tmp_path / "data.csv", text)
        assert _csv_file_points(path, None) is None
        got = Dataset.from_csv(path).points
        assert got.tobytes() == reference_read_csv(io.StringIO(text, newline="")).tobytes()


@pytest.mark.filterwarnings("error")
class TestCsvRoutes:
    """Only a regular file named ``*.csv`` goes to numpy by its path; every other source reads as text, as before."""

    TEXT = "x1,x2\n0.1,0.2\n0.3,0.4\n"
    POINTS = [[0.1, 0.2], [0.3, 0.4]]

    @pytest.mark.parametrize("name,by_path", [("data.csv", True), ("DATA.CSV", True), ("x.csv.gz", False),
                                              ("data.txt", False), ("data", False)])
    def test_route_by_name(self, tmp_path, name, by_path):
        # a plain-text x.csv.gz would go to numpy's gzip opener by its suffix
        path = _write_csv(tmp_path / name, self.TEXT)
        assert (_csv_file_points(path, None) is not None) == by_path
        assert Dataset.from_csv(path).points.tolist() == self.POINTS

    def test_path_like(self, tmp_path):
        for name in ("data.csv", "data.txt"):
            path = tmp_path / name
            _write_csv(path, self.TEXT)
            assert Dataset.from_csv(path).points.tolist() == self.POINTS

    @pytest.mark.parametrize("name", ["data.csv", "data.txt"])
    def test_str_bytes_and_path_names_read_alike(self, tmp_path, name):
        # a bytes name ended in "AttributeError: 'bytes' object has no attribute 'read'"
        path = _write_csv(tmp_path / name, self.TEXT)
        got = [Dataset.from_csv(source).points for source in (path, os.fsencode(path), pathlib.Path(path))]
        assert got[0].tolist() == self.POINTS
        assert [points.tobytes() for points in got] == [got[0].tobytes()] * 3

    def test_bytes_csv_name_goes_to_numpy(self, tmp_path, loadtxt_sources):
        path = _write_csv(tmp_path / "data.csv", self.TEXT)
        assert Dataset.from_csv(os.fsencode(path)).points.tolist() == self.POINTS
        assert loadtxt_sources == [path]

    @pytest.fixture
    def loadtxt_sources(self, monkeypatch):
        """What each ``np.loadtxt`` call is given; a relative name is refused before numpy could treat it as a URL."""
        sources, loadtxt = [], np.loadtxt

        def recorded(source, *args, **kwargs):
            sources.append(source)
            if isinstance(source, str) and not os.path.isabs(source):
                raise ValueError(f"relative name {source!r}")
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recorded)
        return sources

    @pytest.mark.parametrize("name", ["http:/host/u.csv", "http://host/u.csv"])
    def test_url_shaped_name_reads_the_local_file(self, tmp_path, monkeypatch, loadtxt_sources, name):
        (tmp_path / "http:" / "host").mkdir(parents=True)
        _write_csv(tmp_path / "http:" / "host" / "u.csv", self.TEXT)
        monkeypatch.chdir(tmp_path)
        assert Dataset.from_csv(name).points.tolist() == self.POINTS
        assert loadtxt_sources == [str(tmp_path / "http:" / "host" / "u.csv")]

    def test_header_and_blank_lines_only(self, tmp_path, loadtxt_sources):
        # numpy warns on a file with no data row, so it is not asked to read one
        path = _write_csv(tmp_path / "data.csv", "x1,x2\n\n  \r\n\n")
        with pytest.raises(ValidationError, match="^no data rows found$"):
            Dataset.from_csv(path)
        assert loadtxt_sources == []

    @pytest.mark.parametrize("at", ["header", "first-row", "past-8-KiB", "header-past-8-KiB"])
    def test_a_byte_that_is_not_utf8(self, tmp_path, at):
        # a stream decodes 8 KiB at a time and names a bad byte by its place in the chunk
        rows = b"".join(b"0.1,0.2\n" for _ in range(2000))
        data = {"header": b"x\xff1,x2\n" + rows, "first-row": b"x1,x2\n0.\xff1,0.2\n" + rows,
                "past-8-KiB": b"x1,x2\n" + rows + b"0.\xff1,0.2\n",
                "header-past-8-KiB": b"x" * 9000 + b"\xff1,x2\n" + rows}[at]
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as want:
            with open(path, newline="", encoding="utf-8") as fh:
                fh.read()  # how the text route reads a file: whole, so the error names the byte's place in it
        with pytest.raises(UnicodeDecodeError) as got:
            Dataset.from_csv(str(path))
        assert str(got.value) == str(want.value)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_named_csv_is_opened_once(self, tmp_path):
        # a second open of the pipe would wait for a writer that has gone: the timeout fails the test
        fifo = tmp_path / "f.csv"
        os.mkfifo(fifo)
        script = (
            "import sys, threading\n"
            "from bernstein_simplex import Dataset\n"
            "def write():\n"
            "    with open(sys.argv[1], 'w') as fh:\n"
            f"        fh.write({self.TEXT!r})\n"
            "threading.Thread(target=write, daemon=True).start()\n"
            "print(Dataset.from_csv(sys.argv[1]).points.tolist())\n"
        )
        src = str(pathlib.Path(estimators.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, str(fifo)], capture_output=True, text=True,
                              timeout=30, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{self.POINTS}\n"


class TestOnePassPerRow:
    """Every input row passes the simplex rule once, where it enters; a second pass can move its last bits."""

    # one pass rescales this row to a sum of 1.0000000000000002, a second pass would rescale it again
    ROW = [0.3846153846153848, 0.6153846153846158]

    def test_csv_and_array_rows_are_bit_identical(self):
        from_csv = Dataset.from_csv(io.StringIO(",".join(map(repr, self.ROW)) + "\n"))
        from_points = Dataset.from_points([self.ROW])
        assert from_csv.points.tobytes() == from_points.points.tobytes()
        assert from_csv.points.tolist() == [[0.38461538461538464, 0.6153846153846155]]
        for estimate in (bernstein_density, bernstein_cdf):
            assert estimate(from_csv, 13, (0.3, 0.6)) == estimate(from_points, 13, (0.3, 0.6))
        assert bernstein_density(from_csv, 13, (0.3, 0.6)) == 11.38117039488001

    @pytest.mark.parametrize("text", ["x1,x2\n0.1,0.2\n0.3,0.3\n", '"x1","x2"\n0.1,0.2\n0.3,0.3\n'],
                             ids=["one-pass-parser", "row-reader"])
    def test_csv_rows_pass_once(self, simplex_passes, text):
        points = Dataset.from_csv(io.StringIO(text)).points
        assert len(simplex_passes) == 1
        assert not points.flags.writeable

    def test_array_rows_and_samples_pass_once(self, simplex_passes, beta22):
        Dataset(np.array([[0.1, 0.2]]))
        Dataset.from_points([[0.1, 0.2]])
        sample(beta22, 5, seed=1)
        assert len(simplex_passes) == 3

    def test_points_dataset_is_evaluated_as_it_is(self, simplex_passes):
        data = Dataset.from_points([self.ROW, [0.2, 0.1]])
        points = Dataset.from_points([self.ROW, [0.3, 0.6]])
        bernstein_density_many(data, 13, points)
        bernstein_cdf_many(data, 13, points)
        assert len(simplex_passes) == 2
        bernstein_cdf_many(data, 13, points.points)  # any other iterable goes point by point through SimplexPoint.of
        assert len(simplex_passes) == 4

    def test_points_dataset_dimension_is_checked(self):
        data = Dataset.from_points([[0.1, 0.2]])
        with pytest.raises(ValidationError, match="point dimension 1 does not match data dimension 2"):
            bernstein_cdf_many(data, 4, Dataset.from_points([[0.1]]))
        with pytest.raises(ValidationError, match="point dimension 3 does not match data dimension 2"):
            bernstein_density_many(data, 4, Dataset.from_points([[0.1, 0.2, 0.3]]))


class TestBernsteinCdf:
    def test_upper_corner_is_one(self):
        rng = np.random.default_rng(0)
        data = Dataset.from_points(rng.uniform(0.05, 0.95, size=(25, 1)))
        assert bernstein_cdf(data, 7, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_origin_is_zero_without_mass_at_zero(self):
        rng = np.random.default_rng(1)
        data = Dataset.from_points(rng.uniform(0.05, 0.95, size=(25, 1)))
        assert bernstein_cdf(data, 7, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_single_datum(self):
        data = Dataset.from_points([[0.4]])
        assert bernstein_cdf(data, 2, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        data = Dataset.from_points(rng.dirichlet((1, 1, 1), size=40)[:, :2])
        for _ in range(20):
            x = rng.dirichlet((1, 1, 1))[:2]
            value = bernstein_cdf(data, 6, x)
            assert 0.0 <= value <= 1.0

    def test_monotone_on_grid(self):
        rng = np.random.default_rng(3)
        data = Dataset.from_points(rng.dirichlet((2, 3, 2), size=60)[:, :2])
        grid = np.linspace(0.0, 0.45, 8)
        values = np.array([[bernstein_cdf(data, 8, (u, v)) for v in grid] for u in grid])
        assert np.all(np.diff(values, axis=0) >= -1e-12)
        assert np.all(np.diff(values, axis=1) >= -1e-12)


class TestUpperGridIndex:
    @staticmethod
    def searchsorted(points, m):
        return np.searchsorted(np.arange(m + 1) / m, points, side="left")

    def test_every_lattice_value_below_200(self):
        for m in range(1, 200):
            values = np.arange(m + 1)[:, None] / m
            # the lattice values and their float neighbours on both sides
            points = np.clip(np.hstack([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)]), 0.0, 1.0)
            np.testing.assert_array_equal(_upper_grid_index(points, m), self.searchsorted(points, m))

    def test_random_and_two_decimal_data(self):
        rng = np.random.default_rng(12)
        random = rng.random((5000, 3))
        decimals = np.round(rng.random((5000, 3)), 2)
        for m in (1, 7, 25, 50, 100, 137, 1000):
            for points in (random, decimals):
                np.testing.assert_array_equal(_upper_grid_index(points, m), self.searchsorted(points, m))


def cube_counts(rows, m):
    cells, counts = _cube_counts(Dataset.from_points(rows), m)
    return dict(zip(map(tuple, cells.tolist()), counts.tolist()))


class TestHistogram:
    def test_interior_membership(self):
        assert cube_counts([[0.30]], 4) == {(1,): 1}

    def test_half_open_right_endpoint(self):
        assert cube_counts([[0.25]], 4) == {(0,): 1}

    def test_two_dimensional_membership(self):
        assert cube_counts([[0.4, 0.5]], 3) == {(1, 1): 1}

    def test_lattice_value_lands_in_lower_cube(self):
        # 7/25 and 0.56 = 28/50 round above 7 and 28 when multiplied by m
        assert cube_counts([[7 / 25]], 25) == {(6,): 1}
        assert cube_counts([[0.56, 0.14], [0.28, 0.0]], 50) == {(13, 0): 1, (27, 6): 1}

    def test_zero_coordinate_lands_in_lowest_cube(self):
        assert cube_counts([[0.0, 0.4]], 5) == {(0, 1): 1}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_conserved(self, d):
        rng = np.random.default_rng(10 + d)
        data = Dataset.from_points(rng.dirichlet(np.ones(d + 1), size=300)[:, :d])
        for m in (1, 2, 7, 20):
            cells, counts = _cube_counts(data, m)
            assert int(counts.sum()) == data.n
            assert cells.dtype == np.int64 and counts.dtype == np.int64
            assert cells.shape == (len(counts), d)
            assert np.all(counts > 0)
            assert np.all(cells.sum(axis=1) <= m - 1)
            keys = [tuple(k) for k in cells.tolist()]
            assert keys == sorted(set(keys))

    def test_non_integer_order_is_refused(self):
        data = Dataset.from_points([[0.3], [0.6]])
        with pytest.raises(ValidationError, match="order m must be an integer, got 2.5"):
            bernstein_density_many(data, 2.5, [0.5])
        assert bernstein_density_many(data, 4.0, [0.1, 0.5]).tolist() == bernstein_density_many(data, np.int64(4), [0.1, 0.5]).tolist()

    # the exact sum of this row is about 1 + 7e-17, so its cube (1, 2) lies one step past the order-2 lattice
    ROUNDED_ONTO_FACE = [0.33333333333333337, 0.6666666666666667]

    def test_row_rounded_onto_the_face_is_binned_on_the_lattice(self):
        assert cube_counts([self.ROUNDED_ONTO_FACE], 3) == {(1, 1): 1}
        data = Dataset.from_points([self.ROUNDED_ONTO_FACE])
        assert bernstein_density(data, 3, (0.2, 0.3)) == bernstein_density(Dataset.from_points([[0.5, 0.5]]), 3, (0.2, 0.3))

    @staticmethod
    def stepped_face_rows(m, d):
        """The lattice values k/m with sum(k) = m, each coordinate stepped 0 to 3 ulps upwards."""
        face = np.array([k for k in itertools.product(range(m + 1), repeat=d) if sum(k) == m], dtype=float) / m
        rows = []
        for steps in itertools.product(range(4), repeat=d):
            x = face.copy()
            for i, step in enumerate(steps):
                for _ in range(step):
                    x[:, i] = np.nextafter(x[:, i], 1.0)
            rows.append(x)
        return np.vstack(rows)

    @pytest.mark.parametrize("d,orders", [(2, range(1, 60)), (3, range(1, 25))])
    def test_rows_past_the_lattice_move_one_step_back(self, d, orders):
        past = 0
        for m in orders:
            data = Dataset.from_points(self.stepped_face_rows(m, d))
            hist_cells, hist_counts = _cube_counts(data, m)
            assert int(hist_counts.sum()) == data.n
            assert np.all(hist_cells.sum(axis=1) <= m - 1)
            # point by point: the cube one below the upper grid index, past the lattice by at most one step,
            # which comes off its largest index (the first on a tie)
            cells = np.maximum(_upper_grid_index(data.points, m) - 1, 0)
            over = np.flatnonzero(cells.sum(axis=1) > m - 1)
            assert np.all(cells[over].sum(axis=1) == m)
            cells[over, cells[over].argmax(axis=1)] -= 1
            past += len(over)
            assert dict(zip(map(tuple, hist_cells.tolist()), hist_counts.tolist())) == Counter(map(tuple, cells.tolist()))
        assert past > 0

    def test_cli_density_of_a_row_rounded_onto_the_face(self, tmp_path, capsys):
        data, points = tmp_path / "row.csv", tmp_path / "points.csv"
        data.write_text(",".join(map(repr, self.ROUNDED_ONTO_FACE)) + "\n")
        points.write_text("0.2,0.3\n")
        assert main(["estimate", "--data", str(data), "--m", "3", "--kind", "density", "--points", str(points)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "0.2,0.3,1.08"


class TestBinningBlocks:
    """Binning a block of rows at a time gives the bits that binning every row at once gives."""

    @pytest.mark.parametrize("d,m", [(1, 40), (2, 13), (3, 7)])
    def test_blocks_match_one_block(self, monkeypatch, d, m):
        block = estimators._BIN_BLOCK
        n = 2 * block + 7
        rng = np.random.default_rng(70 + d)
        lattice = lattice_array(m, d)
        rows = lattice[rng.integers(len(lattice), size=n)] / m
        # lattice values k/m and their float neighbours, in every block; an exact k/m on each side of each block edge
        step = rng.integers(-1, 2, size=rows.shape)
        step[[0, block - 1, block, 2 * block - 1, 2 * block, n - 1]] = 0
        rows = np.where(step < 0, np.nextafter(rows, 0.0), np.where(step > 0, np.nextafter(rows, 1.0), rows))
        data = Dataset(rows)
        xs = [(0.3 / d,) * d, tuple(lattice[len(lattice) // 2] / m), (0.0,) * d]

        def binned():
            cells, counts = _cube_counts(data, m)
            density, cdf = bernstein_density_many(data, m, xs), bernstein_cdf_many(data, m, xs)
            return cells.tobytes(), counts.tobytes(), density.tobytes(), cdf.tobytes()

        in_blocks = binned()
        monkeypatch.setattr(estimators, "_BIN_BLOCK", n)
        assert binned() == in_blocks


class TestGridCap:
    """Dense count grids are checked on their own cell count, not the lattice's."""

    DATA = [[0.1, 0.2, 0.3], [0.5, 0.1, 0.2]]

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_LATTICE_SIZE", 1000)

    def test_histogram_grid(self):
        data = Dataset.from_points(self.DATA)
        assert simplex.lattice_size(11, 3) == 364  # the order m - 1 lattice fits
        with pytest.raises(SizeLimitError):
            _cube_counts(data, 12)  # 12**3 = 1728 cells
        assert int(_cube_counts(data, 10)[1].sum()) == 2  # 10**3 = 1000 cells

    def test_cdf_grid(self):
        data = Dataset.from_points(self.DATA)
        assert simplex.lattice_size(12, 3) == 455  # the order m lattice fits
        with pytest.raises(SizeLimitError):
            bernstein_cdf_many(data, 12, [(0.2, 0.2, 0.2)])  # 13**3 = 2197 cells
        assert bernstein_cdf_many(data, 9, [(1.0, 0.0, 0.0)]).shape == (1,)  # 10**3 cells

    @pytest.mark.parametrize("kind", ["density", "cdf"])
    def test_cli_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "d3.csv"
        path.write_text("\n".join(",".join(map(str, row)) for row in self.DATA) + "\n")
        code = main(["estimate", "--data", str(path), "--m", "12", "--kind", kind, "--points", str(path)])
        assert code == 2
        assert "exceeding" in capsys.readouterr().err


def test_grid_cap_message():
    # the dense grid of a d = 1 density at m = 1e9 is refused, by its shape and size, before it is allocated
    message = "grid of shape (1000000000,) has 1000000000 cells, exceeding the cap of 100000000"
    with pytest.raises(SizeLimitError, match=f"^{re.escape(message)}$"):
        bernstein_density_many(Dataset.from_points([0.5]), 10**9, [0.5])


class TestBernsteinDensity:
    def test_degenerate_order_is_constant_one(self):
        rng = np.random.default_rng(4)
        data = Dataset.from_points(rng.uniform(0.01, 0.99, size=(30, 1)))
        for x in (0.0, 0.2, 0.77, 1.0):
            assert bernstein_density(data, 1, x) == pytest.approx(1.0, abs=1e-14)

    def test_hand_value(self):
        data = Dataset.from_points([[0.6]])
        assert bernstein_density(data, 2, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        data = Dataset.from_points(rng.dirichlet((2, 2, 2), size=50)[:, :2])
        for _ in range(20):
            x = rng.dirichlet((1, 1, 1))[:2]
            assert bernstein_density(data, 9, x) >= 0.0

    def test_lattice_valued_data_match_reference(self):
        # 25 * (7/25) rounds above 7; binning by ceil(m*x) gave 2.434 here
        raw = np.array([7 / 25, 0.5])
        data = Dataset.from_points(raw[:, None])
        value = bernstein_density(data, 25, 0.4)
        assert value == pytest.approx(reference_density_1d(raw, 25, 0.4), abs=1e-12)
        assert value == pytest.approx(1.934, abs=5e-4)

    def test_counts_reuse_matches_direct(self, beta22):
        data = sample(beta22, 200, seed=6)
        xs = (0.1, 0.5, 0.9)
        assert bernstein_density_many(data, 15, xs).tolist() == [bernstein_density(data, 15, x) for x in xs]

    def test_integrates_to_one_1d(self, beta22):
        data = sample(beta22, 2000, seed=7)
        grid = (np.arange(400) + 0.5) / 400
        integral = np.mean(bernstein_density_many(data, 25, grid))
        assert abs(integral - 1.0) <= 0.05

    def test_integrates_to_one_2d(self, dir222):
        data = sample(dir222, 2000, seed=8)
        integral = simplex_integral_2d(lambda x: bernstein_density_many(data, 20, [x])[0], cells=40)
        assert abs(integral - 1.0) <= 0.05


class TestCdfMany:
    """The ``_many`` function of one estimator against its oracle and its one-point function.

    :class:`TestDensityMany` runs the same cases on the density.
    """

    many = staticmethod(bernstein_cdf_many)
    one = staticmethod(bernstein_cdf)
    reference = staticmethod(reference_cdf)
    volume_scaled = False  # the density is a cube count times m^d, and so is its rounding error

    @staticmethod
    def lattice_valued_data():
        rng = np.random.default_rng(21)
        draws = np.round(rng.dirichlet((1, 1, 1), size=60)[:, :2], 2)
        fixed = [[0.0, 0.0], [0.0, 0.3], [0.14, 0.0], [0.28, 0.56], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]
        return np.vstack([draws, fixed])

    POINTS = [(0.3, 0.3), (0.0, 0.4), (1 / 14, 0.5), (0.2, 0.8), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def test_matches_direct_oracle_d2(self):
        raw = self.lattice_valued_data()
        data = Dataset.from_points(raw)
        for m in (1, 7, 14, 25):
            values = self.many(data, m, self.POINTS)
            expected = [self.reference(raw, m, x) for x in self.POINTS]
            atol = 1e-14 * (m**data.d if self.volume_scaled else 1)
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=atol)

    def test_matches_per_point_evaluation(self):
        data = Dataset.from_points(self.lattice_valued_data())
        values = self.many(data, 14, self.POINTS)
        assert values.tolist() == [self.one(data, 14, x) for x in self.POINTS]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_many_points_equal_one_point_calls_bit_for_bit(self, d):
        rng = np.random.default_rng(30 + d)
        data = Dataset.from_points(rng.dirichlet(np.ones(d + 1), size=80)[:, :d])
        face = np.r_[0.0, rng.dirichlet(np.ones(d))[: d - 1]]  # a zero share, and for d = 1 the vertex 0
        sums_to_one = np.r_[0.5 ** np.arange(1, d), 0.5 ** (d - 1)]
        points = [*rng.dirichlet(np.ones(d + 1), size=3)[:, :d], face, *np.eye(d), np.zeros(d), sums_to_one]
        for m in (1, 11):
            values = self.many(data, m, points)
            assert values.tobytes() == np.array([self.one(data, m, x) for x in points]).tobytes()

    def test_points_as_rows_of_an_array(self):
        data = Dataset.from_points(self.lattice_valued_data())
        rows = np.array(self.POINTS)
        assert self.many(data, 9, rows).tolist() == self.many(data, 9, self.POINTS).tolist()
        assert self.many(data, 9, []).shape == (0,)

    def test_rejects_bad_order_and_dimension(self):
        data = Dataset.from_points(self.lattice_valued_data())
        with pytest.raises(ValidationError):
            self.many(data, 0, self.POINTS)
        with pytest.raises(ValidationError):
            self.many(data, 5, [(0.2, 0.2), (0.3,)])

    def test_non_integer_order_is_refused(self):
        data = Dataset.from_points(self.lattice_valued_data())
        with pytest.raises(ValidationError, match="order m must be an integer, got 2.5"):
            self.many(data, 2.5, self.POINTS)


class TestDensityMany(TestCdfMany):
    many = staticmethod(bernstein_density_many)
    one = staticmethod(bernstein_density)
    reference = staticmethod(reference_density)
    volume_scaled = True


class TestOracleOnTheFace:
    # one CSV pass gives this point, whose float sum is 1.0000000000000002
    POINT = [0.38461538461538464, 0.6153846153846155]

    def test_remainder_is_clamped_as_the_package_does(self):
        assert multinomial_pmf_exact((3, 5), 9, self.POINT) == 0.0
        assert multinomial_pmf_exact((4, 5), 9, self.POINT) > 0.0

    def test_reference_density_is_zero_where_the_estimator_is(self, dir222):
        # no row of this sample lies in a cube on the face; the unclamped oracle gave -6.98e-15
        data = sample(dir222, 50, seed=0)
        assert bernstein_density_many(data, 20, [self.POINT]).tolist() == [0.0]
        assert reference_density(data.points, 20, self.POINT) == 0.0


class TestUnivariateCrossCheck:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = int(rng.integers(5, 40))
            raw = rng.beta(2, 3, size=n)
            data = Dataset.from_points(raw[:, None])
            m = int(rng.integers(2, 12))
            for x in rng.uniform(0.0, 1.0, size=3):
                assert bernstein_cdf(data, m, x) == pytest.approx(
                    reference_cdf_1d(raw, m, x), abs=1e-12
                )
                assert bernstein_density(data, m, x) == pytest.approx(
                    reference_density_1d(raw, m, x), abs=1e-12
                )
