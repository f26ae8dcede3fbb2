import io

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
    density_from_counts,
    empirical_cdf,
    histogram_counts,
    sample,
)

from bernstein_simplex import simplex
from bernstein_simplex.cli import main
from bernstein_simplex.estimators import _loadtxt_points, _upper_grid_index

from conftest import reference_cdf, reference_cdf_1d, reference_density_1d, reference_read_csv, simplex_integral_2d


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

    @pytest.mark.parametrize(
        "text,d",
        [
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
        ],
        ids=["ragged", "d-mismatch", "nan", "inf-crlf", "negative", "sum-over-one", "non-numeric-mid-file",
             "blank-line-1-then-header", "hash-is-not-a-comment", "underscore-digits", "header-only",
             "header-and-blank-lines", "empty"],
    )
    def test_error_message_is_the_row_readers(self, text, d):
        with pytest.raises(ValidationError) as want:
            reference_read_csv(io.StringIO(text), d)
        with pytest.raises(ValidationError) as got:
            Dataset.from_csv(io.StringIO(text), d=d)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "text",
        ['"0.1","0.2"\n0.3,0.4\n', '"x1","x2"\n0.1,0.2\n', "\ufeff0.1\n0.2\n", "\ufeffx1\n0.1\n",
         "0.1\n0.2_5\n", "\n0.1\n0.2\n"],
        ids=["quoted-cells", "quoted-header", "bom-first-row", "bom-header", "underscore-digits", "blank-line-1"],
    )
    def test_row_reader_decides(self, text):
        assert _loadtxt_points(text, None) is None
        got = Dataset.from_csv(io.StringIO(text)).points
        assert got.tobytes() == reference_read_csv(io.StringIO(text)).tobytes()

    def test_lone_carriage_returns_split_rows_in_a_file(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"x1\r0.1\r\r0.2\r")
        assert _loadtxt_points(path.read_bytes().decode(), None) is None
        with open(path, newline="") as fh:
            want = reference_read_csv(fh)
        assert Dataset.from_csv(str(path)).points.tobytes() == want.tobytes()
        assert want.tolist() == [[0.1], [0.2]]


class TestEmpiricalCdf:
    def test_closed_upper_corner(self):
        data = Dataset.from_points([[0.2, 0.3]])
        assert empirical_cdf(data, (0.2, 0.3)) == 1.0

    def test_strict_failure_in_one_coordinate(self):
        data = Dataset.from_points([[0.2, 0.3]])
        assert empirical_cdf(data, (0.19, 0.3)) == 0.0

    def test_hand_count(self):
        data = Dataset.from_points([[0.1, 0.1], [0.4, 0.4], [0.2, 0.5]])
        assert empirical_cdf(data, (0.3, 0.45)) == pytest.approx(1.0 / 3.0)

    def test_dimension_mismatch(self):
        data = Dataset.from_points([[0.2, 0.3]])
        with pytest.raises(ValidationError):
            empirical_cdf(data, (0.2,))


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
    hist = histogram_counts(Dataset.from_points(rows), m)
    return dict(zip(map(tuple, hist.cells.tolist()), hist.counts.tolist()))


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
            hist = histogram_counts(data, m)
            assert hist.total() == data.n
            assert hist.cells.dtype == np.int64 and hist.counts.dtype == np.int64
            assert hist.cells.shape == (len(hist.counts), d)
            assert np.all(hist.counts > 0)
            assert np.all(hist.cells.sum(axis=1) <= m - 1)
            cells = [tuple(k) for k in hist.cells.tolist()]
            assert cells == sorted(set(cells))


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
            histogram_counts(data, 12)  # 12**3 = 1728 cells
        assert histogram_counts(data, 10).total() == 2  # 10**3 = 1000 cells

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
        from bernstein_simplex import histogram_counts as hc

        counts = hc(data, 15)
        for x in (0.1, 0.5, 0.9):
            assert density_from_counts(counts, data.n, x) == bernstein_density(data, 15, x)

    def test_integrates_to_one_1d(self, beta22):
        data = sample(beta22, 2000, seed=7)
        counts = histogram_counts(data, 25)
        grid = (np.arange(400) + 0.5) / 400
        integral = np.mean([density_from_counts(counts, data.n, x) for x in grid])
        assert abs(integral - 1.0) <= 0.05

    def test_integrates_to_one_2d(self, dir222):
        data = sample(dir222, 2000, seed=8)
        counts = histogram_counts(data, 20)
        integral = simplex_integral_2d(
            lambda x: density_from_counts(counts, data.n, x), cells=40
        )
        assert abs(integral - 1.0) <= 0.05


class TestCdfMany:
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
            values = bernstein_cdf_many(data, m, self.POINTS)
            expected = [reference_cdf(raw, m, x) for x in self.POINTS]
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-14)

    def test_matches_per_point_evaluation(self):
        data = Dataset.from_points(self.lattice_valued_data())
        values = bernstein_cdf_many(data, 14, self.POINTS)
        assert values.tolist() == [bernstein_cdf(data, 14, x) for x in self.POINTS]

    def test_points_as_rows_of_an_array(self):
        data = Dataset.from_points(self.lattice_valued_data())
        rows = np.array(self.POINTS)
        assert bernstein_cdf_many(data, 9, rows).tolist() == bernstein_cdf_many(data, 9, self.POINTS).tolist()
        assert bernstein_cdf_many(data, 9, []).shape == (0,)

    def test_rejects_bad_order_and_dimension(self):
        data = Dataset.from_points(self.lattice_valued_data())
        with pytest.raises(ValidationError):
            bernstein_cdf_many(data, 0, self.POINTS)
        with pytest.raises(ValidationError):
            bernstein_cdf_many(data, 5, [(0.2, 0.2), (0.3,)])


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
