import hashlib
import io
import json

import numpy as np
import pytest

from bernstein_simplex import (
    BoundaryProfile,
    Experiment,
    min_coupling_diagnostics,
    pmf_square_diagnostics,
    run_experiment,
)
from bernstein_simplex import simplex
from bernstein_simplex.cli import _build_parser, _colored, main
from conftest import reference_cdf, reference_density


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    rows = rng.beta(2, 2, size=60)
    path.write_text("x1\n" + "\n".join(repr(float(v)) for v in rows) + "\n")
    return str(path)


@pytest.fixture()
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("0.1\n0.5\n0.9\n")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_density_output(self, data_csv, points_csv, capsys):
        code, out, _ = run_cli(
            ["estimate", "--data", data_csv, "--m", "10", "--kind", "density",
             "--points", points_csv],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,estimate"
        assert len(lines) == 4
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v >= 0 for v in values)

    def test_deterministic(self, data_csv, points_csv, capsys):
        argv = ["estimate", "--data", data_csv, "--m", "8", "--kind", "cdf",
                "--points", points_csv]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_round_trip_floats(self, data_csv, points_csv, capsys):
        from bernstein_simplex import Dataset, bernstein_cdf

        code, out, _ = run_cli(
            ["estimate", "--data", data_csv, "--m", "8", "--kind", "cdf",
             "--points", points_csv],
            capsys,
        )
        assert code == 0
        data = Dataset.from_csv(data_csv)
        for line in out.strip().splitlines()[1:]:
            x_text, est_text = line.split(",")
            assert float(est_text) == bernstein_cdf(data, 8, float(x_text))

    @pytest.mark.parametrize("kind", ["density", "cdf"])
    def test_matches_library(self, data_csv, points_csv, capsys, kind):
        from bernstein_simplex import Dataset, bernstein_cdf_many, bernstein_density_many

        code, out, _ = run_cli(
            ["estimate", "--data", data_csv, "--m", "10", "--kind", kind, "--points", points_csv], capsys
        )
        assert code == 0
        points = Dataset.from_csv(points_csv).points
        many = bernstein_density_many if kind == "density" else bernstein_cdf_many
        values = many(Dataset.from_csv(data_csv), 10, points)
        assert out.splitlines() == ["x1,estimate"] + [f"{x!r},{v!r}" for (x,), v in zip(points.tolist(), values.tolist())]

    def test_bad_row_names_row(self, tmp_path, points_csv, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.2\n1.4\n")
        code, _, err = run_cli(
            ["estimate", "--data", str(bad), "--m", "5", "--kind", "density",
             "--points", points_csv],
            capsys,
        )
        assert code == 1
        assert "row 2" in err

    def test_size_guard_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d2.csv"
        data.write_text("0.2,0.3\n0.1,0.4\n")
        code, _, err = run_cli(
            ["estimate", "--data", str(data), "--m", "1000000", "--kind", "cdf",
             "--points", str(data)],
            capsys,
        )
        assert code == 2
        assert "exceeding" in err

    @pytest.mark.parametrize(
        "argv,message",
        [(["estimate", "--m", "0", "--kind", "density"], "order m must be >= 1, got 0"),
         (["estimate", "--m", "0", "--kind", "cdf"], "order m must be >= 1, got 0"),
         (["--threads", "0", "estimate", "--m", "5", "--kind", "cdf"], "--threads must be >= 1, got 0")],
        ids=["m-density", "m-cdf", "threads"],
    )
    def test_library_rules_refuse_for_the_cli(self, data_csv, points_csv, capsys, argv, message):
        # the CLI keeps no copy of these rules; the error line is the library's
        code, out, err = run_cli([*argv, "--data", data_csv, "--points", points_csv], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestEstimateOnePass:
    """``estimate`` checks each row of ``--data`` and ``--points`` once, and evaluates the points it prints."""

    # one pass rescales this row to [0.38461538461538464, 0.6153846153846155], a second pass would move it again
    ROW = "0.3846153846153848,0.6153846153846158\n"

    def test_data_row_is_binned_after_one_pass(self, tmp_path, capsys):
        data, points = tmp_path / "data.csv", tmp_path / "points.csv"
        data.write_text(self.ROW)
        points.write_text("0.3,0.6\n")
        code, out, _ = run_cli(["estimate", "--data", str(data), "--m", "13", "--kind", "density",
                                "--points", str(points)], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "0.3,0.6,11.38117039488001"

    @pytest.mark.parametrize("kind,reference", [("density", reference_density), ("cdf", reference_cdf)])
    def test_printed_points_are_the_evaluated_ones(self, tmp_path, capsys, simplex_passes, kind, reference):
        raw = [[0.1, 0.2], [0.3, 0.6], [0.5, 0.25], [0.05, 0.9]]
        data, points = tmp_path / "data.csv", tmp_path / "points.csv"
        data.write_text("".join(f"{a!r},{b!r}\n" for a, b in raw))
        points.write_text("x1,x2\n" + self.ROW + "0.2,0.3\n")
        code, out, _ = run_cli(["estimate", "--data", str(data), "--m", "13", "--kind", kind,
                                "--points", str(points)], capsys)
        assert code == 0
        assert len(simplex_passes) == 2  # one per file
        rows = [[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]]
        assert [row[:2] for row in rows] == [[0.38461538461538464, 0.6153846153846155], [0.2, 0.3]]
        for *x, value in rows:
            assert value == pytest.approx(reference(np.array(raw), 13, x), rel=1e-12, abs=1e-12)


class TestEstimateGolden:
    """CLI ``estimate`` stdout is pinned byte for byte on a fixed two-decimal d = 2 dataset."""

    DIGESTS = {
        "density": "a2f69f111035c82e8a9bb90e4e967467df8be666f663021689b37c83d34eafb9",
        "cdf": "8d2fb343d9449c89b7b427fbe9a7e6c8e026e38c89a21c6aeea1fe8b92c07f0b",
    }

    @pytest.mark.parametrize("kind", ["density", "cdf"])
    def test_stdout_digest(self, tmp_path, capsys, kind):
        rows = [(a, b) for a in range(0, 100, 7) for b in range(0, 100 - a, 11)]  # many on the lattice k/50
        data = tmp_path / "data.csv"
        data.write_text("x1,x2\n" + "".join(f"{a / 100:.2f},{b / 100:.2f}\n" for a, b in rows))
        points = tmp_path / "points.csv"
        points.write_text("x1,x2\n0.00,0.00\n0.14,0.28\n0.20,0.30\n0.56,0.02\n0.50,0.50\n1.00,0.00\n")
        code, out, _ = run_cli(
            ["estimate", "--data", str(data), "--m", "50", "--kind", kind, "--points", str(points)], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[kind]


class TestTheory:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_density_report(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            {
                "model": {"name": "dirichlet", "alpha": [2, 2]},
                "profile": {"d": 1, "interior": {"1": 0.3}},
                "estimator": "density",
                "m": 40,
                "n": 1000000,
            },
        )
        code, out, _ = run_cli(["theory", "--config", config], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["terms"]["bias_m1"] == pytest.approx(-0.78)
        assert report["m_opt"] == pytest.approx(1.5799 * 1e6**0.4, rel=1e-3)

    def test_uniform_has_no_optimum_marker(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            {
                "model": {"name": "uniform", "d": 1},
                "profile": {"d": 1, "interior": {"1": 0.5}},
                "m": 20,
                "n": 1000,
            },
        )
        code, out, _ = run_cli(["theory", "--config", config], capsys)
        assert code == 0
        assert json.loads(out)["m_opt"] == "none (zero bias bracket)"

    def test_cdf_report(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            {
                "model": {"name": "dirichlet", "alpha": [2, 2]},
                "profile": {"d": 1, "interior": {"1": 0.3}},
                "estimator": "cdf",
                "m": 100,
                "n": 10000,
            },
        )
        code, out, _ = run_cli(["theory", "--config", config], capsys)
        assert code == 0
        report = json.loads(out)
        # (4 n b1^2 / V)^(2/3), with b1 = 0.252 and V = 1.26 sqrt(0.21 / pi)
        assert report["m_opt"] == pytest.approx(393.2, abs=0.05)
        assert report["mse_at_m_opt"] > 0.0

    # Dirichlet(2,2,2) at full J, where "shoulder": true selects the reduced-bias report
    FULL_J = {"model": {"name": "dirichlet", "alpha": [2, 2, 2]}, "profile": {"d": 2, "boundary": {"1": 1.0, "2": 0.5}},
              "m": 50, "n": 100000}

    @pytest.mark.parametrize("shoulder", ["false", 1, None], ids=["string", "int", "null"])
    def test_shoulder_must_be_a_bool(self, tmp_path, capsys, shoulder):
        config = self.write_config(tmp_path, dict(self.FULL_J, shoulder=shoulder))
        message = f"error: config field 'shoulder' must be true or false, got {shoulder!r}\n"
        assert run_cli(["theory", "--config", config], capsys) == (1, "", message)

    # Dirichlet(1,2) at lambda = 3 with the cdf estimator, which has no reduced-bias report
    CDF = {"model": {"name": "dirichlet", "alpha": [1, 2]}, "profile": {"d": 1, "boundary": {"1": 3.0}},
           "estimator": "cdf", "m": 100, "n": 10000}

    @pytest.mark.parametrize("shoulder", ["false", 1, None], ids=["string", "int", "null"])
    def test_shoulder_must_be_a_bool_for_the_cdf(self, tmp_path, capsys, shoulder):
        config = self.write_config(tmp_path, dict(self.CDF, shoulder=shoulder))
        message = f"error: config field 'shoulder' must be true or false, got {shoulder!r}\n"
        assert run_cli(["theory", "--config", config], capsys) == (1, "", message)

    def test_shoulder_is_refused_for_the_cdf(self, tmp_path, capsys):
        config = self.write_config(tmp_path, dict(self.CDF, shoulder=True))
        message = "error: config field 'shoulder' must be false for the cdf estimator, got True\n"
        assert run_cli(["theory", "--config", config], capsys) == (1, "", message)

    def test_false_shoulder_is_the_default_report(self, tmp_path, capsys):
        argv, payload = GOLDEN_CASES["theory-density"]
        code, out, _ = run_cli(_golden_argv((argv, dict(payload, shoulder=False)), tmp_path), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TestStdoutGolden.DIGESTS["theory-density"]

    @pytest.mark.parametrize("m,n", [(1e200, 1e4), (1e-300, 1e4)], ids=["large-m", "tiny-m"])
    def test_expansion_outside_float_range(self, tmp_path, capsys, m, n):
        # an OverflowError or ZeroDivisionError traceback before
        payload = {"model": {"name": "dirichlet", "alpha": [2, 2]}, "profile": {"d": 1, "interior": {"1": 0.3}}, "m": m, "n": n}
        message = f"error: the expansion at m={m!r}, n={n!r} leaves the float range\n"
        assert run_cli(["theory", "--config", self.write_config(tmp_path, payload)], capsys) == (1, "", message)

    def test_missing_key(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"model": {"name": "uniform", "d": 1}})
        code, _, err = run_cli(["theory", "--config", config], capsys)
        assert code == 1 and "missing" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["theory", "--config", "/nonexistent.json"], capsys)
        assert code == 1 and "not found" in err


THEORY_OK = {"model": {"name": "uniform", "d": 1}, "profile": {"d": 1, "interior": {"1": 0.5}}, "m": 20, "n": 1000}
THEORY_D2_PROFILE = {"d": 2, "interior": {"1": 0.3, "2": 0.3}}
VERIFY_OK = {
    "model": {"name": "uniform", "d": 1},
    "profile": {"d": 1, "boundary": {"1": 1.0}},
    "kind": "density",
    "m_grid": [20],
    "n_grid": [100],
    "replicates": 5,
    "seed": 1,
}


class TestMalformedConfig:
    """A malformed config exits 1 with an ``error:`` line naming what is wrong, not a traceback."""

    @pytest.mark.parametrize(
        "command,payload,named",
        [
            ("sums", {"boundary": {"1": 1.0}}, "'d'"),
            ("sums", {"d": 1, "boundary": {"1": "abc"}}, "'boundary'"),
            ("sums", [1, 2], "JSON object"),
            ("theory", dict(THEORY_OK, profile={"interior": {"1": 0.5}}), "'d'"),
            ("theory", dict(THEORY_OK, m="forty"), "'m'"),
            ("verify", dict(VERIFY_OK, n_grid="abc"), "'n_grid'"),
            ("verify", [1, 2], "JSON object"),
            ("theory", dict(THEORY_OK, model="abc"), "'model'"),
            ("verify", dict(VERIFY_OK, model="abc"), "'model'"),
            ("theory", dict(THEORY_OK, model={"name": "dirichlet", "alpha": "ab"}), "'alpha'"),
            ("theory", dict(THEORY_OK, model={"name": "dirichlet", "alpha": [1, "x"]}), "'alpha'"),
            ("verify", dict(VERIFY_OK, m_grid="12"), "'m_grid'"),
            ("verify", dict(VERIFY_OK, n_grid="100"), "'n_grid'"),
            ("theory", dict(THEORY_OK, model={"name": "uniform", "d": "two"}), "'d'"),
            ("verify", dict(VERIFY_OK, m_grid={"12": 1}), "'m_grid'"),
            ("verify", dict(VERIFY_OK, m_grid=[12.7]), "'m_grid'"),
            ("verify", dict(VERIFY_OK, n_grid=[100.9]), "'n_grid'"),
            ("verify", dict(VERIFY_OK, replicates=5.5), "'replicates'"),
            ("verify", dict(VERIFY_OK, seed=1.9), "'seed'"),
            ("theory", dict(THEORY_OK, model={"name": "uniform", "d": 2.5}, profile=THEORY_D2_PROFILE), "'d'"),
            ("theory", dict(THEORY_OK, profile={"d": 1.5, "interior": {"1": 0.5}}), "'d'"),
            ("theory", dict(THEORY_OK, m=float("nan")), "'m'"),
            ("theory", dict(THEORY_OK, m=float("inf")), "'m'"),
            ("theory", dict(THEORY_OK, n=float("nan")), "'n'"),
            ("theory", dict(THEORY_OK, m=True), "'m'"),
            ("theory", dict(THEORY_OK, model={"d": 1}), "'name'"),
            ("verify", dict(VERIFY_OK, model={"d": 1}), "'name'"),
            ("verify", dict(VERIFY_OK, seed=-1), "'seed'"),
            ("theory", dict(THEORY_OK, model={"name": "dirichlet", "alpha": [float("nan"), 2]}), "'alpha'"),
            ("theory", dict(THEORY_OK, model={"name": "dirichlet", "alpha": [float("inf"), 2]}), "'alpha'"),
            ("theory", dict(THEORY_OK, model={"name": "dirichlet", "alpha": [True, 2]}), "'alpha'"),
            ("theory", dict(THEORY_OK, m="40"), "'m'"),
            ("theory", dict(THEORY_OK, n="1000"), "'n'"),
            ("theory", dict(THEORY_OK, estimator="mode"), "'estimator'"),
            ("theory", dict(THEORY_OK, model={"name": "dirichlet", "alpha": [1e6, 1e6]}), "'alpha'"),
            ("theory", dict(THEORY_OK, model={"name": "uniform", "d": 0}), "dimension d"),
            ("sums", {"d": 1, "boundary": {"1": True}}, "'boundary'"),
            ("sums", {"d": 1, "boundary": {"1": "1.0"}}, "'boundary'"),
            ("sums", {"d": 1, "interior": {"1": "0.5"}}, "'interior'"),
        ],
        ids=["sums-no-d", "sums-bad-lambda", "sums-array", "theory-no-d", "theory-bad-m", "verify-bad-grid",
             "verify-array", "theory-model-string", "verify-model-string", "theory-alpha-string",
             "theory-alpha-non-number", "verify-m-grid-string", "verify-n-grid-string", "theory-uniform-d-string",
             "verify-m-grid-object", "verify-m-grid-fraction", "verify-n-grid-fraction", "verify-replicates-fraction", "verify-seed-fraction",
             "theory-uniform-d-fraction", "theory-profile-d-fraction", "theory-m-nan", "theory-m-infinity",
             "theory-n-nan", "theory-m-bool", "theory-model-no-name", "verify-model-no-name", "verify-seed-negative",
             "theory-alpha-nan", "theory-alpha-infinity", "theory-alpha-bool", "theory-m-numeric-string",
             "theory-n-numeric-string", "theory-estimator-unknown", "theory-alpha-overflow", "theory-uniform-d-zero",
             "sums-lambda-bool", "sums-lambda-numeric-string", "sums-interior-numeric-string"],
    )
    def test_exits_with_error_line(self, tmp_path, capsys, command, payload, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        flags = ["--profile", str(path), "--m-grid", "10"] if command == "sums" else ["--config", str(path)]
        code, out, err = run_cli([command, *flags], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and named in err


class TestUnreadableFiles:
    """A named file that cannot be opened or decoded exits 1 with an ``error:`` line naming the flag and path."""

    @pytest.fixture()
    def files(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("0.1\n0.5\n")
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("x\xe9\n0.1\n".encode("latin-1"))
        config = tmp_path / "latin1.json"
        config.write_bytes('{"m": "\xe9"}'.encode("latin-1"))
        return {"good": str(good), "missing": str(tmp_path / "missing.csv"), "dir": str(tmp_path),
                "latin1": str(latin1), "config": str(config)}

    @pytest.mark.parametrize(
        "argv,flag,bad",
        [
            (["estimate", "--data", "{missing}", "--m", "5", "--kind", "cdf", "--points", "{good}"], "--data", "missing"),
            (["estimate", "--data", "{good}", "--m", "5", "--kind", "cdf", "--points", "{dir}"], "--points", "dir"),
            (["estimate", "--data", "{latin1}", "--m", "5", "--kind", "cdf", "--points", "{good}"], "--data", "latin1"),
            (["theory", "--config", "{dir}"], "--config", "dir"),
            (["theory", "--config", "{config}"], "--config", "config"),
        ],
        ids=["data-missing", "points-directory", "data-not-utf8", "config-directory", "config-not-utf8"],
    )
    def test_exits_with_error_line(self, files, capsys, argv, flag, bad):
        code, out, err = run_cli([arg.format(**files) for arg in argv], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag}: ") and files[bad] in err
        assert len(err.splitlines()) == 1


class TestVerify:
    def test_small_run(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(
                {
                    "model": {"name": "uniform", "d": 1},
                    "profile": {"d": 1, "boundary": {"1": 1.0}},
                    "kind": "density",
                    "m_grid": [60],
                    "n_grid": [2000],
                    "replicates": 60,
                    "seed": 99,
                }
            )
        )
        code, out, err = run_cli(["verify", "--config", str(config)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("m,n,bias")
        assert len(lines) == 2
        assert "overall: PASS" in err

    def test_threads_flag_preserves_output(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(
                {
                    "model": {"name": "uniform", "d": 1},
                    "profile": {"d": 1, "interior": {"1": 0.4}},
                    "kind": "cdf",
                    "m_grid": [15],
                    "n_grid": [500],
                    "replicates": 20,
                    "seed": 5,
                }
            )
        )
        _, out1, _ = run_cli(["verify", "--config", str(config)], capsys)
        _, out2, _ = run_cli(["--threads", "4", "verify", "--config", str(config)], capsys)
        _, serial, _ = run_cli(["--threads", "1", "verify", "--config", str(config)], capsys)
        assert out1 == out2 == serial

    def test_csv_columns_and_round_trip(self, tmp_path, capsys):
        spec = {
            "model": {"name": "uniform", "d": 1},
            "profile": {"d": 1, "boundary": {"1": 1.0}},
            "kind": "density",
            "m_grid": [100],
            "n_grid": [5000],
            "replicates": 100,
            "seed": 2024,
        }
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(spec))
        code, out, _ = run_cli(["verify", "--config", str(config)], capsys)
        assert code == 0
        result = run_experiment(Experiment.from_dict(spec))
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,bias,bias_se,var,var_se,mse,theory_bias,theory_var,theory_mse"
        assert len(lines) == 2
        fields = lines[1].split(",")
        row = result.rows[0]
        assert int(fields[0]) == row.m and int(fields[1]) == row.n
        for value, name in zip(fields[2:], lines[0].split(",")[2:]):
            assert float(value) == getattr(row, name)


class TestStrictFloatCells:
    """Every numeric cell parses with float(), whatever numpy's scalar repr."""

    def test_verify_cdf(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(
                {
                    "model": {"name": "dirichlet", "alpha": [1, 2]},
                    "profile": {"d": 1, "boundary": {"1": 1.0}},
                    "kind": "cdf",
                    "m_grid": [20],
                    "n_grid": [200],
                    "replicates": 5,
                    "seed": 3,
                }
            )
        )
        code, out, _ = run_cli(["verify", "--config", str(config)], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        assert all(isinstance(float(cell), float) for cell in rows[0].split(","))

    def test_sums(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"d": 2, "boundary": {"1": 1.0}, "interior": {"2": 0.3}}))
        code, out, _ = run_cli(["sums", "--profile", str(profile), "--m-grid", "20,40"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert {row[0] for row in rows} == {"pmf_square_sum", "min_coupling_x1", "min_coupling_x2"}
        for row in rows:
            assert all(isinstance(float(cell), float) for cell in row[1:])


class TestSums:
    def test_tables(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"d": 1, "interior": {"1": 0.5}}))
        code, out, _ = run_cli(
            ["sums", "--profile", str(profile), "--m-grid", "100,400"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,m,scaled_exact,prediction,rel_gap"
        square = [line for line in lines[1:] if line.startswith("pmf_square_sum")]
        coupling = [line for line in lines[1:] if line.startswith("min_coupling_x1")]
        assert len(square) == 2 and len(coupling) == 2
        gaps = [float(line.split(",")[4]) for line in square]
        assert gaps[1] < gaps[0]

    def test_bad_grid(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"d": 1, "interior": {"1": 0.5}}))
        code, _, err = run_cli(
            ["sums", "--profile", str(profile), "--m-grid", "ten"], capsys
        )
        assert code == 1 and "--m-grid" in err

    @pytest.mark.parametrize("grid", ["10,12.5", "10,nan", "inf"])
    def test_non_integer_grid(self, tmp_path, capsys, grid):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"d": 1, "interior": {"1": 0.5}}))
        code, out, err = run_cli(["sums", "--profile", str(profile), "--m-grid", grid], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--m-grid" in err

    @pytest.mark.parametrize("m,code", [(9999, 0), (10_000, 2)])
    def test_reach_at_d3(self, tmp_path, capsys, m, code):
        # the weight power sum folds (d - 1) C(m + 1, 2) terms, which reaches the cap of 1e8 after m = 9,999 at d = 3
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"d": 3, "boundary": {"1": 2.0}, "interior": {"2": 0.3, "3": 0.2}}))
        exit_code, out, err = run_cli(["sums", "--profile", str(profile), "--m-grid", str(m)], capsys)
        assert exit_code == code
        if code == 0:
            assert out.splitlines()[1].startswith(f"pmf_square_sum,{m},")
        else:
            assert out == "" and err.startswith("error: ") and "exceeding the cap" in err

    def test_csv_round_trip(self, tmp_path, capsys):
        spec = {"d": 1, "boundary": {"1": 1.0}}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(["sums", "--profile", str(path), "--m-grid", "50,100"], capsys)
        assert code == 0
        profile = BoundaryProfile.from_dict(spec)
        rows = pmf_square_diagnostics(profile, (50, 100)) + min_coupling_diagnostics(profile, 1, (50, 100))
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,m,scaled_exact,prediction,rel_gap"
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert fields[0] == row.quantity
            assert int(fields[1]) == row.m
            assert float(fields[2]) == row.scaled_exact
            assert float(fields[3]) == row.prediction
            assert float(fields[4]) == row.rel_gap


class TestMoments:
    def test_hand_example(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--d", "2", "--m", "3", "--x", "0.2,0.3", "--indices", "1,1"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "analytic,bruteforce,abs_diff"
        analytic, brute, diff = (float(v) for v in row.split(","))
        assert analytic == pytest.approx(0.48)
        assert brute == pytest.approx(0.48)
        assert diff < 1e-12

    def test_order_four_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--d", "1", "--m", "2", "--x", "0.5", "--indices", "1,1,1,1"],
            capsys,
        )
        assert code == 0
        analytic, brute, diff = (float(v) for v in out.strip().splitlines()[1].split(","))
        assert analytic == 0.5 and brute == pytest.approx(0.5) and diff == abs(analytic - brute)

    @pytest.mark.parametrize("m,code", [(1000, 0), (9998, 0), (9999, 2)])
    def test_reach_at_d3(self, capsys, monkeypatch, m, code):
        # the fold over m + 1 values per category multiplies (d - 1) C(m + 2, 2) terms: past the cap of 1e8 at m = 9,999
        if code:
            monkeypatch.setattr(simplex, "_poisson_log_row", None)  # refused before any row is built
        exit_code, out, err = run_cli(
            ["moments", "--d", "3", "--m", str(m), "--x", "0.2,0.3,0.1", "--indices", "1,2,3"], capsys
        )
        assert exit_code == code
        if code == 0:
            assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(0.012 * m, rel=1e-9)
        else:
            assert out == "" and err == "error: central moment for (m=9999, d=3) folds 100010000 terms, exceeding the cap of 100000000\n"

    def test_coordinate_count_mismatch(self, capsys):
        code, _, err = run_cli(
            ["moments", "--d", "2", "--m", "3", "--x", "0.2", "--indices", "1,1"],
            capsys,
        )
        assert code == 1 and "--x" in err


class TestPlumbing:
    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run_cli(["moments", "--bogus", "1"], capsys)
        assert code == 1

    def test_no_color_env(self, monkeypatch):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.setenv("NO_COLOR", "1")
        assert _colored("PASS", True, FakeTty()) == "PASS"
        monkeypatch.delenv("NO_COLOR")
        assert "\x1b[32m" in _colored("PASS", True, FakeTty())

    def test_console_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "bernstein_simplex", "moments", "--d", "1",
             "--m", "2", "--x", "0.5", "--indices", "1,1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("analytic,bruteforce")


def _golden_argv(case, tmp_path):
    """The argument list of a golden case, with its JSON payload written to a file when it has one."""
    argv, payload = case
    if payload is None:
        return list(argv)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(payload))
    return [*argv, str(path)]


GOLDEN_VERIFY = {
    "model": {"name": "dirichlet", "alpha": [1, 2]},
    "profile": {"d": 1, "boundary": {"1": 1.0}},
    "kind": "cdf",
    "m_grid": [10, 20],
    "n_grid": [200],
    "replicates": 8,
    "seed": 7,
}

GOLDEN_CASES = {
    "theory-density": (["theory", "--config"], {
        "model": {"name": "dirichlet", "alpha": [2, 2, 2]},
        "profile": {"d": 2, "boundary": {"1": 1.0}, "interior": {"2": 0.3}},
        "m": 50, "n": 100000,
    }),
    "theory-shoulder": (["theory", "--config"], {
        "model": {"name": "dirichlet", "alpha": [3, 3]},
        "profile": {"d": 1, "boundary": {"1": 0.5}},
        "shoulder": True, "m": 40, "n": 10000,
    }),
    "theory-cdf": (["theory", "--config"], {
        "model": {"name": "dirichlet", "alpha": [1, 2]},
        "profile": {"d": 1, "boundary": {"1": 1.0}},
        "estimator": "cdf", "m": 100, "n": 10000,
    }),
    "sums-d1": (["sums", "--m-grid", "20,40", "--profile"], {"d": 1, "boundary": {"1": 1.0}}),
    "sums-d2": (["sums", "--m-grid", "20,40", "--profile"], {"d": 2, "boundary": {"1": 1.0}, "interior": {"2": 0.3}}),
    "moments-order2": (["moments", "--d", "2", "--m", "3", "--x", "0.2,0.3", "--indices", "1,2"], None),
    "moments-order3": (["moments", "--d", "3", "--m", "5", "--x", "0.2,0.3,0.1", "--indices", "1,2,2"], None),
    "moments-order4": (["moments", "--d", "2", "--m", "6", "--x", "0.2,0.3", "--indices", "1,1,2,2"], None),
    "verify-threads1": (["--threads", "1", "verify", "--config"], GOLDEN_VERIFY),
    "verify-threads2": (["--threads", "2", "verify", "--config"], GOLDEN_VERIFY),
}


class TestStdoutGolden:
    """Every subcommand's stdout, pinned byte for byte on fixed inputs.

    This class comes last in the module, so its calls reuse the parser that
    the calls above have already built in this process.
    """

    DIGESTS = {
        # bias_m2 is -147.0000000000001, the exact-mean limit; with derivatives at the origin it was 90
        "theory-density": "4cccaf53765aeb8f6984edfb93d30c1c97f8d62d72c11d65a9e90ebacbe2cd7e",
        "theory-shoulder": "a1f40d8050790af8ae3c1b089b6fcb103b669dd8a6b9c8e41783f6853708d968",
        "theory-cdf": "18abf0561e4ee91300b35eda17c08d2b6b58173e358f7659b59700fc34b0d547",
        "sums-d1": "c1accea9431d4b7f24865454aee9424700e75df09377f4c5238350b5266699ce",
        "sums-d2": "da6d24e0bb10d1ad7cf2a335f58dd106bf7ee01d22097d102db8e95646662cbf",
        "moments-order2": "80c2810221cccb2745323c19a6f3f69253b01451a2f6c091d23ce4e121d6eda7",
        # analytic is 5 mu_122 of one trial, each product started from the share: -0.11999999999999998 (it was -0.12)
        "moments-order3": "b89b79f230f2e8a3c88fd65fe5c44b2e3af42f7ace18f2a59b67369e052128f7",
        "moments-order4": "439562d38f792df13014d24c11d9d083999b7c39cb02ed7c1dce12274c69fc17",
        "verify-threads1": "05190f514a45a62f2288d7efb9b69bd5bcc7bbcc4b318b6b2dd77618ce0e69e7",
        "verify-threads2": "05190f514a45a62f2288d7efb9b69bd5bcc7bbcc4b318b6b2dd77618ce0e69e7",
    }

    @pytest.mark.parametrize("name", list(GOLDEN_CASES))
    def test_stdout_digest(self, tmp_path, capsys, name):
        code, out, _ = run_cli(_golden_argv(GOLDEN_CASES[name], tmp_path), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name]

    def test_parser_is_built_once(self, capsys):
        parser = _build_parser()
        assert run_cli(["moments", "--d", "1", "--m", "2", "--x", "0.5", "--indices", "1,1"], capsys)[0] == 0
        assert _build_parser() is parser
