import io
import json

import numpy as np
import pytest

from bernstein_simplex.cli import _colored, main


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

    def test_density_matches_library(self, data_csv, points_csv, capsys):
        from bernstein_simplex import Dataset, bernstein_density

        code, out, _ = run_cli(
            ["estimate", "--data", data_csv, "--m", "10", "--kind", "density",
             "--points", points_csv],
            capsys,
        )
        assert code == 0
        data = Dataset.from_csv(data_csv)
        for line in out.strip().splitlines()[1:]:
            x_text, est_text = line.split(",")
            assert float(est_text) == bernstein_density(data, 10, float(x_text))

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
        assert "interior case" in report["m_opt"]

    def test_missing_key(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"model": {"name": "uniform", "d": 1}})
        code, _, err = run_cli(["theory", "--config", config], capsys)
        assert code == 1 and "missing" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["theory", "--config", "/nonexistent.json"], capsys)
        assert code == 1 and "not found" in err


THEORY_OK = {"model": {"name": "uniform", "d": 1}, "profile": {"d": 1, "interior": {"1": 0.5}}, "m": 20, "n": 1000}
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
        ],
        ids=["sums-no-d", "sums-bad-lambda", "sums-array", "theory-no-d", "theory-bad-m", "verify-bad-grid",
             "verify-array"],
    )
    def test_exits_with_error_line(self, tmp_path, capsys, command, payload, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        flags = ["--profile", str(path), "--m-grid", "10"] if command == "sums" else ["--config", str(path)]
        code, out, err = run_cli([command, *flags], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and named in err


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
        assert out1 == out2


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

    def test_order_four_enumeration_only(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--d", "1", "--m", "2", "--x", "0.5", "--indices", "1,1,1,1"],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "" and float(row[1]) == pytest.approx(0.5)

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
