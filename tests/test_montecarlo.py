import json
import os

import numpy as np
import pytest

from bernstein_simplex import (
    BoundaryProfile,
    Experiment,
    ValidationError,
    band_summary,
    cdf_mse,
    density_mse,
    dirichlet_model,
    mc_bias_variance,
    rate_fit,
    run_experiment,
    sample,
)
from bernstein_simplex import montecarlo
from bernstein_simplex.cli import main
from bernstein_simplex.montecarlo import build_model


class TestSampling:
    def test_determinism(self, dir222):
        a = sample(dir222, 500, seed=42)
        b = sample(dir222, 500, seed=42)
        np.testing.assert_array_equal(a.points, b.points)

    def test_rows_are_valid(self, dir222):
        data = sample(dir222, 2000, seed=1)
        assert np.all(data.points >= 0)
        assert np.all(data.points.sum(axis=1) <= 1.0)

    def test_coordinate_means(self, dir222):
        data = sample(dir222, 100_000, seed=2)
        se = np.sqrt(data.points.var(axis=0) / data.n)
        np.testing.assert_array_less(np.abs(data.points.mean(axis=0) - 1 / 3), 4 * se)

    def test_unsampleable_model(self):
        from bernstein_simplex import DensityModel

        bare = DensityModel(
            name="bare", d=1,
            density=lambda x: 1.0,
            density_grad=lambda x: np.zeros(1),
            density_hessian=lambda x: np.zeros((1, 1)),
            density_third=lambda x: np.zeros((1, 1, 1)),
            density_fourth=lambda x: np.zeros((1, 1, 1, 1)),
        )
        with pytest.raises(ValidationError):
            sample(bare, 10, seed=0)

    def test_seed_and_size_rules(self, dir222):
        with pytest.raises(ValidationError, match="'seed' must be a non-negative integer"):
            sample(dir222, 10, -1)
        with pytest.raises(ValidationError, match="sample size n must be an integer"):
            sample(dir222, 2.5, 1)


class TestMcBiasVariance:
    def test_reproducible(self, beta22):
        kwargs = dict(m=20, n=400, replicates=25, seed=7, kind="density")
        row1 = mc_bias_variance(beta22, 0.3, **kwargs)
        row2 = mc_bias_variance(beta22, 0.3, **kwargs)
        assert row1 == row2

    def test_threaded_matches_serial(self, beta22):
        kwargs = dict(m=15, n=300, replicates=16, seed=9, kind="density")
        serial = mc_bias_variance(beta22, 0.3, **kwargs, threads=1)
        threaded = mc_bias_variance(beta22, 0.3, **kwargs, threads=4)
        assert serial == threaded
        assert mc_bias_variance(beta22, 0.3, **kwargs) == serial

    def test_threads_default_to_every_cpu(self, monkeypatch):
        assert montecarlo._as_threads(None) == len(os.sched_getaffinity(0))
        assert montecarlo._as_threads(3) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert montecarlo._as_threads(None) == os.cpu_count()

    def test_mse_identity(self, beta22):
        row = mc_bias_variance(beta22, 0.3, m=20, n=500, replicates=30, seed=3, kind="density")
        assert row.mse == pytest.approx(row.bias**2 + row.var, rel=1e-12)

    def test_uniform_density_bias_vanishes(self, uni1):
        row = mc_bias_variance(uni1, 0.37, m=25, n=20_000, replicates=100, seed=11, kind="density")
        assert row.theory_bias == 0.0
        assert abs(row.bias) <= 3 * row.bias_se

    def test_boundary_profile_evaluation_point(self, uni1):
        prof = BoundaryProfile(d=1, boundary={1: 1.0})
        row = mc_bias_variance(uni1, prof, m=50, n=2000, replicates=40, seed=13, kind="density")
        # theory variance at the realized point 1/m
        assert row.theory_var == pytest.approx(50 / 2000 * 0.308508, rel=1e-5)

    def test_cdf_kind_needs_cdf(self, dir222):
        with pytest.raises(ValidationError):
            mc_bias_variance(dir222, (0.2, 0.3), m=5, n=50, replicates=5, seed=0, kind="cdf")

    def test_validation(self, beta22):
        with pytest.raises(ValidationError):
            mc_bias_variance(beta22, 0.3, m=10, n=100, replicates=1, seed=0, kind="density")
        with pytest.raises(ValidationError):
            mc_bias_variance(beta22, 0.3, m=10, n=100, replicates=5, seed=0, kind="mode")

    @pytest.mark.parametrize(
        "field,value,message",
        [("seed", -5, "'seed' must be a non-negative integer"), ("replicates", 2.5, "'replicates' must be an integer"),
         ("m", 2.5, "order m must be an integer"), ("n", 2.5, "sample size n must be an integer"),
         ("threads", 0, "'threads' must be >= 1, got 0"), ("threads", -1, "'threads' must be >= 1, got -1"),
         ("threads", 2.5, "'threads' must be an integer, got 2.5"), ("kind", "mode", "'kind' must be 'density' or 'cdf'")],
    )
    def test_design_is_checked_before_sampling(self, beta22, monkeypatch, field, value, message):
        calls = _count_samples(monkeypatch)
        kwargs = dict(dict(m=10, n=100, replicates=5, seed=0), **{field: value})
        with pytest.raises(ValidationError, match=message):
            mc_bias_variance(beta22, 0.3, **kwargs)
        assert calls == []


def _count_samples(monkeypatch) -> list:
    """The sample sizes of every ``montecarlo.sample`` call from now on."""
    calls = []
    draw = montecarlo.sample

    def counting(model, n, seed):
        calls.append(n)
        return draw(model, n, seed)

    monkeypatch.setattr(montecarlo, "sample", counting)
    return calls


class TestSetupBeforeSampling:
    """A cell whose point or theory cannot be evaluated fails before its first replicate."""

    def test_verify_cell_without_theory(self, tmp_path, capsys, monkeypatch):
        # Beta(1.5, 2): the boundary bias needs a derivative with a negative power at 0
        config = {
            "model": {"name": "dirichlet", "alpha": [1.5, 2]}, "profile": {"d": 1, "boundary": {"1": 1.0}},
            "kind": "density", "m_grid": [40], "n_grid": [1000], "replicates": 5, "seed": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        calls = _count_samples(monkeypatch)
        assert main(["verify", "--config", str(path)]) == 1
        assert "negative power at the boundary" in capsys.readouterr().err
        assert calls == []

    def test_grid_is_settled_before_the_first_cell(self, monkeypatch):
        experiment = Experiment(
            model_name="uniform", model_params={"d": 1}, profile=BoundaryProfile(d=1, boundary={1: 5.0}),
            kind="density", m_grid=(400, 4), n_grid=(1000,), replicates=5, seed=1,
        )
        calls = _count_samples(monkeypatch)
        with pytest.raises(ValidationError, match="m=4 too small to realize the profile"):
            run_experiment(experiment)
        assert calls == []

    def test_expansion_outside_float_range(self, beta22, monkeypatch):
        # m = 10**200 ended in "OverflowError: int too large to convert to float" in the bias's m**2
        calls = _count_samples(monkeypatch)
        with pytest.raises(ValidationError, match=r"the expansion at m=10{200}, n=100 leaves the float range"):
            mc_bias_variance(beta22, 0.3, 10**200, 100, 2, 1, threads=1)
        assert calls == []

    @pytest.mark.parametrize(
        "threads,message",
        [(0, "must be >= 1, got 0"), (-1, "must be >= 1, got -1"), (2.5, "must be an integer, got 2.5")],
    )
    def test_threads_are_checked_before_sampling(self, monkeypatch, threads, message):
        # each of these used to run, serially
        experiment = Experiment(
            model_name="uniform", model_params={"d": 1}, profile=BoundaryProfile(d=1, boundary={1: 1.0}),
            kind="density", m_grid=(20,), n_grid=(100,), replicates=5, seed=1,
        )
        calls = _count_samples(monkeypatch)
        with pytest.raises(ValidationError, match="'threads' " + message):
            run_experiment(experiment, threads=threads)
        assert calls == []


#: verify's three benchmark cells: the C07 cell, a uniform d = 2 cell at J = {1}, a Beta(1,2) cdf cell at J = {1}
VERIFY_CELLS = {
    "beta22-density": ((2, 2), BoundaryProfile.interior_point(0.3), 40, "density"),
    "uniform2-density": (None, BoundaryProfile(d=2, boundary={1: 1.0}, interior={2: 0.3}), 50, "density"),
    "beta12-cdf": ((1, 2), BoundaryProfile(d=1, boundary={1: 1.0}), 100, "cdf"),
}


@pytest.mark.parametrize("alpha,profile,m,kind", VERIFY_CELLS.values(), ids=VERIFY_CELLS)
def test_theory_columns_are_the_report_terms(uni2, alpha, profile, m, kind):
    # one path from the expansions to verify: the cell's theory is the report theory prints, to the bit
    model = uni2 if alpha is None else dirichlet_model(alpha)
    row = mc_bias_variance(model, profile, m, 50, replicates=2, seed=5, kind=kind, threads=1)
    report = (density_mse if kind == "density" else cdf_mse)(model, profile, m, 50)
    assert (row.theory_bias, row.theory_var) == (report.terms["bias"], report.terms["var_leading"])
    assert row.theory_mse == report.terms["var_leading"] + report.terms["bias"] ** 2


class TestExperiments:
    def make_experiment(self):
        return Experiment(
            model_name="uniform",
            model_params={"d": 1},
            profile=BoundaryProfile(d=1, boundary={1: 1.0}),
            kind="density",
            m_grid=(100,),
            n_grid=(5000,),
            replicates=100,
            seed=2024,
        )

    def test_from_dict_round_trip(self):
        spec = {
            "model": {"name": "uniform", "d": 1},
            "profile": {"d": 1, "boundary": {"1": 1.0}, "interior": {}},
            "kind": "density",
            "m_grid": [100],
            "n_grid": [5000],
            "replicates": 100,
            "seed": 2024,
        }
        assert Experiment.from_dict(spec) == self.make_experiment()

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="missing"):
            Experiment.from_dict({"model": {"name": "uniform", "d": 1}})

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            build_model("cauchy", {})

    def test_run_and_band_summary(self):
        result = run_experiment(self.make_experiment())
        assert len(result.rows) == 1
        ok, lines = band_summary(result)
        assert ok, lines
        assert "PASS" in lines[0]


class TestRateFit:
    def test_exact_power_law(self):
        points = [(n, 3.0 * n**-0.8) for n in (1e3, 1e4, 1e5, 1e6)]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(-0.8, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_positive_points(self):
        with pytest.raises(ValidationError):
            rate_fit([(10.0, 1.0), (100.0, 0.1)])
        with pytest.raises(ValidationError):
            rate_fit([(10.0, 1.0), (100.0, 0.1), (1000.0, -0.01)])

    def test_needs_two_distinct_n(self):
        # a single n gave slope 0.1297 and r^2 0 with only a RankWarning
        with pytest.raises(ValidationError, match=r"need at least 2 distinct n to fit a rate, got \[10.0\]"):
            rate_fit([(10, 1.0), (10, 2.0), (10, 3.0)])
        assert rate_fit([(10, 1.0), (10, 2.0), (100, 0.1)]).slope < 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_are_refused(self, bad):
        with pytest.raises(ValidationError, match="finite, strictly positive"):
            rate_fit([(1.0, 1.0), (2.0, bad), (3.0, 1.0)])
