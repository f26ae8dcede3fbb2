import numpy as np
import pytest

from bernstein_simplex import (
    BoundaryProfile,
    Experiment,
    ValidationError,
    band_summary,
    mc_bias_variance,
    rate_fit,
    run_experiment,
    sample,
)
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
        )
        with pytest.raises(ValidationError):
            sample(bare, 10, seed=0)


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
