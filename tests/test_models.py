import math

import numpy as np
import pytest

from bernstein_simplex import ValidationError, dirichlet_model, uniform_model

from conftest import reference_derivative_gap, simplex_integral_2d


class TestUniform:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant_value(self, d):
        model = uniform_model(d)
        rng = np.random.default_rng(d)
        for _ in range(5):
            x = rng.dirichlet(np.ones(d + 1))[:d]
            assert model.density(x) == pytest.approx(math.factorial(d), rel=1e-12)
        assert model.density(np.zeros(d)) == pytest.approx(math.factorial(d), rel=1e-12)
        assert np.all(model.density_grad(np.zeros(d)) == 0.0)
        assert np.all(model.density_hessian(np.zeros(d)) == 0.0)
        assert np.all(model.density_third(np.zeros(d)) == 0.0)
        assert np.all(model.density_fourth(np.zeros(d)) == 0.0)

    @pytest.mark.parametrize("d,message", [(0, "must be >= 1, got 0"), (2.5, "must be an integer, got 2.5"),
                                           (True, "must be an integer, got True")])
    def test_dimension_is_refused(self, d, message):
        with pytest.raises(ValidationError, match="dimension d " + message):
            uniform_model(d)


class TestBetaFamily:
    def test_beta22_closed_forms(self, beta22):
        for x in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
            assert beta22.density([x]) == pytest.approx(6 * x * (1 - x), abs=1e-12)
            assert beta22.cdf([x]) == pytest.approx(3 * x**2 - 2 * x**3, abs=1e-12)
            assert beta22.density_grad([x])[0] == pytest.approx(6 - 12 * x, abs=1e-12)
            assert beta22.density_hessian([x])[0, 0] == pytest.approx(-12.0, abs=1e-12)

    def test_cdf_derivatives_chain(self, beta22):
        for x in (0.2, 0.7):
            assert beta22.cdf_grad([x])[0] == pytest.approx(beta22.density([x]))
            assert beta22.cdf_hessian([x])[0, 0] == pytest.approx(beta22.density_grad([x])[0])
            assert beta22.cdf_third([x])[0, 0, 0] == pytest.approx(
                beta22.density_hessian([x])[0, 0]
            )
            assert beta22.cdf_fourth([x]).shape == (1, 1, 1, 1)
            assert beta22.cdf_fourth([x])[0, 0, 0, 0] == beta22.density_third([x])[0, 0, 0] == 0.0

    def test_beta12_boundary_values(self, beta12):
        assert beta12.density([0.0]) == pytest.approx(2.0)
        assert beta12.density_grad([0.0])[0] == pytest.approx(-2.0)
        assert beta12.cdf([0.5]) == pytest.approx(0.75)


class TestDirichletGeneral:
    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            dirichlet_model((1.0,))
        with pytest.raises(ValidationError):
            dirichlet_model((2.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, bad):
        with pytest.raises(ValidationError, match="finite and positive"):
            dirichlet_model((bad, 2.0))

    @pytest.mark.parametrize("alpha", [(1e6, 1e6), (1e307, 2.0)])
    def test_parameters_beyond_float_range_of_the_constant(self, alpha):
        # the normalising constant overflowed in math.exp (and math.lgamma) with a raw OverflowError
        with pytest.raises(ValidationError, match="Dirichlet parameters 'alpha' overflow the normalising constant"):
            dirichlet_model(alpha)

    @pytest.mark.parametrize("alpha", [(2, 2), (3, 3), (1, 2), (2, 3, 4), (1, 1, 1), (3, 2, 2, 3)])
    def test_derivatives_match_finite_differences(self, alpha):
        model = dirichlet_model(alpha)
        assert reference_derivative_gap(model, seed=42) <= 1e-5

    @pytest.mark.parametrize("alpha", [(2, 3), (3, 4), (2, 3, 4), (3, 2, 2, 3)])
    def test_higher_derivatives_are_differences_of_lower_ones(self, alpha):
        model = dirichlet_model(alpha)
        d, step = model.d, 1e-6
        x = np.random.default_rng(5).dirichlet(np.ones(d + 1))[:d] * 0.8 + 0.05
        for lower, higher in ((model.density_hessian, model.density_third),
                              (model.density_third, model.density_fourth)):
            tensor = higher(x)
            assert tensor.shape == (d,) * tensor.ndim
            assert np.array_equal(tensor, np.swapaxes(tensor, 0, -1))
            scale = max(1.0, float(np.abs(tensor).max()))
            for i in range(d):
                e = np.zeros(d)
                e[i] = step
                central = (lower(x + e) - lower(x - e)) / (2 * step)
                np.testing.assert_allclose(central, tensor[..., i], rtol=0, atol=1e-5 * scale)

    def test_normalization_1d(self):
        model = dirichlet_model((2.5, 3.5))
        grid = (np.arange(4000) + 0.5) / 4000
        integral = np.mean([model.density([x]) for x in grid])
        assert abs(integral - 1.0) <= 1e-3

    def test_normalization_2d(self, dir222):
        integral = simplex_integral_2d(lambda x: dir222.density(x), cells=120)
        assert abs(integral - 1.0) <= 1e-3

    def test_fractional_parameters_interior_only(self):
        model = dirichlet_model((2.5, 2.0))
        assert model.density([0.4]) > 0.0
        model.density_hessian([0.4])  # fine in the interior
        with pytest.raises(ValidationError):
            model.density_hessian([0.0])

    def test_nonneg_on_simplex(self):
        model = dirichlet_model((2, 3, 2))
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.dirichlet(np.ones(3))[:2]
            assert model.density(x) >= 0.0

    def test_no_cdf_beyond_1d(self, dir222):
        assert not dir222.has_cdf
        with pytest.raises(ValidationError):
            dir222.require_cdf()

    def test_sampler_mean(self):
        model = dirichlet_model((2, 2, 2))
        rng = np.random.default_rng(12)
        draws = model.sampler(rng, 100_000)
        se = np.sqrt(draws.var(axis=0) / len(draws))
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - 1.0 / 3.0), 4 * se)
