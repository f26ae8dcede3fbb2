import dataclasses
import json
import math
import re

import numpy as np
import pytest

from bernstein_simplex import (
    BoundaryProfile,
    DensityModel,
    SimplexPoint,
    ValidationError,
    cdf_bias_boundary,
    cdf_mse,
    cdf_variance_boundary,
    density_bias_boundary,
    density_m_opt,
    density_mse,
    density_mse_shoulder,
    dirichlet_model,
    lattice_array,
    log_multinomial_pmf,
    min_coupling_factor,
    poisson_equal_probability,
    poisson_within_one_probability,
    psi,
    shoulder_bracket,
    uniform_model,
)

from conftest import exact_density_mean_2d, exact_mean_1d

SQRT_PI = math.sqrt(math.pi)


def make_product_cdf_model() -> DensityModel:
    """d=2 test model: independent scaled Beta margins, support [0,.4]x[0,.5].

    F(x) = G1(x1) G2(x2) with G1 a Beta(1,2) cdf scaled to [0, 0.4] and G2 a
    Beta(2,2) cdf scaled to [0, 0.5]; all derivatives factor accordingly.
    """
    c1, c2 = 0.4, 0.5

    def g1(t, order):  # scaled Beta(1,2) cdf derivatives
        u = t / c1
        return [2 * u - u * u, (2 - 2 * u) / c1, -2 / c1**2, 0.0, 0.0, 0.0][order]

    def g2(t, order):  # scaled Beta(2,2) cdf derivatives
        u = t / c2
        return [
            3 * u**2 - 2 * u**3,
            6 * u * (1 - u) / c2,
            (6 - 12 * u) / c2**2,
            -12 / c2**3,
            0.0,
            0.0,
        ][order]

    def tensor(x, order, base):
        """The partial derivatives of order ``order`` of ``g1^(base) g2^(base)``, shape ``(2,) * order``."""
        out = np.empty((2,) * order)
        for index in np.ndindex(out.shape):
            out[index] = g1(x[0], base + index.count(0)) * g2(x[1], base + index.count(1))
        return out

    return DensityModel(
        name="product(beta12@0.4, beta22@0.5)",
        d=2,
        density=lambda x: g1(x[0], 1) * g2(x[1], 1),
        density_grad=lambda x: tensor(x, 1, 1),
        density_hessian=lambda x: tensor(x, 2, 1),
        density_third=lambda x: tensor(x, 3, 1),
        density_fourth=lambda x: tensor(x, 4, 1),
        cdf=lambda x: g1(x[0], 0) * g2(x[1], 0),
        cdf_grad=lambda x: tensor(x, 1, 0),
        cdf_hessian=lambda x: tensor(x, 2, 0),
        cdf_third=lambda x: tensor(x, 3, 0),
        cdf_fourth=lambda x: tensor(x, 4, 0),
    )


class TestBoundaryProfile:
    def test_partition_enforced(self):
        with pytest.raises(ValidationError):
            BoundaryProfile(d=2, boundary={1: 1.0}, interior={1: 0.3})
        with pytest.raises(ValidationError):
            BoundaryProfile(d=2, boundary={1: 1.0}, interior={})

    def test_value_ranges(self):
        with pytest.raises(ValidationError):
            BoundaryProfile(d=1, boundary={1: -0.5})
        with pytest.raises(ValidationError):
            BoundaryProfile(d=1, interior={1: 1.0})
        with pytest.raises(ValidationError):
            BoundaryProfile(d=2, interior={1: 0.6, 2: 0.5})

    def test_realized_and_slice_points(self):
        prof = BoundaryProfile(d=3, boundary={1: 2.0, 3: 0.5}, interior={2: 0.3})
        np.testing.assert_allclose(prof.realized_point(10), [0.2, 0.3, 0.05])
        np.testing.assert_allclose(prof.slice_point(), [0.0, 0.3, 0.0])
        np.testing.assert_allclose(prof.lambda_vector(), [2.0, 0.0, 0.5])
        assert prof.j_set == {1, 3}

    def test_bandwidth_too_small(self):
        prof = BoundaryProfile(d=1, boundary={1: 5.0})
        with pytest.raises(ValidationError):
            prof.realized_point(3)

    def test_dict_round_trip(self):
        prof = BoundaryProfile(d=2, boundary={2: 1.5}, interior={1: 0.4})
        again = BoundaryProfile.from_dict(prof.to_dict())
        assert again == prof


class TestPsi:
    def test_empty_subset(self):
        assert psi((0.3, 0.3), []) == 1.0

    def test_univariate_half(self):
        assert psi(0.5, [1]) == pytest.approx(1.0 / SQRT_PI, rel=1e-12)

    def test_two_dim_center(self):
        expected = math.sqrt(27.0) / (4.0 * math.pi)
        assert psi((1 / 3, 1 / 3), [1, 2]) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            psi((0.0, 0.3), [1])
        with pytest.raises(ValidationError):
            psi((0.5, 0.5), [1, 2])
        with pytest.raises(ValidationError):
            psi((0.5,), [2])

    def test_fractional_index_is_refused(self):
        # not truncated to coordinate 1
        with pytest.raises(ValidationError, match="subset index"):
            psi((0.3, 0.3), [1.7])


class TestDensityBias:
    def test_uniform_vanishes(self, uni2):
        rng = np.random.default_rng(0)
        x = rng.dirichlet((1, 1, 1))[:2]
        exp = density_bias_boundary(uni2, BoundaryProfile.interior_point(x), 25)
        assert (exp.bracket_m1, exp.bracket_m2) == (0.0, 0.0)

    def test_beta22_hand_values(self, beta22):
        exp = density_bias_boundary(beta22, BoundaryProfile.interior_point(0.3), 25)
        assert exp.bracket_m1 == pytest.approx(-0.78, abs=1e-12)
        assert exp.bracket_m2 == pytest.approx(0.52, abs=1e-12)

    def test_interior_profile_reduces_to_point_terms(self, beta22):
        # for a quadratic density the interior brackets are the point formulas
        # b1 = (1/2 - x).grad + 1/2 sum H_ij (x_i d_ij - x_i x_j) and
        # b2 = 1/2 sum H_ij ((1/2 - x_i)(1/2 - x_j) + d_ij/12 - x_i d_ij + x_i x_j)
        for model, x in ((beta22, [0.3]), (dirichlet_model((2, 1, 2)), [0.2, 0.4])):
            x = np.array(x)
            grad, hess = model.density_grad(x), model.density_hessian(x)
            sigma = np.diag(x) - np.outer(x, x)
            d1 = (0.5 - x) @ grad + 0.5 * np.sum(hess * sigma)
            d2 = 0.5 * np.sum(hess * (np.outer(0.5 - x, 0.5 - x) + np.eye(len(x)) / 12 - sigma))
            exp = density_bias_boundary(model, BoundaryProfile.interior_point(x), 25)
            assert exp.bracket_m1 == pytest.approx(d1, rel=1e-12)
            assert exp.bracket_m2 == pytest.approx(d2, rel=1e-12)
            assert exp.value == exp.bracket_m1 / 25 + exp.bracket_m2 / 25**2

    def test_cubic_interior_second_bracket(self):
        # Dirichlet(2,2,2,2) is cubic, so the third derivatives enter; without them b2 was -24.53
        model = dirichlet_model((2, 2, 2, 2))
        exp = density_bias_boundary(model, BoundaryProfile.interior_point((0.2, 0.3, 0.1)), 50)
        assert exp.bracket_m1 == pytest.approx(-25.2, abs=1e-10)
        assert exp.bracket_m2 == pytest.approx(-33.6, abs=1e-10)

    def test_boundary_brackets_hand_values(self, beta22):
        prof = BoundaryProfile(d=1, boundary={1: 1.0})
        exp = density_bias_boundary(beta22, prof, 40)
        assert exp.bracket_m1 == pytest.approx(3.0, abs=1e-12)
        assert exp.bracket_m2 == pytest.approx(-20.0, abs=1e-12)
        assert exp.value == pytest.approx(3.0 / 40 - 20.0 / 1600, abs=1e-14)

    def test_mixed_profile_hand_values(self):
        # f = 24 x1 (1 - x1 - x2) is quadratic; both brackets by hand at the slice (0.4, 0):
        # b2 = -grad.lam + sum_ij H_ij C_ij = 4.8 + 5.92 with the coefficients C of _bias_brackets
        model = dirichlet_model((2, 1, 2))
        prof = BoundaryProfile(d=2, boundary={2: 0.5}, interior={1: 0.4})
        exp = density_bias_boundary(model, prof, 30)
        assert exp.bracket_m1 == pytest.approx(-10.08, abs=1e-12)
        assert exp.bracket_m2 == pytest.approx(10.72, abs=1e-12)

    def test_uniform_brackets_exactly_zero(self, uni1):
        prof = BoundaryProfile(d=1, boundary={1: 2.0})
        exp = density_bias_boundary(uni1, prof, 10)
        assert exp.bracket_m1 == 0.0 and exp.bracket_m2 == 0.0 and exp.value == 0.0

    def test_order_notes(self, beta22):
        full = density_bias_boundary(beta22, BoundaryProfile(d=1, boundary={1: 1.0}), 10)
        part = density_bias_boundary(beta22, BoundaryProfile.interior_point(0.3), 10)
        assert "m^-1" not in full.order_note
        assert "m^-1" in part.order_note


def density_variance(model: DensityModel, profile: BoundaryProfile, m: float, n: float) -> float:
    """The leading variance term, as the density report carries it."""
    return density_mse(model, profile, m, n).terms["var_leading"]


class TestDensityVariance:
    def test_interior_hand_value(self, uni1):
        prof = BoundaryProfile.interior_point(0.5)
        value = density_variance(uni1, prof, 100, 10_000)
        assert value == pytest.approx(1e-4 * 10 / SQRT_PI, rel=1e-12)

    def test_boundary_bessel_factor(self, beta12):
        prof = BoundaryProfile(d=1, boundary={1: 1.0})
        value = density_variance(beta12, prof, 50, 1000)
        expected = 50 / 1000 * 2.0 * poisson_equal_probability(1.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_lambda_factor_is_exactly_one(self, beta12):
        prof = BoundaryProfile(d=1, boundary={1: 0.0})
        value = density_variance(beta12, prof, 50, 1000)
        assert value == pytest.approx(50 / 1000 * 2.0, rel=1e-14)

    def test_mixed_profile_hand_value(self):
        model = dirichlet_model((2, 1, 2))
        prof = BoundaryProfile(d=2, boundary={2: 0.5}, interior={1: 0.4})
        expected = (
            5.76
            * (4 * math.pi * 0.6 * 0.4) ** -0.5
            * poisson_equal_probability(0.5)
            * 20 ** 1.5
            / 500.0
        )
        assert density_variance(model, prof, 20, 500) == pytest.approx(expected, rel=1e-12)

    def test_scaling_in_n_and_m(self, beta12):
        prof = BoundaryProfile(d=1, boundary={1: 1.5})
        v = density_variance(beta12, prof, 64, 1000)
        assert density_variance(beta12, prof, 64, 2000) * 2 == pytest.approx(v, rel=1e-14)
        ratio = density_variance(beta12, prof, 128, 1000) / v
        assert ratio == pytest.approx(2.0, rel=1e-12)  # m^((1+1)/2)

    def test_boundary_continuity_in_lambda(self, beta12):
        tiny = density_variance(
            beta12, BoundaryProfile(d=1, boundary={1: 1e-8}), 50, 1000
        )
        zero = density_variance(beta12, BoundaryProfile(d=1, boundary={1: 0.0}), 50, 1000)
        assert abs(tiny / zero - 1.0) <= 1e-6


class TestBandwidthChoice:
    def test_beta22_interior_coefficient(self, beta22):
        prof = BoundaryProfile.interior_point(0.3)
        m_opt, mse = density_m_opt(beta22, prof, 1.0)
        assert m_opt == pytest.approx(1.5797, rel=5e-4)
        m2, _ = density_m_opt(beta22, prof, 10_000.0)
        assert m2 == pytest.approx(m_opt * 10_000 ** 0.4, rel=1e-12)

    def test_no_optimum_signals(self, uni1, beta22):
        assert density_m_opt(uni1, BoundaryProfile.interior_point(0.5), 1000.0) is None
        # zero variance factor: density vanishes on the slice
        assert density_m_opt(beta22, BoundaryProfile(d=1, boundary={1: 1.0}), 1000.0) is None

    def test_mse_rate_exponents(self, beta22):
        prof = BoundaryProfile.interior_point(0.3)
        _, mse3 = density_m_opt(beta22, prof, 1e3)
        _, mse6 = density_m_opt(beta22, prof, 1e6)
        assert mse6 / mse3 == pytest.approx((1e6 / 1e3) ** (-4.0 / 5.0), rel=1e-12)
        mixed = dirichlet_model((2, 1, 2))
        prof2 = BoundaryProfile(d=2, boundary={2: 0.5}, interior={1: 0.4})
        _, n4 = density_m_opt(mixed, prof2, 1e4)
        _, n6 = density_m_opt(mixed, prof2, 1e6)
        assert n6 / n4 == pytest.approx((1e6 / 1e4) ** (-4.0 / 7.0), rel=1e-12)

    def test_two_term_mse_is_stationary_at_m_opt(self):
        rng = np.random.default_rng(21)
        tested = 0
        while tested < 20:
            d = int(rng.integers(1, 4))
            j_size = int(rng.integers(0, d + 1))
            j_set = sorted(rng.choice(np.arange(1, d + 1), size=j_size, replace=False))
            boundary = {int(i): float(rng.uniform(0.0, 3.0)) for i in j_set}
            rest = [i for i in range(1, d + 1) if i not in boundary]
            raw = rng.dirichlet(np.ones(len(rest) + 1))[: len(rest)] * 0.9 + 0.02
            interior = {int(i): float(v) for i, v in zip(rest, raw)}
            if sum(interior.values()) >= 1.0:
                continue
            alpha = [1.0 if i in boundary else float(rng.integers(2, 5)) for i in range(1, d + 1)]
            alpha.append(float(rng.integers(2, 5)))
            model = dirichlet_model(alpha)
            profile = BoundaryProfile(d=d, boundary=boundary, interior=interior)
            n = float(10 ** rng.uniform(3, 6))
            opt = density_m_opt(model, profile, n)
            if opt is None:
                continue
            m_opt, mse_at = opt
            mse = lambda m: density_mse(model, profile, m, n).terms["mse"]
            assert mse(0.99 * m_opt) > mse(m_opt)
            assert mse(1.01 * m_opt) > mse(m_opt)
            assert mse(m_opt) == pytest.approx(mse_at, rel=1e-12)
            tested += 1
        # the reduced-bias optimum, on full-J profiles where the gradient vanishes at the origin
        for model, profile in shoulder_cases():
            n = 1e5
            report = density_mse_shoulder(model, profile, 1.0, n)
            m_opt, mse_at = report.m_opt, report.mse_at_m_opt
            mse = lambda m: density_mse_shoulder(model, profile, m, n).terms["mse"]
            assert mse(0.99 * m_opt) > mse(m_opt)
            assert mse(1.01 * m_opt) > mse(m_opt)
            assert mse(m_opt) == pytest.approx(mse_at, rel=1e-12)

    def test_closed_form_matches_numerical_minimizer(self, beta12):
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        prof = BoundaryProfile(d=1, boundary={1: 1.0})
        n = 1e5
        m_opt, _ = density_m_opt(beta12, prof, n)
        result = minimize_scalar(
            lambda m: density_mse(beta12, prof, m, n).terms["mse"],
            bounds=(m_opt / 50, m_opt * 50),
            method="bounded",
            options={"xatol": 1e-7 * m_opt},
        )
        assert result.x == pytest.approx(m_opt, rel=1e-3)


def make_flat_shoulder_model() -> DensityModel:
    """d=1 density (3/4)(1 + x^2): positive at 0, zero slope, curvature 3/2."""
    return DensityModel(
        name="poly(1+x^2)",
        d=1,
        density=lambda x: 0.75 * (1.0 + float(np.atleast_1d(x)[0]) ** 2),
        density_grad=lambda x: np.array([1.5 * float(np.atleast_1d(x)[0])]),
        density_hessian=lambda x: np.array([[1.5]]),
        density_third=lambda x: np.zeros((1, 1, 1)),
        density_fourth=lambda x: np.zeros((1, 1, 1, 1)),
    )


def make_quadratic_shoulder_model() -> DensityModel:
    """d=2 density 1 + x^T A x: zero gradient at the origin, constant Hessian 2A."""
    a = np.array([[1.5, -0.5], [-0.5, 2.0]])
    return DensityModel(
        name="poly(1+xAx)",
        d=2,
        density=lambda x: 1.0 + float(np.asarray(x) @ a @ np.asarray(x)),
        density_grad=lambda x: 2.0 * a @ np.asarray(x),
        density_hessian=lambda x: 2.0 * a,
        density_third=lambda x: np.zeros((2, 2, 2)),
        density_fourth=lambda x: np.zeros((2, 2, 2, 2)),
    )


def shoulder_cases() -> list[tuple[DensityModel, BoundaryProfile]]:
    """Full-J profiles, with models whose gradient vanishes at the origin and whose Hessian does not."""
    return [
        (make_flat_shoulder_model(), BoundaryProfile(d=1, boundary={1: 0.5})),
        (make_quadratic_shoulder_model(), BoundaryProfile(d=2, boundary={1: 0.5, 2: 1.5})),
    ]


class TestShoulder:
    def test_bracket_hand_value(self, beta33):
        prof = BoundaryProfile(d=1, boundary={1: 0.0})
        assert shoulder_bracket(beta33, prof) == pytest.approx(10.0, abs=1e-10)

    def test_violation_names_derivative(self, beta22):
        prof = BoundaryProfile(d=1, boundary={1: 0.0})
        with pytest.raises(ValidationError, match="df/dx_1"):
            shoulder_bracket(beta22, prof)

    def test_hessian_violation_names_pair(self):
        # flat gradient at the slice (0, 0.4) but curvature in the fixed direction
        model = DensityModel(
            name="bump",
            d=2,
            density=lambda x: 1.0 + (x[1] - 0.4) ** 2,
            density_grad=lambda x: np.array([0.0, 2.0 * (x[1] - 0.4)]),
            density_hessian=lambda x: np.array([[0.0, 0.0], [0.0, 2.0]]),
            density_third=lambda x: np.zeros((2, 2, 2)),
            density_fourth=lambda x: np.zeros((2, 2, 2, 2)),
        )
        prof = BoundaryProfile(d=2, boundary={1: 0.0}, interior={2: 0.4})
        with pytest.raises(ValidationError, match="d2f/dx_2dx_2"):
            shoulder_bracket(model, prof)

    def test_uniform_gives_no_optimum(self, uni1):
        prof = BoundaryProfile(d=1, boundary={1: 0.0})
        assert density_mse_shoulder(uni1, prof, 1.0, 1e4).m_opt is None
        report = density_mse_shoulder(uni1, prof, 20, 1e4)
        assert report.m_opt is None
        assert "none" in report.m_opt_note

    def test_optimum_needs_full_boundary(self):
        prof = BoundaryProfile(d=2, boundary={1: 0.0}, interior={2: 0.3})
        report = density_mse_shoulder(dirichlet_model((3, 1, 3)), prof, 1.0, 1e4)
        assert (report.m_opt, report.mse_at_m_opt) == (None, None)
        assert report.m_opt_note == "none (optimum defined only for full J)"

    def test_rate_exponent(self):
        model = make_flat_shoulder_model()
        prof = BoundaryProfile(d=1, boundary={1: 0.5})
        opt4 = density_mse_shoulder(model, prof, 1.0, 1e4)
        opt6 = density_mse_shoulder(model, prof, 1.0, 1e6)
        assert opt6.mse_at_m_opt / opt4.mse_at_m_opt == pytest.approx(100.0 ** (-4.0 / 5.0), rel=1e-12)

    def test_bracket_is_the_second_density_bracket_on_full_j(self):
        for model, profile in shoulder_cases():
            assert shoulder_bracket(model, profile) == density_bias_boundary(model, profile, 20).bracket_m2

    def test_partial_j_bracket_is_the_second_density_bracket(self):
        # f = 1 + x1^2 (1 + x2) + x1 (x2 - 0.4)^2: gradient 0 on the slice (0, 0.4), H_22 = 0 there
        model = DensityModel(
            name="poly",
            d=2,
            density=lambda x: 1.0 + x[0] ** 2 * (1.0 + x[1]) + x[0] * (x[1] - 0.4) ** 2,
            density_grad=lambda x: np.array(
                [2 * x[0] * (1 + x[1]) + (x[1] - 0.4) ** 2, x[0] ** 2 + 2 * x[0] * (x[1] - 0.4)]
            ),
            density_hessian=lambda x: np.array(
                [[2 * (1 + x[1]), 2 * x[0] + 2 * (x[1] - 0.4)], [2 * x[0] + 2 * (x[1] - 0.4), 2 * x[0]]]
            ),
            density_third=lambda x: np.array([[[0.0, 2.0], [2.0, 2.0]], [[2.0, 2.0], [2.0, 0.0]]]),
            density_fourth=lambda x: np.zeros((2, 2, 2, 2)),
        )
        prof = BoundaryProfile(d=2, boundary={1: 0.5}, interior={2: 0.4})
        exp = density_bias_boundary(model, prof, 20)
        assert exp.bracket_m1 == 0.0
        assert shoulder_bracket(model, prof) == exp.bracket_m2
        # (lam + 1/6) H_11 + f_122 sigma_22 (lam + 1/2) / 2, with H_11 = 2.8 and sigma_22 = 0.24
        assert exp.bracket_m2 == pytest.approx((0.5 + 1 / 6) * 2.8 + 0.24, abs=1e-12)

    def test_mse_uses_fourth_power(self):
        model = make_flat_shoulder_model()
        prof = BoundaryProfile(d=1, boundary={1: 0.5})
        b2 = shoulder_bracket(model, prof)
        assert b2 == pytest.approx((1.0 / 6.0 + 0.5) * 1.5, rel=1e-12)
        report = density_mse_shoulder(model, prof, 10, 1e4)
        var = density_variance(model, prof, 10, 1e4)
        assert report.terms["mse"] == pytest.approx(var + b2**2 / 10**4, rel=1e-12)


class TestCdfExpansions:
    def test_degenerate_profile_exact_zero(self, beta22):
        for prof in (
            BoundaryProfile(d=1, boundary={1: 0.0}),
            BoundaryProfile(d=2, boundary={1: 0.0, 2: 1.5}),
        ):
            model = beta22 if prof.d == 1 else make_product_cdf_model()
            assert cdf_bias_boundary(model, prof, 50).value == 0.0
            assert cdf_variance_boundary(model, prof, 50, 100).value == 0.0
            report = cdf_mse(model, prof, 50, 100)
            assert report.terms["mse"] == 0.0
            assert "a.s." in report.m_opt_note

    def test_interior_bias_hand_value(self, beta22):
        prof = BoundaryProfile.interior_point(0.3)
        exp = cdf_bias_boundary(beta22, prof, 100)
        assert exp.bracket_m1 == pytest.approx(0.252, abs=1e-12)
        # F''' x (1 - x)(1 - 2x) / 6 with F''' = f'' = -12; it was printed as 0
        assert exp.bracket_m2 == pytest.approx(-12 * 0.3 * 0.7 * 0.4 / 6, abs=1e-12)
        assert exp.value == pytest.approx(0.252 / 100 - 0.168 / 100**2, abs=1e-14)

    def test_uniform_cdf_bias_vanishes(self, uni1):
        prof = BoundaryProfile.interior_point(0.4)
        assert cdf_bias_boundary(uni1, prof, 50).value == 0.0

    def test_boundary_bias_second_bracket(self, beta12):
        # F'' at the origin is -2 for Beta(1,2), so the m^-2 bracket is -lam
        prof = BoundaryProfile(d=1, boundary={1: 1.3})
        exp = cdf_bias_boundary(beta12, prof, 40)
        assert exp.bracket_m1 == 0.0
        assert exp.bracket_m2 == pytest.approx(-1.3, abs=1e-12)

    def test_interior_variance_hand_value(self, beta22):
        prof = BoundaryProfile.interior_point(0.3)
        value = cdf_variance_boundary(beta22, prof, 100, 1.0).value
        expected = 0.216 * 0.784 - 1.26 * math.sqrt(0.21 / math.pi) / 10.0
        assert value == pytest.approx(expected, rel=1e-12)

    def test_boundary_variance_hand_value(self, beta12):
        prof = BoundaryProfile(d=1, boundary={1: 1.0})
        value = cdf_variance_boundary(beta12, prof, 100, 1.0).value
        expected = 2.0 * (1.0 - poisson_within_one_probability(1.0)) / 100.0
        assert value == pytest.approx(expected, rel=1e-12)

    def test_small_lambda_term_vanishes(self, beta12):
        prof = BoundaryProfile(d=1, boundary={1: 1e-8})
        value = cdf_variance_boundary(beta12, prof, 10, 1.0).value
        assert 0.0 < value <= 1e-6

    def test_product_model_interior_hand_values(self):
        model = make_product_cdf_model()
        prof = BoundaryProfile(d=2, interior={1: 0.2, 2: 0.3})
        exp = cdf_bias_boundary(model, prof, 50)
        assert exp.bracket_m1 == pytest.approx(-1.458, abs=1e-12)
        var = cdf_variance_boundary(model, prof, 50, 1.0).value
        expected = 0.486 * 0.514 - (
            1.62 * math.sqrt(0.16 / math.pi) + 2.16 * math.sqrt(0.21 / math.pi)
        ) / math.sqrt(50)
        assert var == pytest.approx(expected, rel=1e-12)

    def test_product_model_boundary_coupling_only(self):
        model = make_product_cdf_model()
        prof = BoundaryProfile(d=2, boundary={1: 1.0}, interior={2: 0.3})
        # dF/dx2 vanishes on the x1 = 0 slice, so only the coupling term remains
        value = cdf_variance_boundary(model, prof, 80, 1.0).value
        expected = 3.24 * min_coupling_factor(1.0) / 80.0
        assert value == pytest.approx(expected, rel=1e-12)
        # F_22 vanishes on the slice, so b1 does; b2 = F_11/2 - 0.3 F_12 + 0.21 F_122/2 = -4.05 - 4.32 - 2.52
        # (it was taken from F_11 at the origin, 0)
        exp = cdf_bias_boundary(model, prof, 80)
        assert exp.bracket_m1 == 0.0
        assert exp.bracket_m2 == pytest.approx(-10.89, abs=1e-12)

    def test_partial_j_second_bracket_matches_exact_mean(self):
        # E F(K/m) for K ~ Multinomial(m, x) summed over the lattice, for the polynomial F of the product model
        model = make_product_cdf_model()
        prof = BoundaryProfile(d=2, boundary={1: 1.0}, interior={2: 0.3})
        scaled = []
        for m in (100, 200, 400):
            x = prof.realized_point(m)
            k = lattice_array(m, 2)
            weights = np.exp(log_multinomial_pmf(k, m, SimplexPoint.of(x)))
            mean = weights @ np.array([model.cdf(row) for row in k / m])
            scaled.append(m * m * (mean - model.cdf(x)))
        # v(m) = m^2 (E - F) = b2 + c/m + e/m^2, so 2 v(2m) - v(m) = b2 + e/(2 m^2), smaller than the
        # step v(2m) - v(m) = -c/(2m) by |e/(c m)|: under 1/50 at m = 200 while |e| <= 4 |c|
        assert 2 * scaled[2] - scaled[1] == pytest.approx(-10.89, abs=abs(scaled[2] - scaled[1]) / 50)

    def test_mse_markers(self, beta22, beta12, uni1):
        boundary = cdf_mse(beta12, BoundaryProfile(d=1, boundary={1: 1.0}), 50, 1000)
        assert boundary.m_opt is None
        assert boundary.m_opt_note == "none (no finite optimum in m)"
        interior = BoundaryProfile.interior_point(0.3)
        assert cdf_mse(beta22, interior, 50, 1000).terms["mse"] > 0.0
        # the uniform cdf is linear, so b1 = 0; a model whose cdf gradient vanishes at x has V = 0
        flat = cdf_mse(uni1, interior, 50, 1000)
        assert (flat.m_opt, flat.m_opt_note) == (None, "none (zero bias bracket)")
        still = cdf_mse(dataclasses.replace(beta22, cdf_grad=lambda x: np.zeros(1)), interior, 50, 1000)
        assert (still.m_opt, still.m_opt_note) == (None, "none (zero variance factor)")

    def test_interior_optimum_hand_value(self, beta22):
        # b1 = F'' x (1 - x)/2 = 0.252 and V = f(x) sqrt(x (1 - x)/pi) with f(0.3) = 1.26, at n = 1e4
        report = cdf_mse(beta22, BoundaryProfile.interior_point(0.3), 50, 1e4)
        vfactor = 1.26 * math.sqrt(0.21 / math.pi)
        assert report.m_opt == pytest.approx((4e4 * 0.252**2 / vfactor) ** (2 / 3), rel=1e-12)
        assert report.m_opt == pytest.approx(393.2, abs=0.05)
        assert report.m_opt_note == ""

    @pytest.mark.parametrize(
        "name, x, n",
        [("beta22", (0.3,), 1e4), ("beta23", (0.7,), 1e6), ("product", (0.1, 0.3), 1e5)],
    )
    def test_interior_optimum_matches_numerical_minimizer(self, beta22, name, x, n):
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        model = {"beta22": beta22, "beta23": dirichlet_model((2, 3)), "product": make_product_cdf_model()}[name]
        prof = BoundaryProfile.interior_point(x)
        report = cdf_mse(model, prof, 1.0, n)

        def mse(m):  # F(1 - F)/n - V m^(-1/2)/n + b1^2/m^2
            return cdf_variance_boundary(model, prof, m, n).value + (cdf_bias_boundary(model, prof, m).bracket_m1 / m) ** 2

        m_opt = report.m_opt
        result = minimize_scalar(mse, bounds=(m_opt / 50, m_opt * 50), method="bounded", options={"xatol": 1e-7 * m_opt})
        assert result.x == pytest.approx(m_opt, rel=1e-3)
        assert mse(m_opt) == pytest.approx(report.mse_at_m_opt, rel=1e-12)

    def test_requires_cdf_model(self, dir222):
        prof = BoundaryProfile(d=2, interior={1: 0.2, 2: 0.3})
        with pytest.raises(ValidationError, match="cdf"):
            cdf_bias_boundary(dir222, prof, 10)


def beta23_cdf(t):
    """Beta(2,3): F = 6t^2 - 8t^3 + 3t^4, f = 12 t (1 - t)^2."""
    return 6 * t**2 - 8 * t**3 + 3 * t**4


class TestSecondBracketAgainstExactMeans:
    """b2 is the limit of m^2 (E - truth - b1/m), with E the estimator's exact mean.

    That scaled gap is b2 + c/m + O(m^-2), so the Richardson value 2 v(2m) - v(m)
    is b2 + e/(2 m^2) + ...: against the step v(2m) - v(m) = -c/(2m) it is
    smaller by |e/(c m)|, under 1/100 at m = 800 while |e| <= 8 |c|.
    """

    @pytest.mark.parametrize(
        "kind,profile,b2",
        [("density", BoundaryProfile.interior_point(0.3), 3.664),
         ("cdf", BoundaryProfile.interior_point(0.3), 0.0273),
         ("density", BoundaryProfile(d=1, boundary={1: 1.5}), -98.0),
         ("cdf", BoundaryProfile(d=1, boundary={1: 1.5}), 9.0)],
        ids=["density-interior", "cdf-interior", "density-boundary", "cdf-boundary"],
    )
    def test_beta23_richardson_limit(self, kind, profile, b2):
        model = dirichlet_model((2, 3))
        expansion = density_bias_boundary if kind == "density" else cdf_bias_boundary
        truth = (lambda t: 12 * t * (1 - t) ** 2) if kind == "density" else beta23_cdf
        scaled = []
        for m in (200, 400, 800, 1600):
            x = float(profile.realized_point(m)[0])
            exp = expansion(model, profile, m)
            scaled.append(m * m * (exact_mean_1d(beta23_cdf, m, x, kind) - truth(x) - exp.bracket_m1 / m))
        assert exp.bracket_m2 == pytest.approx(b2, abs=1e-10)
        limit = 2 * scaled[3] - scaled[2]
        assert limit == pytest.approx(b2, abs=abs(scaled[3] - scaled[2]) / 100 + 1e-7)

    def test_quadratic_d2_exact_mean(self):
        model = dirichlet_model((2, 1, 2))
        prof = BoundaryProfile(d=2, boundary={2: 0.5}, interior={1: 0.4})
        scaled = []
        for m in (30, 60, 120):
            x = prof.realized_point(m)
            bias = exact_density_mean_2d(model.density, m, x) - model.density(x)
            exp = density_bias_boundary(model, prof, m)
            if m == 30:
                assert bias == pytest.approx(-0.324222222221, abs=1e-12)
                # the two-term expansion is closer than the one-term one (it was not: -0.35822)
                assert abs(exp.value - bias) < abs(exp.bracket_m1 / m - bias) / 10
            scaled.append(m * m * (bias - exp.bracket_m1 / m))
        assert 2 * scaled[2] - scaled[1] == pytest.approx(exp.bracket_m2, abs=abs(scaled[2] - scaled[1]) / 100)


class TestExpansionReport:
    def test_density_report_fields(self, beta22):
        report = density_mse(beta22, BoundaryProfile.interior_point(0.3), 40, 1e6)
        data = json.loads(report.to_json())
        assert data["estimator"] == "density"
        assert data["terms"]["var_leading"] >= 0.0
        assert data["terms"]["mse"] >= 0.0
        assert data["m_opt"] > 0
        assert data["mse_at_m_opt"] > 0
        assert set(data["order_notes"]) == {"bias", "var_leading", "mse"}

    def test_no_optimum_serializes_as_marker(self, uni1):
        report = density_mse(uni1, BoundaryProfile.interior_point(0.5), 40, 1e4)
        data = json.loads(report.to_json())
        assert data["m_opt"] == "none (zero bias bracket)"
        assert data["mse_at_m_opt"] is None

    def test_mse_consistency(self, beta22):
        prof = BoundaryProfile.interior_point(0.3)
        report = density_mse(beta22, prof, 40, 1e6)
        var = density_variance(beta22, prof, 40, 1e6)
        b1 = density_bias_boundary(beta22, prof, 40).bracket_m1
        assert report.terms["mse"] == pytest.approx(var + (b1 / 40) ** 2, rel=1e-14)


class TestRealBandwidthAndSampleSize:
    """m and n are finite positive reals; a bool or a numeric string is refused, not read as a number."""

    @pytest.mark.parametrize("report", [density_mse, density_mse_shoulder, cdf_mse])
    @pytest.mark.parametrize(
        "m,n,message",
        [(True, 1e4, "'m' must be a finite positive number, got True"),
         ("40", 1e4, "'m' must be a finite positive number, got '40'"),
         (40, False, "'n' must be a finite positive number, got False"),
         (40, "1e4", "'n' must be a finite positive number, got '1e4'")],
    )
    def test_bool_or_string_is_refused(self, uni1, report, m, n, message):
        # True ran as m = 1; a string ended in a TypeError
        with pytest.raises(ValidationError, match=message):
            report(uni1, BoundaryProfile(d=1, boundary={1: 1.0}), m, n)


class TestNoFiniteOptimum:
    """A negative variance scale ``(a / 4 order) vfactor`` lets the mse fall without bound as m grows."""

    @pytest.mark.parametrize(
        "report,field,value",
        [(cdf_mse, "cdf_grad", lambda x: -np.ones(1)), (density_mse, "density", lambda x: -1.0)],
        ids=["cdf-gradient", "density"],
    )
    def test_negative_scale_has_no_optimum(self, beta22, report, field, value):
        # the closed form gave the complex m* (-229.36-397.27j) for the cdf and (21.32-65.61j) for the density
        result = report(dataclasses.replace(beta22, **{field: value}), BoundaryProfile.interior_point(0.3), 50, 1e4)
        assert (result.m_opt, result.mse_at_m_opt, result.m_opt_note) == (None, None, "none (no finite optimum in m)")
        assert json.loads(result.to_json())["m_opt"] == "none (no finite optimum in m)"


class TestFloatRange:
    """A report whose numbers leave float range is refused, naming m and n, instead of ending in a traceback."""

    @pytest.mark.parametrize(
        "report,profile,m,n",
        [(density_mse, BoundaryProfile.interior_point(0.3), 1e200, 1e4),  # OverflowError in b2 / m**2
         (density_mse, BoundaryProfile.interior_point(0.3), 1e-300, 1e4),  # ZeroDivisionError there
         (cdf_mse, BoundaryProfile.interior_point(0.3), 50, 1e-300),  # OverflowError in the optimum
         (density_mse_shoulder, BoundaryProfile(d=1, boundary={1: 1.0}), 1e200, 1e4)],
        ids=["density-large-m", "density-tiny-m", "cdf-tiny-n", "shoulder-large-m"],
    )
    def test_refused_naming_m_and_n(self, beta22, uni1, report, profile, m, n):
        model = uni1 if report is density_mse_shoulder else beta22
        with pytest.raises(ValidationError, match=re.escape(f"the expansion at m={m!r}, n={n!r} leaves the float range")):
            report(model, profile, m, n)

    @pytest.mark.parametrize(
        "term,args",
        [(density_bias_boundary, (1e200,)),  # OverflowError in b2 / m**2
         (density_bias_boundary, (1e-300,)),  # ZeroDivisionError there
         (cdf_bias_boundary, (1e200,)),  # OverflowError in b2 / m**2
         (cdf_variance_boundary, (1e-300, 1e-300))],  # ZeroDivisionError in / (n * m)
        ids=["density-bias-large-m", "density-bias-tiny-m", "cdf-bias-large-m", "cdf-variance-tiny-mn"],
    )
    def test_bare_term_refused_naming_m_and_n(self, beta22, term, args):
        named = f"m={args[0]!r}" + "".join(f", n={n!r}" for n in args[1:])
        with pytest.raises(ValidationError, match=re.escape(f"the expansion at {named} leaves the float range")):
            term(beta22, BoundaryProfile.interior_point(0.3), *args)

    def test_guarded_terms_take_m_and_n_by_name(self, beta22):
        profile = BoundaryProfile.interior_point(0.3)
        assert density_bias_boundary(beta22, profile, m=40) == density_bias_boundary(beta22, profile, 40)
        assert cdf_bias_boundary(beta22, profile, m=40) == cdf_bias_boundary(beta22, profile, 40)
        assert cdf_variance_boundary(beta22, profile, m=40, n=1e4) == cdf_variance_boundary(beta22, profile, 40, 1e4)
        assert density_mse(beta22, profile, m=40, n=1e4) == density_mse(beta22, profile, 40, 1e4)

    def test_infinite_term_is_refused(self, beta22):
        # m^(1/2)/n overflows to inf without raising, so no JSON carries Infinity
        with pytest.raises(ValidationError, match=re.escape("the expansion at m=1e+20, n=1e-300 leaves the float range")):
            density_mse(beta22, BoundaryProfile.interior_point(0.3), 1e20, 1e-300)


def test_cdf_mse_evaluates_the_slice_point_once_for_the_variance(beta22):
    # the variance and the optimum each evaluated F and its gradient: cdf_grad 3 calls and cdf 2
    calls = {"cdf": 0, "cdf_grad": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(beta22, name)(x)
        return call

    model = dataclasses.replace(beta22, cdf=counted("cdf"), cdf_grad=counted("cdf_grad"))
    report = cdf_mse(model, BoundaryProfile.interior_point(0.3), 50, 1e4)
    assert calls == {"cdf": 1, "cdf_grad": 2}  # one gradient for the bias, one gradient and one value for the variance
    expected = cdf_mse(beta22, BoundaryProfile.interior_point(0.3), 50, 1e4)
    assert (report.terms, report.m_opt, report.mse_at_m_opt) == (expected.terms, expected.m_opt, expected.mse_at_m_opt)
    assert report.terms["var_leading"] == cdf_variance_boundary(beta22, BoundaryProfile.interior_point(0.3), 50, 1e4).value
