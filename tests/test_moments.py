import itertools

import numpy as np
import pytest

from bernstein_simplex import (
    MomentQuery,
    SimplexPoint,
    ValidationError,
    central_moment_analytic,
    central_moment_bruteforce,
    fourth_moment_scaling,
)

from bernstein_simplex.asymptotics import _bias_brackets
from bernstein_simplex.moments import _trial_moment
from conftest import binom_pmf_exact, reference_central_moment


def random_point(rng, d):
    return SimplexPoint.of(rng.dirichlet(np.ones(d + 1))[:d])


def edge_and_interior_points(d, seed):
    """Two random interior points, a face x_1 = 0, every vertex (the origin included) and a point with sum(x) = 1."""
    rng = np.random.default_rng(seed)
    face = rng.dirichlet(np.ones(d + 1))[:d]
    face[0] = 0.0
    full = rng.dirichlet(np.ones(d))
    vertices = [tuple(float(i == j) for j in range(d)) for i in range(-1, d)]
    return [*(random_point(rng, d) for _ in range(2)), SimplexPoint.of(face), *map(SimplexPoint.of, vertices),
            SimplexPoint.of(full / full.sum())]


def index_tuples(d, orders=(2, 3, 4)):
    return [t for order in orders for t in itertools.product(range(1, d + 1), repeat=order)]


class TestQueries:
    def test_order_bounds(self):
        with pytest.raises(ValidationError):
            MomentQuery(m=3, x=SimplexPoint.of(0.5), indices=(1,))
        with pytest.raises(ValidationError):
            MomentQuery(m=3, x=SimplexPoint.of(0.5), indices=(1,) * 5)

    def test_non_integer_order_is_refused(self):
        with pytest.raises(ValidationError, match="order m must be an integer, got 2.5"):
            MomentQuery(m=2.5, x=SimplexPoint.of(0.5), indices=(1, 1))
        with pytest.raises(ValidationError, match="moment index must be an integer, got 1.5"):
            MomentQuery(m=3, x=SimplexPoint.of(0.5), indices=(1, 1.5))
        assert MomentQuery(m=3.0, x=SimplexPoint.of(0.5), indices=(1, 1)).m == 3

    def test_index_range(self):
        with pytest.raises(ValidationError):
            MomentQuery(m=3, x=SimplexPoint.of((0.2, 0.3)), indices=(1, 3))


class TestClosedForms:
    def test_variance_hand_value(self):
        q = MomentQuery(m=3, x=SimplexPoint.of((0.2, 0.3)), indices=(1, 1))
        assert central_moment_analytic(q) == pytest.approx(0.48, abs=1e-15)
        assert central_moment_bruteforce(q) == pytest.approx(0.48, abs=1e-13)

    def test_covariance_hand_value(self):
        q = MomentQuery(m=3, x=SimplexPoint.of((0.2, 0.3)), indices=(1, 2))
        assert central_moment_analytic(q) == pytest.approx(-0.18, abs=1e-15)
        assert central_moment_bruteforce(q) == pytest.approx(-0.18, abs=1e-13)

    def test_third_moment_vanishes_at_half(self):
        q = MomentQuery(m=2, x=SimplexPoint.of(0.5), indices=(1, 1, 1))
        assert central_moment_analytic(q) == pytest.approx(0.0, abs=1e-15)
        assert central_moment_bruteforce(q) == pytest.approx(0.0, abs=1e-14)

    def test_exhaustive_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            index_sets = list(itertools.product(range(1, d + 1), repeat=2)) + list(
                itertools.product(range(1, d + 1), repeat=3)
            )
            for m in range(1, 7):
                for _ in range(3):
                    x = random_point(rng, d)
                    for indices in index_sets:
                        q = MomentQuery(m=m, x=x, indices=indices)
                        assert central_moment_analytic(q) == pytest.approx(
                            central_moment_bruteforce(q), abs=1e-12
                        )

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(8)
        x = random_point(rng, 3)
        for indices in [(1, 2, 3), (2, 1, 3), (3, 2, 1)]:
            q = MomentQuery(m=5, x=x, indices=indices)
            base = MomentQuery(m=5, x=x, indices=(1, 2, 3))
            assert central_moment_analytic(q) == pytest.approx(
                central_moment_analytic(base), abs=1e-15
            )
            assert central_moment_bruteforce(q) == pytest.approx(
                central_moment_bruteforce(base), abs=1e-13
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_covariance_matrix_psd(self, d):
        rng = np.random.default_rng(9 + d)
        x = random_point(rng, d)
        m = 5
        cov = np.array(
            [
                [
                    central_moment_bruteforce(MomentQuery(m=m, x=x, indices=(i, j)))
                    for j in range(1, d + 1)
                ]
                for i in range(1, d + 1)
            ]
        )
        eigenvalues = np.linalg.eigvalsh(cov)
        assert np.all(eigenvalues >= -1e-12)

    def test_vertex_is_degenerate(self):
        q = MomentQuery(m=4, x=SimplexPoint.of((1.0, 0.0)), indices=(1, 1))
        assert central_moment_bruteforce(q) == pytest.approx(0.0, abs=1e-14)
        q4 = MomentQuery(m=4, x=SimplexPoint.of(1.0), indices=(1, 1, 1, 1))
        assert central_moment_bruteforce(q4) == pytest.approx(0.0, abs=1e-14)


class TestBracketMoments:
    """m times the per-trial sigma and mu3 that the bias brackets read, against the fold, entry by entry."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bracket_tensors_match_the_fold(self, d):
        for x in edge_and_interior_points(d, seed=30 + d):
            for index in itertools.chain(itertools.product(range(d), repeat=2), itertools.product(range(d), repeat=3)):
                unit = np.zeros((d,) * len(index))
                unit[index] = 1.0
                derivative = lambda r: unit if r == len(index) else np.zeros((d,) * r)  # noqa: E731
                # the cdf's brackets at lam = 0: a unit Hessian puts sigma_ij / 2 into b1, a unit third derivative
                # puts mu3_ijk / 6 into b2
                b1, b2 = _bias_brackets(derivative, np.array(x.coords), np.zeros(d), cube=False)
                trial = 2.0 * b1 if len(index) == 2 else 6.0 * b2
                for m in (1, 4, 9):
                    q = MomentQuery(m=m, x=x, indices=tuple(i + 1 for i in index))
                    assert abs(m * trial - central_moment_bruteforce(q)) <= 1e-12, (x, index, m)

    def test_one_entry_or_a_whole_tensor(self):
        x = (0.2, 0.3, 0.1)
        for order in (2, 3, 4):
            tensor = _trial_moment(x, np.indices((3,) * order))
            for index in np.ndindex(tensor.shape):
                assert tensor[index] == _trial_moment(x, index)


class TestFourthMoment:
    def test_hand_enumeration(self):
        q = MomentQuery(m=2, x=SimplexPoint.of(0.5), indices=(1, 1, 1, 1))
        assert central_moment_bruteforce(q) == pytest.approx(0.5, abs=1e-14)

    def test_binomial_kurtosis_formula(self):
        p, q = 0.3, 0.7
        for m in (4, 8, 16):
            query = MomentQuery(m=m, x=SimplexPoint.of(p), indices=(1, 1, 1, 1))
            expected = m * p * q * (1 + 3 * (m - 2) * p * q)
            assert central_moment_bruteforce(query) == pytest.approx(expected, rel=1e-12)

    def test_scaling_sequence(self):
        seq = fourth_moment_scaling((4, 8, 16, 32), 0.5, (1, 1, 1, 1))
        pmf_check = [
            np.sum((np.arange(m + 1) - m * 0.5) ** 4 * binom_pmf_exact(m, 0.5)) / m**2
            for m in (4, 8, 16, 32)
        ]
        np.testing.assert_allclose(seq, pmf_check, rtol=1e-12)
        assert max(seq) <= 3.0 / 16.0 + 0.05

    def test_every_order_is_at_least_one(self):
        # m = 0 used to divide by zero after enumerating the lattice
        with pytest.raises(ValidationError, match="order m must be >= 1, got 0"):
            fourth_moment_scaling([0, 5], 0.5, (1, 1, 1, 1))

    def test_requires_four_indices(self):
        with pytest.raises(ValidationError):
            fourth_moment_scaling((4, 8), 0.5, (1, 1))

    def test_closed_form_matches_oracle(self):
        for d in (1, 2, 3):
            for x in edge_and_interior_points(d, 30 + d):
                for m in (1, 2, 3, 6, 20):
                    for indices in index_tuples(d, orders=(4,)):
                        exact = reference_central_moment(m, x, indices)
                        got = central_moment_analytic(MomentQuery(m=m, x=x, indices=indices))
                        assert abs(got - exact) <= 1e-12 * max(abs(exact), m**2), (x, m, indices)

    @pytest.mark.parametrize("indices", [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 3), (1, 2, 3, 3), (3, 3, 3, 3)])
    def test_m_squared_coefficient(self, indices):
        # the moment is m mu + m (m - 1) S, so its second difference in m is 2 S, with S from the covariances
        x = SimplexPoint.of((0.2, 0.3, 0.1))
        i, j, k, ell = indices
        cov = lambda a, b: central_moment_analytic(MomentQuery(m=1, x=x, indices=(a, b)))  # noqa: E731
        coefficient = cov(i, j) * cov(k, ell) + cov(i, k) * cov(j, ell) + cov(i, ell) * cov(j, k)
        for moment in (central_moment_analytic, central_moment_bruteforce):
            e = [moment(MomentQuery(m=m, x=x, indices=indices)) for m in (19, 20, 21)]
            assert (e[0] - 2.0 * e[1] + e[2]) / 2.0 == pytest.approx(coefficient, rel=1e-10, abs=1e-12)


class TestConvolutionFold:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_index_tuple_against_enumeration(self, d):
        for x in edge_and_interior_points(d, 20 + d):
            for m in (1, 2, 3, 6, 20, 60):
                for indices in index_tuples(d):
                    exact = reference_central_moment(m, x, indices)
                    got = central_moment_bruteforce(MomentQuery(m=m, x=x, indices=indices))
                    assert abs(got - exact) <= 1e-12 * max(abs(exact), m), (x, m, indices)

    @pytest.mark.parametrize("indices", [(1, 2), (1, 2, 3)])
    def test_benchmark_queries_against_mpmath(self, indices):
        mpmath = pytest.importorskip("mpmath")
        x, m = (0.2, 0.3, 0.1), 120
        with mpmath.workdps(40):
            shares = [mpmath.mpf(v) for v in x]
            shares.append(1 - sum(shares))
            trial = sum(share * mpmath.fprod((c == a - 1) - shares[a - 1] for a in indices) for c, share in enumerate(shares))
            want = float(m * trial)
        got = central_moment_bruteforce(MomentQuery(m=m, x=SimplexPoint.of(x), indices=indices))
        assert got == pytest.approx(want, rel=1e-13)

    def test_zero_order(self):
        assert central_moment_bruteforce(MomentQuery(m=0, x=SimplexPoint.of((0.2, 0.3)), indices=(1, 2, 2))) == 0.0
