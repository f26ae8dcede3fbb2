"""Known-answer checks of the benchmark's own oracles and op counter.

Run with ``python3 -m pytest bench/test_bench.py -q``; the repository's
test suite only collects ``tests/``.
"""

import math

import numpy as np
import pytest

import oracles
from workloads import Tally, compositional_draws


def brute_weights(m, x):
    karr = oracles.lattice(m, len(x))
    return karr, oracles.multinomial_weights(karr, m, x)


@pytest.mark.parametrize("m", [1, 7, 25])
def test_density_oracle_integrates_to_one_d1(m):
    rng = np.random.default_rng(m)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    xs, weights = (nodes + 1.0) / 2.0, weights / 2.0
    datasets = (
        rng.random((300, 1)),
        np.round(rng.random((300, 1)), 2),
        np.array([[0.0], [1.0], [7 / 25], [0.14], [0.28]]),
    )
    for data in datasets:
        for cubes in (oracles.half_open_cubes(data, m), oracles.ceil_cubes(data, m)):
            values = oracles.density_estimates(data, m, xs[:, None], cubes)
            assert values @ weights == pytest.approx(1.0, abs=1e-12)


def test_half_open_cubes_put_lattice_values_in_the_lower_cube():
    data = np.array([[0.0], [0.14], [0.28], [0.56], [0.57], [1.0]])
    assert oracles.half_open_cubes(data, 50).ravel().tolist() == [0, 6, 13, 27, 28, 49]
    assert oracles.ceil_cubes(data, 50).ravel().tolist() == [0, 7, 14, 28, 28, 49]


@pytest.mark.parametrize("m, x, n", [(3, 0.3, 10), (6, 0.05, 7), (9, 0.5, 1)])
def test_exact_moments_uniform_d1_match_direct_sums(m, x, n):
    uniform_cdf = lambda t: np.asarray(t, dtype=float)
    # density: every cell has mass 1/m, the summand is m * Binomial(m-1, x)(k)
    g = [m * math.comb(m - 1, k) * x**k * (1 - x) ** (m - 1 - k) for k in range(m)]
    mean = sum(gk / m for gk in g)
    var = (sum(gk * gk / m for gk in g) - mean**2) / n
    got_mean, got_var = oracles.density_exact_1d(uniform_cdf, m, x, n)
    assert mean == pytest.approx(1.0, abs=1e-14)
    assert got_mean == pytest.approx(mean, rel=1e-13)
    assert got_var == pytest.approx(var, rel=1e-11, abs=1e-15)
    # cdf: E[sum_k 1{X <= k/m} w_k] = sum_k (k/m) w_k = x for the uniform model
    w = [math.comb(m, k) * x**k * (1 - x) ** (m - k) for k in range(m + 1)]
    second = sum(w[k] * w[l] * min(k, l) / m for k in range(m + 1) for l in range(m + 1))
    got_mean, got_var = oracles.cdf_exact_1d(uniform_cdf, m, x, n)
    assert got_mean == pytest.approx(x, rel=1e-13)
    assert got_var == pytest.approx((second - x**2) / n, rel=1e-11, abs=1e-15)


def test_cdf_oracle_is_one_at_a_dominating_vertex():
    rng = np.random.default_rng(5)
    line = rng.random((200, 1))
    assert oracles.cdf_estimates(line, 20, np.array([[1.0]]))[0] == pytest.approx(1.0, abs=1e-15)
    edge = np.column_stack([rng.random(100), np.zeros(100)])
    assert oracles.cdf_estimates(edge, 12, np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("x", [(0.3,), (0.2, 0.5), (0.02, 0.3, 0.1), (0.0, 0.4)])
def test_square_sum_oracle_matches_enumeration(x):
    for big_m in (0, 1, 5, 12):
        _, w = brute_weights(big_m, x)
        assert oracles.pmf_square_sum(big_m, x) == pytest.approx(float(np.sum(w**2)), rel=1e-12)


@pytest.mark.parametrize("m, p", [(1, 0.3), (7, 0.05), (20, 0.5)])
def test_min_coupling_oracle_matches_double_sum(m, p):
    w = [math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(m + 1)]
    e_min = sum(w[k] * w[l] * min(k, l) for k in range(m + 1) for l in range(m + 1))
    assert oracles.min_coupling(m, p) == pytest.approx(e_min / m - p, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("indices", [(1, 1), (1, 2), (1, 2, 3), (2, 2, 1), (3, 3, 3)])
def test_central_moment_oracle_matches_enumeration(indices):
    m, x = 6, (0.2, 0.3, 0.1)
    karr, w = brute_weights(m, x)
    centered = karr - m * np.array(x)
    want = float(np.sum(w * np.prod(centered[:, [i - 1 for i in indices]], axis=1)))
    assert oracles.central_moment(m, x, indices) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_compositional_rows_sum_to_one_hundredth_parts():
    cents = compositional_draws(seed=3, n=500)
    assert cents.min() >= 0 and cents.sum(axis=1).max() <= 100
    assert np.array_equal(cents, compositional_draws(seed=3, n=500))


def test_op_counter_counts_malformed_rows_as_failed():
    tally = Tally()
    assert tally.op(["0.5", "1e-3", "-2"]) == [0.5, 0.001, -2.0]
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.op(["np.float64(0.25)", "3"]) == [0.25, 3.0]
    assert (tally.attempted, tally.failed) == (2, 1)
    values = tally.op(["not a number"])
    assert math.isnan(values[0]) and (tally.attempted, tally.failed) == (3, 2)
    assert tally.problems == []
