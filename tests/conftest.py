import math

import numpy as np
import pytest

from bernstein_simplex import dirichlet_model, uniform_model


@pytest.fixture(scope="session")
def beta22():
    return dirichlet_model((2, 2))


@pytest.fixture(scope="session")
def beta12():
    return dirichlet_model((1, 2))


@pytest.fixture(scope="session")
def beta33():
    return dirichlet_model((3, 3))


@pytest.fixture(scope="session")
def uni1():
    return uniform_model(1)


@pytest.fixture(scope="session")
def uni2():
    return uniform_model(2)


@pytest.fixture(scope="session")
def dir222():
    return dirichlet_model((2, 2, 2))


# ---------------------------------------------------------------------------
# independent reference implementations (oracles)
# ---------------------------------------------------------------------------

def iter_lattice(m: int, d: int):
    """Integer vectors k >= 0 of length d with sum(k) <= m, lexicographically, by recursion."""
    if d == 1:
        for k in range(m + 1):
            yield (k,)
    else:
        for k in range(m + 1):
            for rest in iter_lattice(m - k, d - 1):
                yield (k,) + rest


def multinomial_pmf_exact(k, m: int, x) -> float:
    """Multinomial(m, x) probability of k from factorials; the last category gets the rest."""
    rest_k, rest_x = m - sum(k), 1.0 - sum(x)
    coef = math.factorial(m) // math.factorial(rest_k)
    prob = rest_x**rest_k
    for ki, xi in zip(k, x):
        coef //= math.factorial(ki)
        prob *= xi**ki
    return coef * prob


def reference_cdf(data: np.ndarray, m: int, x) -> float:
    """Direct smoothed-cdf evaluation in any dimension: ``x <= k/m`` comparisons per lattice point."""
    data = np.asarray(data, dtype=float)
    total = 0.0
    for k in iter_lattice(m, data.shape[1]):
        fn = np.mean(np.all(data <= np.array(k) / m, axis=1))
        total += fn * multinomial_pmf_exact(k, m, x)
    return total


def binom_pmf_exact(m: int, p: float) -> np.ndarray:
    """Binomial pmf from math.comb, no log-space tricks."""
    return np.array(
        [math.comb(m, k) * p**k * (1.0 - p) ** (m - k) for k in range(m + 1)]
    )


def reference_cdf_1d(data: np.ndarray, m: int, x: float) -> float:
    """Direct univariate smoothed-cdf evaluation, no shared code paths."""
    data = np.sort(np.asarray(data, dtype=float).ravel())
    n = len(data)
    total = 0.0
    for k in range(m + 1):
        fn = np.searchsorted(data, k / m, side="right") / n
        total += fn * math.comb(m, k) * x**k * (1.0 - x) ** (m - k)
    return total


def reference_density_1d(data: np.ndarray, m: int, x: float) -> float:
    """Direct univariate smoothed-histogram density."""
    data = np.asarray(data, dtype=float).ravel()
    n = len(data)
    total = 0.0
    for k in range(m):
        lo, hi = k / m, (k + 1) / m
        if k == 0:
            count = np.sum(data <= hi)
        else:
            count = np.sum((data > lo) & (data <= hi))
        total += m * (count / n) * math.comb(m - 1, k) * x**k * (1.0 - x) ** (m - 1 - k)
    return total


def simplex_integral_2d(f, cells: int) -> float:
    """Midpoint quadrature over the 2-d simplex, exact cell split on the diagonal."""
    h = 1.0 / cells
    total = 0.0
    for i in range(cells):
        for j in range(cells - 1 - i):
            total += f(np.array([(i + 0.5) * h, (j + 0.5) * h])) * h * h
        j = cells - 1 - i
        centroid = np.array([(i + 1.0 / 3.0) * h, (j + 1.0 / 3.0) * h])
        total += f(centroid) * 0.5 * h * h
    return total
