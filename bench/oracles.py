"""Reference computations the benchmark checks the program's output against.

Nothing here imports ``bernstein_simplex``: every value is computed from
the definitions with ``math``, numpy and ``scipy.special``, by algorithms
chosen to differ from the package's own (direct comparisons instead of
binning tricks, ``math.lgamma`` weights, chain-rule binomial sums,
incomplete-beta survival functions).
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# data files
# ---------------------------------------------------------------------------


def read_points_csv(path: str) -> np.ndarray:
    """Rows of a points CSV with a header, clamped as the README documents.

    A row whose float sum exceeds 1 by rounding is rescaled onto the
    simplex, which is the documented ingestion convention.
    """
    with open(path, newline="") as fh:
        rows = [[float(cell) for cell in rec] for rec in list(csv.reader(fh))[1:] if rec]
    arr = np.clip(np.array(rows, dtype=float), 0.0, None)
    sums = arr.sum(axis=1)
    arr[sums > 1.0] /= sums[sums > 1.0, None]
    return arr


# ---------------------------------------------------------------------------
# lattice and multinomial weights
# ---------------------------------------------------------------------------


def lattice(m: int, d: int) -> np.ndarray:
    """All integer vectors k >= 0 of length d with sum(k) <= m (any order)."""
    grids = np.indices((m + 1,) * d).reshape(d, -1).T
    return grids[grids.sum(axis=1) <= m]


def multinomial_weights(karr: np.ndarray, m: int, x: Sequence[float]) -> np.ndarray:
    """Multinomial(m, x) probabilities of the rows of ``karr`` from ``math.lgamma``.

    ``x`` holds the d free coordinates; the last category gets the rest.
    Zero coordinates follow ``0**0 == 1``.
    """
    x = [float(v) for v in x]
    rest = max(0.0, 1.0 - sum(x))
    lg = np.array([math.lgamma(k + 1.0) for k in range(m + 1)])
    krest = m - karr.sum(axis=1)
    logw = lg[m] - lg[karr].sum(axis=1) - lg[krest]
    for i, xi in enumerate(x + [rest]):
        ki = karr[:, i] if i < len(x) else krest
        if xi > 0.0:
            logw = logw + ki * math.log(xi)
        else:
            logw = np.where(ki > 0, -np.inf, logw)
    return np.exp(logw)


# ---------------------------------------------------------------------------
# estimators on data
# ---------------------------------------------------------------------------


def empirical_cdf_on_lattice(data: np.ndarray, m: int, karr: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Fraction of rows with ``x <= k/m`` in every coordinate, at each row of ``karr``."""
    grid = karr / m
    out = np.empty(len(karr))
    for start in range(0, len(karr), chunk):
        block = grid[start : start + chunk]
        out[start : start + chunk] = np.all(data[None, :, :] <= block[:, None, :], axis=2).mean(axis=1)
    return out


def cdf_estimates(data: np.ndarray, m: int, points: np.ndarray) -> np.ndarray:
    """Bernstein cdf at each point: sum over k of F_n(k/m) times the weight of k."""
    karr = lattice(m, data.shape[1])
    fn = empirical_cdf_on_lattice(data, m, karr)
    return np.array([float(fn @ multinomial_weights(karr, m, p)) for p in points])


def half_open_cubes(data: np.ndarray, m: int) -> np.ndarray:
    """Cube index k per coordinate, ``x`` in ``(k/m, (k+1)/m]``; 0 goes to cube 0."""
    upper_faces = np.arange(1, m + 1) / m
    return np.searchsorted(upper_faces, data, side="left")


def ceil_cubes(data: np.ndarray, m: int) -> np.ndarray:
    """Cube index as ``ceil(m*x) - 1``, which misplaces some values equal to k/m."""
    return np.clip(np.ceil(m * data).astype(np.int64) - 1, 0, None)


def density_estimates(data: np.ndarray, m: int, points: np.ndarray, cubes: np.ndarray) -> np.ndarray:
    """Bernstein density at each point from given cube indices of the data."""
    n, d = data.shape
    karr, counts = np.unique(cubes, axis=0, return_counts=True)
    freq = counts / n
    return np.array([m**d * float(freq @ multinomial_weights(karr, m - 1, p)) for p in points])


# ---------------------------------------------------------------------------
# exact moments of the estimators under a model
# ---------------------------------------------------------------------------


def beta22_cdf(t: np.ndarray) -> np.ndarray:
    return 3.0 * t**2 - 2.0 * t**3


def beta12_cdf(t: np.ndarray) -> np.ndarray:
    return 1.0 - (1.0 - t) ** 2


def density_exact_1d(cdf: Callable[[np.ndarray], np.ndarray], m: int, x: float, n: int) -> tuple[float, float]:
    """Exact mean and variance of the d=1 density estimator from the model's cell masses."""
    k = np.arange(m)
    mass = cdf((k + 1) / m) - cdf(k / m)
    g = m * multinomial_weights(k[:, None], m - 1, [x])
    mean = float(mass @ g)
    return mean, (float(mass @ g**2) - mean**2) / n


def density_exact_uniform2(m: int, x: Sequence[float], n: int) -> tuple[float, float]:
    """Exact mean and variance of the d=2 density estimator for the uniform model.

    The uniform density is 2 on the triangle, so a cube strictly below the
    diagonal holds mass 2/m^2 and a cube cut by it holds half of that.
    """
    karr = lattice(m - 1, 2)
    mass = np.where(karr.sum(axis=1) == m - 1, 1.0, 2.0) / m**2
    g = m**2 * multinomial_weights(karr, m - 1, x)
    mean = float(mass @ g)
    return mean, (float(mass @ g**2) - mean**2) / n


def cdf_exact_1d(cdf: Callable[[np.ndarray], np.ndarray], m: int, x: float, n: int) -> tuple[float, float]:
    """Exact mean and variance of the d=1 smoothed cdf from the model's cell masses.

    For X in ((j-1)/m, j/m] the estimator's summand is P(K >= j) with
    K ~ Binomial(m, x); X = 0 has probability 0 under the models used.
    """
    w = multinomial_weights(np.arange(m + 1)[:, None], m, [x])
    survival = np.cumsum(w[::-1])[::-1]
    j = np.arange(1, m + 1)
    mass = cdf(j / m) - cdf((j - 1) / m)
    mean = float(mass @ survival[1:])
    return mean, (float(mass @ survival[1:] ** 2) - mean**2) / n


# ---------------------------------------------------------------------------
# lattice sums
# ---------------------------------------------------------------------------


def _binom_pmf(big_n: int, p: float) -> np.ndarray:
    """Binomial(big_n, p) pmf from ``scipy.special`` log-gamma functions."""
    from scipy.special import gammaln, xlog1py, xlogy

    k = np.arange(big_n + 1.0)
    logp = gammaln(big_n + 1.0) - gammaln(k + 1.0) - gammaln(big_n - k + 1.0)
    return np.exp(logp + xlogy(k, p) + xlog1py(big_n - k, -p))


def pmf_square_sum(big_m: int, x: Sequence[float]) -> float:
    """Sum of squared Multinomial(big_m, x) probabilities, by the binomial chain rule.

    P(k_1..k_d) = Bin(k_1; M, q_1) Bin(k_2; M-k_1, q_2) ..., with q_i the
    conditional share of coordinate i, so the square sum folds one
    coordinate at a time from the last to the first: O(d M^2) work in
    O(M) memory, so the check never sets the run's peak memory.
    """
    x = [float(v) for v in x]
    # tail[N] = square sum of the remaining coordinates given N trials left
    tail = np.ones(big_m + 1)
    for i in range(len(x) - 1, -1, -1):
        left = 1.0 - sum(x[:i])
        q = min(1.0, x[i] / left) if left > 0 else 0.0
        tail = np.array([float(_binom_pmf(n, q) ** 2 @ tail[n::-1]) for n in range(big_m + 1)])
    return float(tail[big_m])


def min_coupling(m: int, p: float) -> float:
    """E[min(K, L)]/m - p for K, L independent Binomial(m, p), from ``scipy.special.bdtrc``."""
    from scipy.special import bdtrc

    t = np.arange(1, m + 1)
    survival = bdtrc(t - 1, m, p)  # P(K >= t)
    return float(np.sum(survival**2)) / m - p


def poisson_equal(lam: float) -> float:
    """P{X = Y} for X, Y independent Poisson(lam): exp(-2 lam) I0(2 lam)."""
    from scipy.special import i0e

    return float(i0e(2.0 * lam))


def poisson_within_one(lam: float) -> float:
    """P{0 <= X - Y <= 1} for X, Y independent Poisson(lam)."""
    from scipy.special import i0e, i1e

    return float(i0e(2.0 * lam) + i1e(2.0 * lam))


def psi(x: Sequence[float], subset: Sequence[int]) -> float:
    """[(4 pi)^|A| (1 - sum_A x_i) prod_A x_i]^(-1/2) over 1-based ``subset``."""
    vals = [x[i - 1] for i in subset]
    inner = (4.0 * math.pi) ** len(vals) * (1.0 - sum(vals)) * math.prod(vals)
    return inner**-0.5 if vals else 1.0


# ---------------------------------------------------------------------------
# multinomial central moments
# ---------------------------------------------------------------------------


def central_moment(m: int, x: Sequence[float], indices: Sequence[int]) -> float:
    """Joint central moment of order 2 or 3 of Multinomial(m, x).

    Up to order three the central moments of a sum of m independent
    one-hot trials equal m times those of a single trial, which is a
    finite sum over the d + 1 categories.
    """
    if len(indices) not in (2, 3):
        raise ValueError("closed form only for orders 2 and 3")
    x = [float(v) for v in x]
    probs = x + [1.0 - sum(x)]
    total = 0.0
    for cat, pc in enumerate(probs):
        term = pc
        for i in indices:
            term *= (1.0 if cat == i - 1 else 0.0) - x[i - 1]
        total += term
    return m * total
