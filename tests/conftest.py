import csv
import functools
import math
from collections import Counter

import numpy as np
import pytest

from bernstein_simplex import (
    SimplexPoint, ValidationError, dirichlet_model, lattice_array, log_multinomial_pmf, uniform_model,
)
from bernstein_simplex import estimators, simplex
from bernstein_simplex.estimators import CSV_TOLERANCE, _validated_points


@pytest.fixture()
def simplex_passes(monkeypatch):
    """A list that gets one entry per pass of the simplex rule, however the rule is reached."""
    calls = []
    rule = simplex._validated_points

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return rule(*args, **kwargs)

    monkeypatch.setattr(simplex, "_validated_points", counted)
    monkeypatch.setattr(estimators, "_validated_points", counted)
    return calls


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
    """Multinomial(m, x) probability of k from factorials; the last category gets the rest, clamped at 0.

    The clamp is ``SimplexPoint.remainder``'s: a point whose float sum exceeds 1
    by rounding would otherwise raise a tiny negative share to odd powers.
    """
    rest_k, rest_x = m - sum(k), max(0.0, 1.0 - sum(x))
    coef = math.factorial(m) // math.factorial(rest_k)
    prob = rest_x**rest_k
    for ki, xi in zip(k, x):
        coef //= math.factorial(ki)
        prob *= xi**ki
    return coef * prob


@functools.lru_cache(maxsize=1)  # the queries at one (m, x) share one enumeration
def _lattice_log_pmf(m: int, coords: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    x = SimplexPoint.of(coords)
    karr = lattice_array(m, x.d)
    return karr, log_multinomial_pmf(karr, m, x)


def reference_pmf_power_sum(m: int, x, power: int) -> float:
    """Sum of the Multinomial(m - 1, x) probabilities raised to ``power``, by enumerating every lattice point."""
    return float(np.exp(power * _lattice_log_pmf(m - 1, SimplexPoint.of(x).coords)[1]).sum())


def reference_central_moment(m: int, x, indices) -> float:
    """``E prod_{i in indices} (K_i - m x_i)`` for K ~ Multinomial(m, x), by enumerating every lattice point."""
    x = SimplexPoint.of(x)
    karr, logp = _lattice_log_pmf(m, x.coords)
    centered = karr.astype(float) - m * x.array
    product = np.ones(len(karr))
    for i in indices:
        product *= centered[:, i - 1]
    return float(np.dot(product, np.exp(logp)))


def chain_pmf_power_sum(m: int, x, power: int) -> float:
    """The same sum by the conditional-binomial chain, with ``scipy.special`` log-gammas.

    P(k) = Bin(k_1; M, q_1) Bin(k_2; M - k_1, q_2) ..., with q_i the share of
    coordinate i in what the earlier ones leave, so the sum folds one
    coordinate at a time from the last to the first.
    """
    from scipy.special import gammaln, xlog1py, xlogy

    big_m, x = m - 1, [float(v) for v in x]
    tail = np.ones(big_m + 1)  # tail[n]: the sum over the coordinates after i, given n trials left
    for i in range(len(x) - 1, -1, -1):
        left = 1.0 - sum(x[:i])
        q = min(1.0, x[i] / left) if left > 0 else 0.0
        folded = np.empty(big_m + 1)
        for n in range(big_m + 1):
            k = np.arange(n + 1.0)
            logp = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0) + xlogy(k, q) + xlog1py(n - k, -q)
            folded[n] = np.exp(power * logp) @ tail[n::-1]
        tail = folded
    return float(tail[big_m])


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


def reference_density(data: np.ndarray, m: int, x) -> float:
    """Direct smoothed-histogram density in any dimension, binning row by row.

    A coordinate's cube index is the number of float grid values ``j/m``
    strictly below it, minus one, clamped at 0: the cube ``((k-1)/m, k/m]``
    of ``x = k/m``, the "x <= k/m" comparison of :func:`reference_cdf`.  A
    cube whose indices sum to m, reached by a row that sums to 1 only up to
    rounding, has its largest index (the first on a tie) lowered by one.
    """
    data = np.asarray(data, dtype=float)
    counts = Counter()
    for row in data:
        k = [max(sum(j / m < v for j in range(m + 1)) - 1, 0) for v in row]
        if sum(k) == m:
            k[k.index(max(k))] -= 1
        counts[tuple(k)] += 1
    return m ** data.shape[1] * sum(c / len(data) * multinomial_pmf_exact(k, m - 1, x) for k, c in counts.items())


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


def exact_mean_1d(cdf, m: int, x: float, kind: str) -> float:
    """Exact mean of the d = 1 estimator at x for data with cdf ``cdf``, weights from ``scipy.stats.binom``.

    The density's is ``m sum_k (F((k+1)/m) - F(k/m)) Binom(m-1, x)(k)``, the
    cdf's ``sum_k F(k/m) Binom(m, x)(k)``.
    """
    from scipy.stats import binom

    if kind == "density":
        grid = np.arange(m + 1) / m
        return float(m * np.dot(np.diff(cdf(grid)), binom.pmf(np.arange(m), m - 1, x)))
    return float(np.dot(cdf(np.arange(m + 1) / m), binom.pmf(np.arange(m + 1), m, x)))


def exact_density_mean_2d(f, m: int, x) -> float:
    """Exact mean of the d = 2 density estimator at x for a quadratic density ``f``.

    A cube inside the simplex gets its mass from the two-point Gauss-Legendre
    product rule, a cube cut by the diagonal (indices summing to m - 1) from
    the edge-midpoint rule on the triangle below the diagonal; both are exact
    for quadratics.  The weights are :func:`multinomial_pmf_exact`'s.
    """
    h = 1.0 / m
    nodes = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
    total = 0.0
    for k1, k2 in iter_lattice(m - 1, 2):
        lo = np.array([k1, k2]) * h
        if k1 + k2 < m - 1:
            mass = h * h / 4.0 * sum(f(lo + h * np.array([u, v])) for u in nodes for v in nodes)
        else:
            mids = ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5))
            mass = h * h / 6.0 * sum(f(lo + h * np.array(mid)) for mid in mids)
        total += mass * multinomial_pmf_exact((k1, k2), m - 1, x)
    return m * m * total


def reference_derivative_gap(model, seed: int = 0, n_points: int = 20, step: float = 1e-5) -> float:
    """Largest mismatch between a model's analytic and central-difference derivatives.

    Samples interior points away from the boundary, compares the gradient
    and Hessian against central finite differences of the density, and
    returns the worst relative error (with denominator floored at 1 so that
    vanishing derivatives stay comparable).
    """
    rng = np.random.default_rng(seed)
    d = model.d
    worst = 0.0
    margin = 4.0 * step * (d + 1)
    for _ in range(n_points):
        raw = rng.dirichlet(np.ones(d + 1))[:d]
        x = margin + raw * (1.0 - 2.0 * margin * (d + 1))
        grad = model.density_grad(x)
        hess = model.density_hessian(x)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = step
            fd = (model.density(x + ei) - model.density(x - ei)) / (2 * step)
            worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(grad[i])))
            for j in range(d):
                ej = np.zeros(d)
                ej[j] = step
                fd2 = (
                    model.density(x + ei + ej)
                    - model.density(x + ei - ej)
                    - model.density(x - ei + ej)
                    + model.density(x - ei - ej)
                ) / (4 * step * step)
                worst = max(worst, abs(fd2 - hess[i, j]) / max(1.0, abs(hess[i, j])))
    return worst


def reference_read_csv(source, d=None) -> np.ndarray:
    """The points of a CSV text stream, parsed row by row with float(): a header-skipping, row-naming reader."""
    rows, lines = [], []
    for lineno, record in enumerate(csv.reader(source), start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        try:
            values = [float(cell) for cell in record]
        except ValueError:
            if lineno == 1:
                continue  # header
            raise ValidationError(f"row {lineno}: non-numeric value") from None
        if d is not None and len(values) != d:
            raise ValidationError(f"row {lineno}: expected {d} columns, found {len(values)}")
        if rows and len(values) != len(rows[0]):
            raise ValidationError(f"row {lineno}: ragged row of {len(values)} columns")
        rows.append(values)
        lines.append(lineno)
    if not rows:
        raise ValidationError("no data rows found")
    return _validated_points(np.asarray(rows, dtype=float), CSV_TOLERANCE, lines)
