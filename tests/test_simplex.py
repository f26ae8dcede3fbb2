import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bernstein_simplex import (
    Dataset,
    SimplexPoint,
    SizeLimitError,
    ValidationError,
    lattice_array,
    lattice_size,
    log_multinomial_pmf,
)
from bernstein_simplex import simplex
from bernstein_simplex.simplex import log_factorials

from conftest import binom_pmf_exact, iter_lattice, multinomial_pmf_exact


def _scaled_to(raw: list[float], total: float) -> list[float]:
    """``raw`` rescaled to sum to ``total`` up to rounding; all zeros stay as they are."""
    norm = math.fsum(raw)
    return [v / norm * total for v in raw] if norm > 0.0 else raw


ULP = 2.0**-52

#: Rows of d = 1..16 whose sums lie within a few ulps of 1, with a few beyond the tolerance.
NEAR_ONE_ROWS = st.builds(
    _scaled_to,
    st.integers(1, 16).flatmap(lambda d: st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)),
    st.sampled_from([1.0 - ULP / 2, 1.0, 1.0 + ULP, 1.0 + 2 * ULP, 1.0 + 4 * ULP, 1.0 + 1e-13, 1.0 + 1e-11, 1.1]),
)


class TestSimplexPoint:
    def test_accepts_interior_point(self):
        pt = SimplexPoint.of((0.2, 0.3))
        assert pt.d == 2
        assert pt.remainder == pytest.approx(0.5)

    def test_scalar_coercion(self):
        assert SimplexPoint.of(0.4).coords == (0.4,)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            SimplexPoint.of((-0.01, 0.5))

    def test_rejects_sum_above_one(self):
        with pytest.raises(ValidationError):
            SimplexPoint.of((0.6, 0.5))

    def test_clamps_tiny_violations(self):
        pt = SimplexPoint.of((-5e-13, 0.5))
        assert pt.coords[0] == 0.0
        pt = SimplexPoint.of((0.5, 0.5 + 5e-13))
        assert sum(pt.coords) <= 1.0

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)
    )
    def test_valid_inputs_keep_invariants(self, raw):
        total = sum(raw)
        coords = [v / (total + 1.0) for v in raw]
        pt = SimplexPoint.of(coords)
        assert all(c >= 0.0 for c in pt.coords)
        assert sum(pt.coords) <= 1.0

    def test_errors_name_the_point(self):
        with pytest.raises(ValidationError, match=r"^simplex point \(0\.6, 0\.5\): coordinate sum 1\.1 > 1 beyond tolerance$"):
            SimplexPoint.of((0.6, 0.5))
        with pytest.raises(ValidationError, match=r"^simplex point \(nan,\): non-finite value$"):
            SimplexPoint.of(math.nan)

    @example([0.3711284294739885, 0.21263286433802728, 0.15622328204622224, 0.01891508040967378,
              0.05284941877613476, 0.07058180171037419, 0.062225224797458845, 0.0554438984481211])
    @given(NEAR_ONE_ROWS)
    def test_a_point_and_a_one_row_dataset_pass_one_rule(self, row):
        # from d = 8 on, a Python sum and a numpy row sum can round differently
        def coords(make):
            try:
                return [float(c).hex() for c in make()]
            except ValidationError:
                return None

        assert coords(lambda: SimplexPoint.of(row).coords) == coords(lambda: Dataset(np.array([row])).points[0])

    def test_memory_layout_does_not_change_a_row(self):
        rows = np.random.default_rng(5).random((500, 9))
        rows /= rows.sum(axis=1)[:, None]
        assert Dataset(np.asfortranarray(rows)).points.tobytes() == Dataset(rows).points.tobytes()


class TestLattice:
    @pytest.mark.parametrize("m,d,count", [(3, 2, 10), (0, 3, 1), (4, 3, 35)])
    def test_counts(self, m, d, count):
        assert len(lattice_array(m, d)) == count

    def test_non_integer_order_is_refused(self):
        with pytest.raises(ValidationError, match="order m must be an integer, got 2.5"):
            lattice_array(2.5, 1)
        with pytest.raises(ValidationError, match="order m must be an integer, got True"):
            lattice_array(True, 1)
        with pytest.raises(ValidationError, match="dimension d must be an integer, got 1.5"):
            lattice_array(3, 1.5)
        with pytest.raises(ValidationError, match="order m must be >= 0, got -1"):
            lattice_array(-1, 1)
        assert lattice_array(3.0, np.int64(2)).tolist() == lattice_array(3, 2).tolist()

    def test_zero_order_single_point(self):
        assert lattice_array(0, 3).tolist() == [[0, 0, 0]]

    @pytest.mark.parametrize(
        "m,d,message",
        [(-1, 2, "order m must be >= 0, got -1"), (3, 0, "dimension d must be >= 1, got 0"),
         (True, 1, "order m must be an integer, got True"), (2.5, 1, "order m must be an integer, got 2.5"),
         (3, -1, "dimension d must be >= 1, got -1")],
    )
    def test_size_checks_its_arguments(self, m, d, message):
        # -1, 0 and True gave 0, 1 and 2 points; 2.5 ended in a TypeError and d = -1 in a ValueError
        with pytest.raises(ValidationError, match=f"^{message}$"):
            lattice_size(m, d)

    def test_size_converts_its_arguments(self):
        assert lattice_size(3.0, np.int64(2)) == lattice_size("3", 2.0) == lattice_size(3, 2) == 10

    def test_d3_count_against_triple_loop(self):
        brute = sum(
            1
            for a in range(5)
            for b in range(5 - a)
            for c in range(5 - a - b)
            if a + b + c <= 4
        )
        assert len(lattice_array(4, 3)) == brute == 35

    def test_count_formula_sweep(self):
        for d in range(1, 5):
            for m in range(0, 21):
                pts = lattice_array(m, d)
                assert len(pts) == math.comb(m + d, d) == lattice_size(m, d)

    def test_lexicographic_and_distinct(self):
        pts = [tuple(k) for k in lattice_array(5, 3).tolist()]
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        assert all(sum(k) <= 5 for k in pts)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            lattice_array(10**5, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 5, 30])
    def test_array_matches_recursive_enumeration(self, m, d):
        arr = lattice_array(m, d)
        assert arr.dtype == np.int64 and arr.shape == (lattice_size(m, d), d)
        assert arr.tolist() == [list(k) for k in iter_lattice(m, d)]


class TestLogFactorials:
    def test_stale_growth_keeps_the_larger_table(self, monkeypatch):
        """A grower that read the cache before a larger growth does not shrink it."""
        stalled, big_done = threading.Event(), threading.Event()

        class StalledNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def concatenate(self, parts):
                table = np.concatenate(parts)
                if threading.current_thread().name == "stale":
                    stalled.set()
                    big_done.wait(timeout=30)
                return table

        monkeypatch.setattr(simplex, "_log_fact_cache", np.zeros(1))
        monkeypatch.setattr(simplex, "np", StalledNumpy())
        results = {}
        stale = threading.Thread(target=lambda: results.update(stale=log_factorials(10)), name="stale")
        stale.start()
        assert stalled.wait(timeout=30)
        results["big"] = log_factorials(3000)
        big_done.set()
        stale.join(timeout=30)
        assert not stale.is_alive()
        assert len(results["stale"]) == 11 and len(results["big"]) == 3001
        assert len(simplex._log_fact_cache) >= 3001

    def test_concurrent_growth_returns_full_prefixes(self, monkeypatch):
        """Threads growing the cache by different amounts all get correct tables."""
        expected = np.array([math.lgamma(k + 1.0) for k in range(4001)])
        sizes = [int(v) for v in np.random.default_rng(0).integers(1, 4000, size=400)]

        def check(n):
            table = log_factorials(n)
            return len(table) == n + 1 and np.allclose(table, expected[: n + 1], rtol=1e-12, atol=1e-12)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(simplex, "_log_fact_cache", np.zeros(1))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(check, n) for n in sizes]
                    results = [f.result(timeout=60) for f in futures]
                assert all(results)
        finally:
            sys.setswitchinterval(interval)


def pmf_over(karr, m, x):
    return np.exp(log_multinomial_pmf(karr, m, SimplexPoint.of(x)))


def pmf_at(k, m, x):
    """The probability of the one outcome ``k``, spelled as the README's replacement for ``multinomial_pmf``."""
    return pmf_over(np.atleast_2d(k), m, x)[0]


class TestMultinomialPmf:
    def test_single_trial(self):
        assert pmf_at((1, 0), 1, (0.2, 0.3)) == pytest.approx(0.2, abs=1e-15)

    def test_remaining_mass(self):
        assert pmf_at((0, 0), 1, (0.2, 0.3)) == pytest.approx(0.5, abs=1e-15)

    def test_hand_value(self):
        assert pmf_at((1, 1), 3, (0.2, 0.3)) == pytest.approx(0.18, abs=1e-15)

    def test_precondition(self):
        with pytest.raises(ValidationError):
            pmf_at((2, 2), 3, (0.2, 0.3))

    def test_boundary_conventions(self):
        # zero coordinate: outcomes needing it have probability 0, others renormalize
        assert pmf_at((1, 0), 2, (0.0, 0.5)) == 0.0
        assert pmf_at((0, 1), 2, (0.0, 0.5)) == pytest.approx(0.5)
        # saturated point: the remainder category is impossible
        assert pmf_at((0,), 2, (1.0,)) == 0.0
        assert pmf_at((2,), 2, (1.0,)) == 1.0

    @pytest.mark.parametrize("m,d", [(5, 1), (30, 1), (12, 2), (30, 2), (9, 3), (30, 3)])
    def test_normalization(self, m, d):
        rng = np.random.default_rng(17 * m + d)
        for _ in range(3):
            x = SimplexPoint.of(rng.dirichlet(np.ones(d + 1))[:d])
            logp = log_multinomial_pmf(lattice_array(m, d), m, x)
            assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-10)

    def test_no_underflow_at_large_order(self):
        value = pmf_at((250,), 500, (0.5,))
        assert np.isfinite(value) and value == pytest.approx(multinomial_pmf_exact((250,), 500, (0.5,)), rel=1e-12)


class TestSharedCoefficients:
    """The log coefficients built once for many points change no bit of any point's weights."""

    @staticmethod
    def rebuilt_at(karr, m, coords):
        # one point at a time, coefficient included, as the weights were built before they were shared
        rem_k = m - karr.sum(axis=1)
        lf = log_factorials(m)
        out = lf[m] - lf[karr].sum(axis=1) - lf[rem_k]
        for ki, xi in zip((*karr.T, rem_k), simplex._shares(coords)):
            out = out + ki * math.log(xi) if xi > 0.0 else np.where(ki > 0, -np.inf, out)
        return out

    #: interior points, points on faces (a zero share), the vertices, and a point whose coordinates sum to exactly 1
    POINTS = {
        1: [(0.3,), (0.71,), (0.5,), (0.0,), (1.0,)],
        2: [(0.3, 0.25), (0.05, 0.9), (0.0, 0.4), (0.6, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.75)],
        3: [(0.2, 0.3, 0.1), (0.0, 0.3, 0.3), (0.1, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.25, 0.25)],
    }

    @pytest.mark.parametrize("m,d", [(1, 1), (40, 1), (1, 2), (17, 2), (50, 2), (1, 3), (12, 3)])
    def test_each_point_is_bit_identical(self, m, d):
        karr = lattice_array(m, d)
        cells = karr[np.random.default_rng(m + d).random(len(karr)) < 0.6]  # a subset of rows, as occupied cubes are
        points = [SimplexPoint.of(x) for x in self.POINTS[d]]
        assert sum(points[-1].coords) == 1.0 and points[-1].remainder == 0.0
        for rows in (karr, cells):
            shared = list(simplex._log_multinomial_pmfs(rows, m, [x.coords for x in points]))
            assert len(shared) == len(points)
            for got, x in zip(shared, points):
                assert got.tobytes() == log_multinomial_pmf(rows, m, x).tobytes()
                assert got.tobytes() == self.rebuilt_at(rows, m, x.coords).tobytes()


class TestPmfTable:
    def test_symmetric_binomial(self):
        np.testing.assert_allclose(pmf_over(lattice_array(2, 1), 2, 0.5), [0.25, 0.5, 0.25], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("m,x", [(7, (0.2, 0.4)), (15, (0.1, 0.05, 0.6))])
    def test_full_table_normalized(self, m, x):
        assert pmf_over(lattice_array(m, len(x)), m, x).sum() == pytest.approx(1.0, abs=1e-10)

    def test_marginals_are_binomial(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            x = rng.dirichlet(np.ones(d + 1))[:d]
            karr = lattice_array(12, d)
            probs = pmf_over(karr, 12, x)
            for p in range(d):
                marginal = np.bincount(karr[:, p], weights=probs, minlength=13)
                np.testing.assert_allclose(marginal, binom_pmf_exact(12, x[p]), atol=1e-10)
