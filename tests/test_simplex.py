import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernstein_simplex import (
    SimplexPoint,
    SizeLimitError,
    ValidationError,
    lattice_points,
    lattice_size,
    multinomial_pmf,
    pmf_table,
)
from bernstein_simplex import simplex
from bernstein_simplex.simplex import lattice_array, log_factorials, log_multinomial_pmf

from conftest import binom_pmf_exact, iter_lattice


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


class TestLattice:
    @pytest.mark.parametrize("m,d,count", [(3, 2, 10), (0, 3, 1), (4, 3, 35)])
    def test_counts(self, m, d, count):
        assert len(lattice_points(m, d)) == count

    def test_zero_order_single_point(self):
        assert lattice_points(0, 3) == [(0, 0, 0)]

    def test_d3_count_against_triple_loop(self):
        brute = sum(
            1
            for a in range(5)
            for b in range(5 - a)
            for c in range(5 - a - b)
            if a + b + c <= 4
        )
        assert len(lattice_points(4, 3)) == brute == 35

    def test_count_formula_sweep(self):
        for d in range(1, 5):
            for m in range(0, 21):
                pts = lattice_points(m, d)
                assert len(pts) == math.comb(m + d, d) == lattice_size(m, d)

    def test_lexicographic_and_distinct(self):
        pts = lattice_points(5, 3)
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        assert all(sum(k) <= 5 for k in pts)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            lattice_points(10**5, 2)

    def test_array_matches_tuples(self):
        arr = lattice_array(6, 2)
        assert [tuple(row) for row in arr] == lattice_points(6, 2)

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


class TestMultinomialPmf:
    def test_single_trial(self):
        assert multinomial_pmf((1, 0), 1, (0.2, 0.3)) == pytest.approx(0.2, abs=1e-15)

    def test_remaining_mass(self):
        assert multinomial_pmf((0, 0), 1, (0.2, 0.3)) == pytest.approx(0.5, abs=1e-15)

    def test_hand_value(self):
        assert multinomial_pmf((1, 1), 3, (0.2, 0.3)) == pytest.approx(0.18, abs=1e-15)

    def test_precondition(self):
        with pytest.raises(ValidationError):
            multinomial_pmf((2, 2), 3, (0.2, 0.3))

    def test_boundary_conventions(self):
        # zero coordinate: outcomes needing it have probability 0, others renormalize
        assert multinomial_pmf((1, 0), 2, (0.0, 0.5)) == 0.0
        assert multinomial_pmf((0, 1), 2, (0.0, 0.5)) == pytest.approx(0.5)
        # saturated point: the remainder category is impossible
        assert multinomial_pmf((0,), 2, (1.0,)) == 0.0
        assert multinomial_pmf((2,), 2, (1.0,)) == 1.0

    @pytest.mark.parametrize("m,d", [(5, 1), (30, 1), (12, 2), (30, 2), (9, 3), (30, 3)])
    def test_normalization(self, m, d):
        rng = np.random.default_rng(17 * m + d)
        for _ in range(3):
            x = SimplexPoint.of(rng.dirichlet(np.ones(d + 1))[:d])
            logp = log_multinomial_pmf(lattice_array(m, d), m, x)
            assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-10)

    def test_no_underflow_at_large_order(self):
        value = multinomial_pmf((250,), 500, (0.5,))
        assert np.isfinite(value) and value > 0.0


class TestPmfTable:
    def test_symmetric_binomial(self):
        table = pmf_table(2, 0.5)
        assert table.entries[(0,)] == pytest.approx(0.25, abs=1e-15)
        assert table.entries[(1,)] == pytest.approx(0.5, abs=1e-15)
        assert table.entries[(2,)] == pytest.approx(0.25, abs=1e-15)
        assert not table.truncated

    @pytest.mark.parametrize("m,x", [(7, (0.2, 0.4)), (15, (0.1, 0.05, 0.6))])
    def test_full_table_normalized(self, m, x):
        assert pmf_table(m, x).total() == pytest.approx(1.0, abs=1e-10)

    def test_marginals_are_binomial(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            x = rng.dirichlet(np.ones(d + 1))[:d]
            table = pmf_table(12, x)
            for p in range(d):
                expected = binom_pmf_exact(12, x[p])
                np.testing.assert_allclose(table.marginal(p), expected, atol=1e-10)

    def test_truncation_keeps_requested_mass(self):
        full = pmf_table(50, (0.3, 0.3))
        trunc = pmf_table(50, (0.3, 0.3), truncate=1e-8)
        assert trunc.truncated
        assert trunc.total() >= 1.0 - 1e-8
        assert trunc.truncation_mass <= 1e-8
        assert len(trunc.entries) < len(full.entries)
        for k, prob in trunc.entries.items():
            assert prob == full.entries[k]

    def test_truncated_sum_invariant(self):
        trunc = pmf_table(80, (0.2, 0.5), truncate=1e-6)
        assert trunc.total() >= 1.0 - trunc.truncation_mass - 1e-15

    def test_bad_tolerance(self):
        with pytest.raises(ValidationError):
            pmf_table(10, 0.5, truncate=2.0)
