"""The benchmark's three workloads: inputs, CLI calls and output checks.

Each workload writes its input files once, then gives the CLI argument
lists of one round; every round makes the same calls, so every round
attempts the same operations.  After a round the workload checks each
printed result row (one row is one operation) against :mod:`oracles` or
against a property the method must have.

Two faults of the program are kept as operations that fail every time:

* ``ceil(m*x)`` binning puts data equal to some k/m one cube too high,
  so density rows whose weights reach such data disagree with the
  half-open oracle and agree with a ``ceil`` replica of it instead;
* ``repr()`` of ``np.float64`` prints ``np.float64(...)``, which a strict
  ``float()`` parse refuses (verify's cdf theory columns, sums'
  min-coupling rows).

Any other disagreement makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

import oracles

_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


@dataclass
class Tally:
    """Operations attempted and failed, and the correctness problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, cells: Sequence[str]) -> list[float]:
        """Count one result row and return its numbers.

        A cell that a strict ``float()`` refuses fails the operation; the
        numbers are still returned, read through the ``np.float64(...)``
        wrapper, so the row's values are checked all the same.
        """
        self.attempted += 1
        values, malformed = [], False
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                malformed = True
                match = _NP_FLOAT.match(cell)
                values.append(float(match.group(1)) if match else math.nan)
        if malformed:
            self.failed += 1
        return values

    def fail_counted(self) -> None:
        """Mark the last counted, well-formed operation as failed."""
        self.failed += 1

    def expect(self, rows: list, count: int, label: str) -> list:
        """The first ``count`` rows; rows the program did not print are failed ops."""
        if len(rows) != count:
            self.problems.append(f"{label}: {len(rows)} result rows, expected {count}")
            self.attempted += max(0, count - len(rows))
            self.failed += max(0, count - len(rows))
        return rows[:count]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def close(a: float, b: float, rel: float = 1e-9, scale: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def _write_json(path: str, obj: object) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed

    def setup(self) -> None:
        """Write the input files; part of the measured set-up time."""

    def round_calls(self, index: int) -> list[list[str]]:
        raise NotImplementedError

    def check_round(self, index: int, outputs: list[str], tally: Tally) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# estimate_d2
# ---------------------------------------------------------------------------

M_EST = 50
N_EST = 10_000

#: Evaluation points: interior, near an edge (1/m from the edge x1 = 0
#: and from the hypotenuse), on an edge, on the hypotenuse, and the three
#: vertices.  Each cdf point costs about 0.5 s today, so ten points keep
#: a round near 5 s and a run holds several rounds.
EST_POINTS = (
    (0.3, 0.3), (0.1, 0.6),
    (1 / 50, 0.3), (0.35, 1 - 0.35 - 1 / 50),
    (0.0, 0.3), (0.45, 0.0),
    (0.55, 0.45),
    (0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
)

#: Seed-independent rows recorded at lattice values k/50 beside each
#: boundary point, as repeated lattice values are in real two-decimal
#: data.  They make the binning fault reach the same density rows on
#: every seed, instead of only when the draws happen to land there.
EST_LATTICE_ROWS = (
    (0.0, 0.28), (0.02, 0.28), (0.28, 0.0),
    (0.28, 0.72), (0.56, 0.44), (0.14, 0.56), (0.56, 0.14),
)


def compositional_draws(seed: int, n: int) -> np.ndarray:
    """Dirichlet(2,2,2) rows rounded to hundredths with parts still summing to 1.

    Largest-remainder rounding: floor every part, then give the missing
    hundredths to the parts with the largest remainders.
    """
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet((2.0, 2.0, 2.0), size=n) * 100.0
    cents = np.floor(raw).astype(np.int64)
    missing = 100 - cents.sum(axis=1)
    order = np.argsort(-(raw - cents), axis=1)
    for slot in range(3):
        cents[np.arange(n), order[:, slot]] += missing > slot
    return cents[:, :2]


class EstimateD2(Workload):
    """CLI ``estimate`` for density and cdf on one compositional dataset."""

    name = "estimate_d2"

    def setup(self) -> None:
        cents = compositional_draws(self.seed, N_EST - len(EST_LATTICE_ROWS))
        self.data_path = os.path.join(self.workdir, "data.csv")
        self.points_path = os.path.join(self.workdir, "points.csv")
        with open(self.data_path, "w") as fh:
            fh.write("x1,x2\n")
            fh.writelines(f"{a / 100:.2f},{b / 100:.2f}\n" for a, b in cents)
            fh.writelines(f"{a:.2f},{b:.2f}\n" for a, b in EST_LATTICE_ROWS)
        with open(self.points_path, "w") as fh:
            fh.write("x1,x2\n")
            fh.writelines(f"{a!r},{b!r}\n" for a, b in EST_POINTS)
        self.expected: dict[str, np.ndarray] | None = None

    def round_calls(self, index: int) -> list[list[str]]:
        return [
            ["estimate", "--data", self.data_path, "--m", str(M_EST), "--kind", kind, "--points", self.points_path]
            for kind in ("density", "cdf")
        ]

    def _oracle(self) -> dict[str, np.ndarray]:
        data = oracles.read_points_csv(self.data_path)
        pts = np.array(EST_POINTS)
        return {
            "density": oracles.density_estimates(data, M_EST, pts, oracles.half_open_cubes(data, M_EST)),
            "density_ceil": oracles.density_estimates(data, M_EST, pts, oracles.ceil_cubes(data, M_EST)),
            "cdf": oracles.cdf_estimates(data, M_EST, pts),
        }

    def check_round(self, index: int, outputs: list[str], tally: Tally) -> None:
        if self.expected is None:
            self.expected = self._oracle()
        for kind, text in zip(("density", "cdf"), outputs):
            rows = tally.expect(_csv_rows(text)[1:], len(EST_POINTS), kind)
            values = []
            for i, row in enumerate(rows):
                *coords, value = tally.op(row)
                tally.check(all(close(c, p, 0.0) for c, p in zip(coords, EST_POINTS[i])),
                            f"{kind} row {i}: point {coords} is not {EST_POINTS[i]}")
                values.append(value)
                if close(value, self.expected[kind][i], scale=1e-12):
                    continue
                if kind == "density" and close(value, self.expected["density_ceil"][i], scale=1e-12):
                    tally.fail_counted()  # the ceil(m*x) binning fault
                    continue
                tally.check(False, f"{kind} at {EST_POINTS[i]}: {value!r} vs oracle {self.expected[kind][i]!r}")
            if kind == "density":
                tally.check(all(v >= 0.0 for v in values), "density: negative value")
            else:
                tally.check(all(-1e-12 <= v <= 1.0 + 1e-12 for v in values), "cdf: value outside [0, 1]")
                for i, p in enumerate(EST_POINTS[: len(values)]):
                    for j, q in enumerate(EST_POINTS[: len(values)]):
                        if p[0] <= q[0] and p[1] <= q[1]:
                            tally.check(values[i] <= values[j] + 1e-12, f"cdf decreases from {p} to {q}")


# ---------------------------------------------------------------------------
# verify_mc
# ---------------------------------------------------------------------------

#: Experiment configs, without their seed: the C07 cell, a uniform d=2
#: boundary cell and a Beta(1,2) boundary cdf cell.  Beta(2,2) would give
#: the cdf cell a zero leading variance at 0.
MC_CELLS = (
    {
        "model": {"name": "dirichlet", "alpha": [2, 2]},
        "profile": {"d": 1, "interior": {"1": 0.3}},
        "kind": "density", "m_grid": [40], "n_grid": [1_000_000], "replicates": 16,
    },
    {
        "model": {"name": "uniform", "d": 2},
        "profile": {"d": 2, "boundary": {"1": 1.0}, "interior": {"2": 0.3}},
        "kind": "density", "m_grid": [50], "n_grid": [100_000], "replicates": 12,
    },
    {
        "model": {"name": "dirichlet", "alpha": [1, 2]},
        "profile": {"d": 1, "boundary": {"1": 1.0}},
        "kind": "cdf", "m_grid": [100], "n_grid": [10_000], "replicates": 200,
    },
)

#: Two-sided band for the replicate mean, in exact standard errors, and
#: tail probability for the replicate variance's chi-square band; with a
#: few thousand checks over all runs a correct program fails neither.
MC_Z = 7.0
MC_VAR_TAIL = 1e-12


def _mc_reference(cell: dict) -> dict[str, float]:
    """Exact mean/variance, the true value and the paper's leading terms for a cell."""
    m, n = cell["m_grid"][0], cell["n_grid"][0]
    if cell["model"]["name"] == "uniform":
        lam, x2 = 1.0, 0.3
        x = (lam / m, x2)
        mean, var = oracles.density_exact_uniform2(m, x, n)
        truth = 2.0
        theory_bias = 0.0  # every derivative of a constant density vanishes
        theory_var = m**1.5 / n * 2.0 * oracles.psi((0.0, x2), [2]) * oracles.poisson_equal(lam)
    elif cell["kind"] == "density":
        x = 0.3  # Beta(2,2): f = 6x(1-x), f' = 6 - 12x, f'' = -12
        mean, var = oracles.density_exact_1d(oracles.beta22_cdf, m, x, n)
        truth = 6 * x * (1 - x)
        d1 = (0.5 - x) * (6 - 12 * x) + 0.5 * x * (1 - x) * -12.0
        d2 = (1 / 6 - x + x * x) * -12.0
        theory_bias = d1 / m + d2 / m**2
        theory_var = math.sqrt(m) / n * truth * oracles.psi((x,), [1])
    else:
        lam = 1.0  # Beta(1,2): F = 2t - t^2, F'(0) = 2, F''(0) = -2
        x = lam / m
        mean, var = oracles.cdf_exact_1d(oracles.beta12_cdf, m, x, n)
        truth = float(oracles.beta12_cdf(np.array(x)))
        theory_bias = 0.5 * lam * -2.0 / m**2
        theory_var = 2.0 * lam * (1.0 - oracles.poisson_within_one(lam)) / (n * m)
    return {"mean": mean, "var": var, "truth": truth,
            "theory_bias": theory_bias, "theory_var": theory_var}


class VerifyMc(Workload):
    """CLI ``--threads 1 verify`` on three single-cell experiments."""

    name = "verify_mc"

    def setup(self) -> None:
        self.reference: list[dict[str, float]] | None = None

    def _seed(self, index: int, cell: int) -> int:
        return self.seed * 1000 + index * 10 + cell

    def round_calls(self, index: int) -> list[list[str]]:
        calls = []
        for c, cell in enumerate(MC_CELLS):
            path = _write_json(os.path.join(self.workdir, f"cell{c}.json"), dict(cell, seed=self._seed(index, c)))
            calls.append(["--threads", "1", "verify", "--config", path])
        return calls

    def check_round(self, index: int, outputs: list[str], tally: Tally) -> None:
        from scipy.special import chdtri

        if self.reference is None:
            self.reference = [_mc_reference(cell) for cell in MC_CELLS]
        for cell, ref, text in zip(MC_CELLS, self.reference, outputs):
            label = f"{cell['model']['name']} {cell['kind']}"
            rows = tally.expect(_csv_rows(text)[1:], 1, label)
            if not rows:
                continue
            m, n, bias, bias_se, var, var_se, mse, t_bias, t_var, t_mse = tally.op(rows[0])
            reps = cell["replicates"]
            tally.check((m, n) == (cell["m_grid"][0], cell["n_grid"][0]), f"{label}: cell ({m}, {n})")
            se = math.sqrt(ref["var"] / reps)
            z = (bias + ref["truth"] - ref["mean"]) / se
            tally.check(abs(z) <= MC_Z, f"{label}: mean is {z:.2f} exact standard errors off")
            lo = chdtri(reps - 1, 1.0 - MC_VAR_TAIL) / (reps - 1)
            hi = chdtri(reps - 1, MC_VAR_TAIL) / (reps - 1)
            tally.check(lo <= var / ref["var"] <= hi,
                        f"{label}: replicate variance {var:.4g} vs exact {ref['var']:.4g}")
            tally.check(close(bias_se, math.sqrt(var / reps)), f"{label}: bias_se is not sqrt(var/R)")
            tally.check(var_se > 0.0 and close(mse, bias**2 + var), f"{label}: mse is not bias^2 + var")
            tally.check(close(t_bias, ref["theory_bias"], scale=1e-300), f"{label}: theory_bias {t_bias!r}")
            tally.check(close(t_var, ref["theory_var"]), f"{label}: theory_var {t_var!r}")
            tally.check(close(t_mse, t_var + t_bias**2), f"{label}: theory_mse {t_mse!r}")


# ---------------------------------------------------------------------------
# exact_sums
# ---------------------------------------------------------------------------

SUMS_PROFILES = (
    ({"d": 2, "boundary": {"1": 1.0}, "interior": {"2": 0.3}}, (100, 200, 400, 800, 1600)),
    ({"d": 3, "boundary": {"1": 2.0}, "interior": {"2": 0.3, "3": 0.2}}, (100, 200, 300)),
)

MOMENT_M = 120
MOMENT_X = (0.2, 0.3, 0.1)
MOMENT_INDICES = ((1, 2), (1, 2, 3))

#: Theory reports with boundary parameters lambda <= 3, on models whose
#: derivatives are written out by hand in :func:`_theory_reference`.
THEORY_CONFIGS = (
    {"model": {"name": "dirichlet", "alpha": [1, 2]}, "profile": {"d": 1, "boundary": {"1": 1.0}},
     "estimator": "density", "m": 50, "n": 10_000},
    {"model": {"name": "dirichlet", "alpha": [1, 2, 1]},
     "profile": {"d": 2, "boundary": {"1": 2.0}, "interior": {"2": 0.3}},
     "estimator": "density", "m": 60, "n": 100_000},
    {"model": {"name": "dirichlet", "alpha": [1, 2]}, "profile": {"d": 1, "boundary": {"1": 3.0}},
     "estimator": "cdf", "m": 100, "n": 10_000},
)


def _realized(profile: dict, m: int) -> list[float]:
    x = [0.0] * profile["d"]
    for i, lam in profile.get("boundary", {}).items():
        x[int(i) - 1] = lam / m
    for i, v in profile.get("interior", {}).items():
        x[int(i) - 1] = v
    return x


def _sums_reference(profile: dict, m_grid: Sequence[int]) -> dict[tuple[str, int], tuple[float, float, float]]:
    """(quantity, m) -> (scaled exact sum, predicted limit, error scale), recomputed with scipy.

    A min-coupling sum is E[min(K, L)]/m - x_p, a difference of two terms
    of size x_p, so its rounding error scales with x_p, not with the sum.
    """
    d = profile["d"]
    boundary = {int(i): v for i, v in profile.get("boundary", {}).items()}
    interior = {int(i): v for i, v in profile.get("interior", {}).items()}
    limit = oracles.psi(_realized(profile, 10**18), sorted(interior))
    for lam in boundary.values():
        limit *= oracles.poisson_equal(lam)
    out = {}
    for m in m_grid:
        exact = oracles.pmf_square_sum(m - 1, _realized(profile, m))
        out[("pmf_square_sum", m)] = (m ** (0.5 * (d - len(boundary))) * exact, limit, 0.0)
    for p in range(1, d + 1):
        for m in m_grid:
            x_p = _realized(profile, m)[p - 1]
            if p in boundary:
                scale, limit = m, -boundary[p] * oracles.poisson_within_one(boundary[p])
            else:
                scale, limit = math.sqrt(m), -math.sqrt(x_p * (1 - x_p) / math.pi)
            out[(f"min_coupling_x{p}", m)] = (scale * oracles.min_coupling(m, x_p), limit, scale * x_p)
    return out


def _theory_reference(cfg: dict) -> dict[str, float]:
    """Leading terms of the paper's expansions for the configs above.

    Beta(1,2): f = 2(1-x), f' = -2, f'' = 0; F = 2x - x^2, F' = f, F'' = -2.
    Dirichlet(1,2,1): f = 6 x2, gradient (0, 6), Hessian 0.
    """
    m, n = cfg["m"], cfg["n"]
    lam = cfg["profile"]["boundary"]["1"]
    if cfg["estimator"] == "cdf":
        bias = 0.5 * lam * -2.0 / m**2
        var = 2.0 * lam * (1.0 - oracles.poisson_within_one(lam)) / (n * m)
        return {"bias_m1": 0.0, "bias_m2": 0.5 * lam * -2.0, "bias": bias, "var_leading": var,
                "mse": var + bias**2}
    if cfg["profile"]["d"] == 1:
        b1, b2 = 0.5 * -2.0, -lam * -2.0
        vfactor, a = 2.0 * oracles.poisson_equal(lam), 2
    else:
        x2 = cfg["profile"]["interior"]["2"]
        b1, b2 = (0.5 - x2) * 6.0, 0.0
        vfactor, a = 6.0 * x2 * oracles.psi((0.0, x2), [2]) * oracles.poisson_equal(lam), 3
    var = m ** (a / 2) / n * vfactor
    # minimise b1^2/m^2 + vfactor m^(a/2)/n over m
    m_opt = (4.0 * b1**2 * n / (a * vfactor)) ** (2.0 / (a + 4))
    return {"bias_m1": b1, "bias_m2": b2, "bias": b1 / m + b2 / m**2, "var_leading": var,
            "mse": var + (b1 / m) ** 2, "m_opt": m_opt,
            "mse_at_m_opt": b1**2 / m_opt**2 + vfactor * m_opt ** (a / 2) / n}


class ExactSums(Workload):
    """CLI ``sums``, ``moments`` and ``theory``: full-lattice enumeration, no data.

    The inputs are fixed: enumeration cost does not depend on values, so
    the seed has nothing to vary.
    """

    name = "exact_sums"

    def setup(self) -> None:
        self.calls: list[list[str]] = []
        for i, (profile, grid) in enumerate(SUMS_PROFILES):
            path = _write_json(os.path.join(self.workdir, f"profile{i}.json"), profile)
            self.calls.append(["sums", "--profile", path, "--m-grid", ",".join(map(str, grid))])
        for indices in MOMENT_INDICES:
            self.calls.append(["moments", "--d", str(len(MOMENT_X)), "--m", str(MOMENT_M),
                               "--x", ",".join(map(repr, MOMENT_X)), "--indices", ",".join(map(str, indices))])
        for i, cfg in enumerate(THEORY_CONFIGS):
            self.calls.append(["theory", "--config", _write_json(os.path.join(self.workdir, f"theory{i}.json"), cfg)])
        self.reference: list[dict] | None = None

    def round_calls(self, index: int) -> list[list[str]]:
        return self.calls

    def check_round(self, index: int, outputs: list[str], tally: Tally) -> None:
        if self.reference is None:
            self.reference = [_sums_reference(p, g) for p, g in SUMS_PROFILES]
        n_sums, n_mom = len(SUMS_PROFILES), len(MOMENT_INDICES)
        for (profile, grid), ref, text in zip(SUMS_PROFILES, self.reference, outputs[:n_sums]):
            rows = tally.expect(_csv_rows(text)[1:], len(ref), f"sums d={profile['d']}")
            gaps: dict[str, list[float]] = {}
            for row in rows:
                quantity, m = row[0], int(row[1])
                scaled, pred, gap = tally.op(row[2:])
                label = f"sums d={profile['d']} {quantity} m={m}"
                if (quantity, m) not in ref:
                    tally.check(False, f"{label}: unexpected row")
                    continue
                want, limit, size = ref[(quantity, m)]
                tally.check(close(scaled, want, scale=size), f"{label}: scaled {scaled!r} vs {want!r}")
                tally.check(close(pred, limit), f"{label}: prediction {pred!r} vs {limit!r}")
                tally.check(close(gap, abs(scaled - pred) / abs(pred), 1e-6), f"{label}: rel_gap {gap!r}")
                if quantity.startswith("min_coupling"):
                    tally.check(scaled <= 0.0, f"{label}: positive min-coupling sum")
                gaps.setdefault(quantity, []).append(gap)
            for quantity, seq in gaps.items():
                tally.check(all(b < a for a, b in zip(seq, seq[1:])),
                            f"sums d={profile['d']} {quantity}: rel_gap does not shrink along m")
        for indices, text in zip(MOMENT_INDICES, outputs[n_sums : n_sums + n_mom]):
            rows = tally.expect(_csv_rows(text)[1:], 1, f"moments {indices}")
            if not rows:
                continue
            analytic, brute, diff = tally.op(rows[0])
            want = oracles.central_moment(MOMENT_M, MOMENT_X, indices)
            tally.check(close(analytic, want, 1e-12), f"moments {indices}: analytic {analytic!r} vs {want!r}")
            tally.check(close(brute, want, 1e-9, scale=MOMENT_M), f"moments {indices}: enumerated {brute!r} vs {want!r}")
            tally.check(close(diff, abs(analytic - brute), 1e-12, 1e-300), f"moments {indices}: abs_diff {diff!r}")
        for cfg, text in zip(THEORY_CONFIGS, outputs[n_sums + n_mom :]):
            tally.attempted += 1
            label = f"theory {cfg['model']['alpha']} {cfg['estimator']}"
            try:
                report = json.loads(text)
            except ValueError:
                tally.failed += 1
                tally.check(False, f"{label}: output is not JSON")
                continue
            want = _theory_reference(cfg)
            for key in ("bias_m1", "bias_m2", "bias", "var_leading", "mse"):
                got = report["terms"].get(key)
                tally.check(isinstance(got, float) and close(got, want[key], scale=1e-300),
                            f"{label}: {key} {got!r} vs {want[key]!r}")
            for key in ("m_opt", "mse_at_m_opt"):
                got = report.get(key)
                if key in want:
                    tally.check(isinstance(got, float) and close(got, want[key], 1e-8), f"{label}: {key} {got!r}")
                else:
                    tally.check(not isinstance(got, float), f"{label}: {key} should be undefined, got {got!r}")


WORKLOADS = {w.name: w for w in (EstimateD2, VerifyMc, ExactSums)}
