"""Monte Carlo estimation of bias/variance/mse with theory comparisons.

Replicates draw fresh samples from an analytic model, evaluate an estimator
at the profile's realized point, and summarize the dispersion across
replicates.  Per-replicate random streams are derived from the master seed
with ``SeedSequence(entropy=seed, spawn_key=(replicate,))``, so replicates
can run concurrently and in any order without changing the result.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .asymptotics import BoundaryProfile, cdf_mse, density_mse
from .errors import ValidationError, _as_int, _list_items
from .estimators import Dataset, bernstein_cdf, bernstein_density
from .models import DensityModel, dirichlet_model, uniform_model
from .simplex import SimplexPoint

#: Half-width of the theory bands of :func:`band_summary`, in standard errors; the verify summary names it.
_BAND_WIDTH = 3


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """The random stream of one replicate; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


def sample(model: DensityModel, n: int, seed: "int | np.random.Generator") -> Dataset:
    """Draw ``n`` independent observations from the model, deterministically per seed.

    The draws pass the simplex rule like any other data: a model's sampler
    can be user code, so its output is checked, not trusted.  The
    :class:`Dataset` holds one validated copy of them.
    """
    if model.sampler is None:
        raise ValidationError(f"model {model.name!r} is not sampleable")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_as_int(seed, "'seed'", least=0))
    return Dataset(model.sampler(rng, _as_int(n, "sample size n", least=1)))


@dataclass(frozen=True)
class McRow:
    """Empirical moments at one (m, n) cell with their theoretical counterparts."""

    m: int
    n: int
    bias: float
    bias_se: float
    var: float
    var_se: float
    mse: float
    theory_bias: float
    theory_var: float
    theory_mse: float


def _check_kind(kind: object, what: str) -> None:
    """Refuse an estimator kind other than 'density' and 'cdf', naming the field ``what`` that holds it."""
    if kind not in ("density", "cdf"):
        raise ValidationError(f"{what} must be 'density' or 'cdf', got {kind!r}")


def _check_design(kind: str, m: object, n: object, replicates: object, seed: object) -> tuple[int, int, int, int]:
    """A Monte Carlo cell's order, sample size, replicate count and seed as ints, or a :class:`ValidationError`.

    Checked in the order kind, replicates, m, n, seed: a design with several faults is refused for the first.
    """
    _check_kind(kind, "'kind'")
    replicates = _as_int(replicates, "'replicates'", least=2)
    return _as_int(m, "order m", least=1), _as_int(n, "sample size n", least=1), replicates, _as_int(seed, "'seed'", least=0)


@dataclass(frozen=True)
class _Cell:
    """Everything a (m, n) cell needs before its first replicate; only its statistics come after."""

    m: int
    n: int
    point: SimplexPoint
    truth: float
    estimator: Callable[[Dataset, int, SimplexPoint], float]
    theory_bias: float
    theory_var: float


def _setup(model: DensityModel, profile: BoundaryProfile, m: int, n: int, kind: str) -> _Cell:
    """The cell's realized point, true value, estimator and its report's theory terms: the one branch on ``kind``."""
    x = profile.realized_point(m)
    if kind == "density":
        report, truth, estimator = density_mse(model, profile, m, n), float(model.density(x)), bernstein_density
    else:  # the cdf report checks that the model has a cdf
        report, truth, estimator = cdf_mse(model, profile, m, n), float(model.cdf(x)), bernstein_cdf
    return _Cell(m, n, SimplexPoint.of(x), truth, estimator, report.terms["bias"], report.terms["var_leading"])


def _run(model: DensityModel, cell: _Cell, replicates: int, seed: int, threads: int) -> McRow:
    """The cell's replicates on ``threads`` workers, in replicate order, then their statistics."""

    def run_one(r: int) -> float:
        return cell.estimator(sample(model, cell.n, replicate_rng(seed, r)), cell.m, cell.point)

    if threads == 1:  # the calling thread: a pool thread's own glibc malloc arena raised verify's peak memory 40%
        values = np.array([run_one(r) for r in range(replicates)], dtype=float)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = np.array(list(pool.map(run_one, range(replicates))), dtype=float)
    mean = float(values.mean())
    bias = mean - cell.truth
    var = float(values.var(ddof=1))
    m4 = float(np.mean((values - mean) ** 4))
    var_of_var = (m4 - var**2 * (replicates - 3) / (replicates - 1)) / replicates
    return McRow(
        m=cell.m,
        n=cell.n,
        bias=bias,
        bias_se=math.sqrt(var / replicates),
        var=var,
        var_se=math.sqrt(max(var_of_var, 0.0)),
        mse=bias**2 + var,
        theory_bias=cell.theory_bias,
        theory_var=cell.theory_var,
        theory_mse=cell.theory_var + cell.theory_bias**2,
    )


def _as_threads(threads: int | None) -> int:
    """Worker threads: an int >= 1, or by default one per CPU this process may run on."""
    if threads is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return _as_int(threads, "'threads'", least=1)


def mc_bias_variance(
    model: DensityModel,
    profile_or_point: "BoundaryProfile | SimplexPoint | float | Sequence[float]",
    m: int,
    n: int,
    replicates: int,
    seed: int,
    kind: str = "density",
    threads: int | None = None,
) -> McRow:
    """Estimate bias, variance and mse over independent replicates.

    The evaluation point is realized from the profile at bandwidth ``m``;
    the reported mse is exactly ``bias**2 + var``.  Standard errors come
    from the replicate dispersion (the variance one uses the usual
    fourth-moment formula).  The design, the point and the theory are
    checked before the first replicate runs.  Replicates run on ``threads``
    worker threads, by default one per CPU; the result does not depend on it.
    """
    m, n, replicates, seed = _check_design(kind, m, n, replicates, seed)
    threads = _as_threads(threads)
    if not isinstance(profile_or_point, BoundaryProfile):
        profile_or_point = BoundaryProfile.interior_point(profile_or_point)
    return _run(model, _setup(model, profile_or_point, m, n, kind), replicates, seed, threads)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def model_spec(value: object) -> tuple[str, dict]:
    """A config's ``model`` entry, a JSON object, as its ``name`` and a new dict of the other fields."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"config field 'model' must be an object, got {value!r}")
    if "name" not in value:
        raise ValidationError("config field 'model' is missing 'name'")
    return str(value["name"]), {key: v for key, v in value.items() if key != "name"}


def build_model(name: str, params: Mapping[str, object]) -> DensityModel:
    """Construct a model from its config-file description."""
    if name == "dirichlet":
        if "alpha" not in params:
            raise ValidationError("dirichlet model config needs an 'alpha' list")
        alpha = params["alpha"]
        if not isinstance(alpha, (list, tuple)):
            raise ValidationError(f"model field 'alpha' must be a list of numbers, got {alpha!r}")
        return dirichlet_model(alpha)
    if name == "uniform":
        if "d" not in params:
            raise ValidationError("uniform model config needs a dimension 'd'")
        return uniform_model(_as_int(params["d"], "model field 'd'"))
    raise ValidationError(f"unknown model {name!r}; expected 'dirichlet' or 'uniform'")


@dataclass(frozen=True)
class Experiment:
    """A reproducible grid of Monte Carlo cells."""

    model_name: str
    model_params: Mapping[str, object]
    profile: BoundaryProfile
    kind: str
    m_grid: tuple[int, ...]
    n_grid: tuple[int, ...]
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        for key in ("m_grid", "n_grid"):
            items = _list_items(getattr(self, key), f"experiment field {key!r}")
            object.__setattr__(self, key, tuple(_as_int(v, f"each value of experiment field {key!r}") for v in items))
        if not self.m_grid or not self.n_grid:
            raise ValidationError("m_grid and n_grid must be non-empty")
        # the smallest cell fails the design check if any cell does
        design = _check_design(self.kind, min(self.m_grid), min(self.n_grid), self.replicates, self.seed)
        for key, value in zip(("replicates", "seed"), design[2:]):
            object.__setattr__(self, key, value)
        object.__setattr__(self, "model_params", dict(self.model_params))

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "Experiment":
        try:
            name, params = model_spec(spec["model"])
            return cls(
                model_name=name,
                model_params=params,
                profile=BoundaryProfile.from_dict(spec["profile"]),
                kind=str(spec["kind"]),
                m_grid=spec["m_grid"],
                n_grid=spec["n_grid"],
                replicates=spec["replicates"],
                seed=spec["seed"],
            )
        except KeyError as missing:
            raise ValidationError(f"experiment config is missing {missing}") from None


@dataclass(frozen=True)
class McResult:
    experiment: Experiment
    rows: tuple[McRow, ...]


def run_experiment(experiment: Experiment, threads: int | None = None) -> McResult:
    """Run every (m, n) cell of the experiment grid.

    Each cell derives its own master seed from the experiment seed and the
    cell index, so enlarging the grid never changes existing cells.
    Every cell is set up before the first replicate of the first one, so
    a cell that cannot be evaluated fails before any sampling.  ``threads``
    is :func:`mc_bias_variance`'s.
    """
    threads = _as_threads(threads)
    model = build_model(experiment.model_name, experiment.model_params)
    grid = itertools.product(experiment.m_grid, experiment.n_grid)
    cells = [_setup(model, experiment.profile, m, n, experiment.kind) for m, n in grid]
    seeds = [int(np.random.SeedSequence(entropy=(experiment.seed, idx)).generate_state(1)[0]) for idx in range(len(cells))]
    rows = tuple(_run(model, cell, experiment.replicates, seed, threads) for cell, seed in zip(cells, seeds))
    return McResult(experiment=experiment, rows=rows)


def band_summary(result: McResult) -> tuple[bool, list[str]]:
    """Check each empirical bias and variance against theory bands of ``_BAND_WIDTH`` standard errors."""
    lines, all_ok = [], True
    for row in result.rows:
        bias_ok = abs(row.bias - row.theory_bias) <= _BAND_WIDTH * row.bias_se
        var_ok = abs(row.var - row.theory_var) <= _BAND_WIDTH * row.var_se
        all_ok &= bias_ok and var_ok
        lines.append(
            f"m={row.m} n={row.n}: bias {'PASS' if bias_ok else 'FAIL'} "
            f"(|{row.bias:.3e} - {row.theory_bias:.3e}| vs {_BAND_WIDTH}*{row.bias_se:.3e}), "
            f"var {'PASS' if var_ok else 'FAIL'} "
            f"(|{row.var:.3e} - {row.theory_var:.3e}| vs {_BAND_WIDTH}*{row.var_se:.3e})"
        )
    return all_ok, lines


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def rate_fit(points: Sequence[tuple[float, float]]) -> RateFit:
    """Least-squares line through (log n, log mse); natural logarithms."""
    if len(points) < 3:
        raise ValidationError(f"need at least 3 points to fit a rate, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if not np.all((0 < ns) & (ns < np.inf) & (0 < ys) & (ys < np.inf)):
        raise ValidationError("rate fitting needs finite, strictly positive inputs")
    if np.unique(ns).size < 2:
        raise ValidationError(f"need at least 2 distinct n to fit a rate, got {np.unique(ns).tolist()}")
    lx, ly = np.log(ns), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals**2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
