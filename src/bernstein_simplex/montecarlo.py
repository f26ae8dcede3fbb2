"""Monte Carlo estimation of bias/variance/mse with theory comparisons.

Replicates draw fresh samples from an analytic model, evaluate an estimator
at the profile's realized point, and summarize the dispersion across
replicates.  Per-replicate random streams are derived from the master seed
with ``SeedSequence(entropy=seed, spawn_key=(replicate,))``, so replicates
can run concurrently and in any order without changing the result.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .asymptotics import (
    BoundaryProfile,
    cdf_bias_boundary,
    cdf_variance_boundary,
    density_bias_boundary,
    density_variance_leading,
)
from .errors import ValidationError
from .estimators import Dataset, bernstein_cdf, bernstein_density
from .models import DensityModel, dirichlet_model, uniform_model
from .simplex import SimplexPoint


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """The random stream of one replicate; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


def sample(model: DensityModel, n: int, seed: "int | np.random.Generator") -> Dataset:
    """Draw ``n`` independent observations from the model, deterministically per seed."""
    if model.sampler is None:
        raise ValidationError(f"model {model.name!r} is not sampleable")
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Dataset(model.sampler(rng, n))


def as_profile(
    profile_or_point: "BoundaryProfile | SimplexPoint | float | Sequence[float]",
) -> BoundaryProfile:
    if isinstance(profile_or_point, BoundaryProfile):
        return profile_or_point
    return BoundaryProfile.interior_point(profile_or_point)


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


def _theory(model: DensityModel, profile: BoundaryProfile, m: int, n: int, kind: str) -> tuple[float, float]:
    if kind == "density":
        bias = density_bias_boundary(model, profile, m).value
        var = density_variance_leading(model, profile, m, n)
    else:
        bias = cdf_bias_boundary(model, profile, m).value
        var = cdf_variance_boundary(model, profile, m, n).value
    return bias, var


def mc_bias_variance(
    model: DensityModel,
    profile_or_point: "BoundaryProfile | SimplexPoint | float | Sequence[float]",
    m: int,
    n: int,
    replicates: int,
    seed: int,
    kind: str = "density",
    threads: int = 1,
) -> McRow:
    """Estimate bias, variance and mse over independent replicates.

    The evaluation point is realized from the profile at bandwidth ``m``;
    the reported mse is exactly ``bias**2 + var``.  Standard errors come
    from the replicate dispersion (the variance one uses the usual
    fourth-moment formula).
    """
    if kind not in ("density", "cdf"):
        raise ValidationError(f"kind must be 'density' or 'cdf', got {kind!r}")
    if replicates < 2:
        raise ValidationError(f"need at least 2 replicates, got {replicates}")
    profile = as_profile(profile_or_point)
    x = profile.realized_point(m)
    if kind == "density":
        truth = float(model.density(x))

        def estimate(data: Dataset) -> float:
            return bernstein_density(data, m, x)

    else:
        model.require_cdf()
        truth = float(model.cdf(x))

        def estimate(data: Dataset) -> float:
            return bernstein_cdf(data, m, x)

    values = np.empty(replicates)

    def run_one(r: int) -> None:
        data = sample(model, n, replicate_rng(seed, r))
        values[r] = estimate(data)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_one, range(replicates)))
    else:
        for r in range(replicates):
            run_one(r)

    mean = float(values.mean())
    bias = mean - truth
    var = float(values.var(ddof=1))
    centered = values - mean
    m4 = float(np.mean(centered**4))
    var_of_var = (m4 - var**2 * (replicates - 3) / (replicates - 1)) / replicates
    theory_bias, theory_var = _theory(model, profile, m, n, kind)
    return McRow(
        m=int(m),
        n=int(n),
        bias=bias,
        bias_se=math.sqrt(var / replicates),
        var=var,
        var_se=math.sqrt(max(var_of_var, 0.0)),
        mse=bias**2 + var,
        theory_bias=theory_bias,
        theory_var=theory_var,
        theory_mse=theory_var + theory_bias**2,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def model_spec(value: object) -> dict:
    """A config's ``model`` entry as a new dict; it must be a JSON object."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"config field 'model' must be an object, got {value!r}")
    return dict(value)


def build_model(name: str, params: Mapping[str, object]) -> DensityModel:
    """Construct a model from its config-file description."""
    if name == "dirichlet":
        if "alpha" not in params:
            raise ValidationError("dirichlet model config needs an 'alpha' list")
        alpha = params["alpha"]
        if not isinstance(alpha, (list, tuple)) or not all(isinstance(a, (int, float)) for a in alpha):
            raise ValidationError(f"model field 'alpha' must be a list of numbers, got {alpha!r}")
        return dirichlet_model([float(a) for a in alpha])
    if name == "uniform":
        if "d" not in params:
            raise ValidationError("uniform model config needs a dimension 'd'")
        try:
            d = int(params["d"])
        except (TypeError, ValueError):
            raise ValidationError(f"model field 'd' must be an integer, got {params['d']!r}") from None
        return uniform_model(d)
    raise ValidationError(f"unknown model {name!r}; expected 'dirichlet' or 'uniform'")


def _grid(value: object) -> tuple[int, ...]:
    if isinstance(value, str):
        raise TypeError("a grid is a list of integers, not a string")
    return tuple(map(int, value))


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
        if self.kind not in ("density", "cdf"):
            raise ValidationError(f"kind must be 'density' or 'cdf', got {self.kind!r}")
        for key in ("m_grid", "n_grid", "replicates", "seed"):
            value = getattr(self, key)
            try:
                converted = _grid(value) if key.endswith("_grid") else int(value)
            except (TypeError, ValueError):
                raise ValidationError(f"experiment field {key!r} is malformed: {value!r}") from None
            object.__setattr__(self, key, converted)
        if self.replicates < 2:
            raise ValidationError(f"need at least 2 replicates, got {self.replicates}")
        if not self.m_grid or not self.n_grid:
            raise ValidationError("m_grid and n_grid must be non-empty")
        if any(v < 1 for v in self.m_grid + self.n_grid):
            raise ValidationError("all grid values must be >= 1")
        object.__setattr__(self, "model_params", dict(self.model_params))

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "Experiment":
        try:
            params = model_spec(spec["model"])
            return cls(
                model_name=str(params.pop("name")),
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

    def build_model(self) -> DensityModel:
        return build_model(self.model_name, self.model_params)


@dataclass(frozen=True)
class McResult:
    experiment: Experiment
    rows: tuple[McRow, ...]


def run_experiment(experiment: Experiment, threads: int = 1) -> McResult:
    """Run every (m, n) cell of the experiment grid.

    Each cell derives its own master seed from the experiment seed and the
    cell index, so enlarging the grid never changes existing cells.
    """
    model = experiment.build_model()
    rows = []
    for idx, (m, n) in enumerate(itertools.product(experiment.m_grid, experiment.n_grid)):
        cell_seed = int(np.random.SeedSequence(entropy=(experiment.seed, idx)).generate_state(1)[0])
        rows.append(
            mc_bias_variance(
                model,
                experiment.profile,
                m=m,
                n=n,
                replicates=experiment.replicates,
                seed=cell_seed,
                kind=experiment.kind,
                threads=threads,
            )
        )
    return McResult(experiment=experiment, rows=tuple(rows))


_MC_COLUMNS = (
    "m",
    "n",
    "bias",
    "bias_se",
    "var",
    "var_se",
    "mse",
    "theory_bias",
    "theory_var",
    "theory_mse",
)


def write_mc_csv(result: McResult, fh: io.TextIOBase) -> None:
    writer = csv.writer(fh)
    writer.writerow(_MC_COLUMNS)
    for row in result.rows:
        writer.writerow(
            [row.m, row.n]
            + [repr(float(getattr(row, name))) for name in _MC_COLUMNS[2:]]
        )


def band_summary(result: McResult, width: float = 3.0) -> tuple[bool, list[str]]:
    """Check each empirical bias and variance against ``width``-SE theory bands."""
    lines = []
    all_ok = True
    for row in result.rows:
        bias_ok = abs(row.bias - row.theory_bias) <= width * row.bias_se
        var_ok = abs(row.var - row.theory_var) <= width * row.var_se
        all_ok &= bias_ok and var_ok
        lines.append(
            f"m={row.m} n={row.n}: bias {'PASS' if bias_ok else 'FAIL'} "
            f"(|{row.bias:.3e} - {row.theory_bias:.3e}| vs {width:.0f}*{row.bias_se:.3e}), "
            f"var {'PASS' if var_ok else 'FAIL'} "
            f"(|{row.var:.3e} - {row.theory_var:.3e}| vs {width:.0f}*{row.var_se:.3e})"
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
    if np.any(ns <= 0) or np.any(ys <= 0):
        raise ValidationError("rate fitting needs strictly positive inputs")
    lx, ly = np.log(ns), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals**2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
