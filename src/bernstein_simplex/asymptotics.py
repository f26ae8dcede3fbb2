"""Closed-form bias, variance, mse and bandwidth expansions near the boundary.

A point near the boundary is described by a :class:`BoundaryProfile`: the
coordinates in the index set J scale like ``lambda_i / m`` as the bandwidth
``m`` grows, the rest sit at fixed interior values.  All expansions below
are evaluated exactly as stated; the neglected error orders are attached as
metadata strings and never added into returned numbers.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bessel import min_coupling_factor, poisson_equal_probability
from .errors import ValidationError, _as_int, _as_real, _check_mn, _list_items
from .models import DensityModel
from .moments import _trial_moment
from .simplex import SimplexPoint

#: Numerical threshold for the vanishing-derivative precondition of the
#: reduced-bias mse expansion.
SHOULDER_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryProfile:
    """Which coordinates scale with the bandwidth, and the fixed ones.

    ``boundary`` maps 1-based coordinate indices to their scale parameters
    ``lambda_i >= 0`` (the set J); ``interior`` maps the remaining indices
    to fixed values in (0, 1) whose sum stays below 1.
    """

    d: int
    boundary: Mapping[int, float] = field(default_factory=dict)
    interior: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _as_int(self.d, "profile field 'd'", least=1))
        rules = {"boundary": ("lambda", "must be finite and >= 0", lambda v: 0 <= v < math.inf),
                 "interior": ("x", "must lie strictly in (0, 1)", lambda v: 0 < v < 1)}
        for key, (name, rule, holds) in rules.items():
            value = getattr(self, key)
            try:
                items = dict(value).items()
            except (TypeError, ValueError):
                raise ValidationError(f"profile field {key!r} is malformed: {value!r}") from None
            converted = {}
            for i, v in items:
                i = _as_int(i, f"a key of profile field {key!r}")
                converted[i] = _as_real(v, f"{name}_{i} of profile field {key!r} {rule}", holds)
            object.__setattr__(self, key, converted)
        keys = sorted(self.boundary) + sorted(self.interior)
        if sorted(keys) != list(range(1, self.d + 1)):
            raise ValidationError(
                f"boundary {sorted(self.boundary)} and interior {sorted(self.interior)} "
                f"must partition 1..{self.d}"
            )
        if sum(self.interior.values()) >= 1.0:
            raise ValidationError("fixed interior coordinates must sum to less than 1")

    @classmethod
    def interior_point(cls, x: "SimplexPoint | float | Sequence[float]") -> "BoundaryProfile":
        """Profile with empty J, i.e. a fixed interior evaluation point."""
        pt = SimplexPoint.of(x)
        return cls(d=pt.d, boundary={}, interior={i + 1: v for i, v in enumerate(pt.coords)})

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "BoundaryProfile":
        """The profile a JSON object describes; a missing or malformed field raises, naming it."""
        if not isinstance(spec, Mapping) or "d" not in spec:
            raise ValidationError(f"profile must be a JSON object with a field 'd', got {spec!r}")
        return cls(d=spec["d"], boundary=spec.get("boundary", {}), interior=spec.get("interior", {}))

    def to_dict(self) -> dict[str, object]:
        return {
            "d": self.d,
            "boundary": {str(i): self.boundary[i] for i in sorted(self.boundary)},
            "interior": {str(i): self.interior[i] for i in sorted(self.interior)},
        }

    # -- derived views ------------------------------------------------------

    @property
    def j_set(self) -> frozenset[int]:
        return frozenset(self.boundary)

    @property
    def j_size(self) -> int:
        return len(self.boundary)

    @property
    def is_full_boundary(self) -> bool:
        return self.j_size == self.d

    @property
    def has_zero_lambda(self) -> bool:
        return any(v == 0.0 for v in self.boundary.values())

    @property
    def off_j(self) -> np.ndarray:
        """Boolean mask of the fixed coordinates (those outside J), 0-based."""
        return np.array([i in self.interior for i in range(1, self.d + 1)])

    def lambda_vector(self) -> np.ndarray:
        """Scale parameters as a length-d vector, zero off J."""
        lam = np.zeros(self.d)
        for i, v in self.boundary.items():
            lam[i - 1] = v
        return lam

    def slice_point(self) -> np.ndarray:
        """The profile's limit point: J coordinates exactly 0, others fixed."""
        x = np.zeros(self.d)
        for i, v in self.interior.items():
            x[i - 1] = v
        return x

    def realized_point(self, m: float) -> np.ndarray:
        """The evaluation point at bandwidth m: lambda_i / m on J, fixed elsewhere."""
        _check_mn(m)
        x = self.slice_point() + self.lambda_vector() / m
        if np.any(x > 1.0) or x.sum() > 1.0:
            raise ValidationError(f"bandwidth m={m} too small to realize the profile")
        return x


def psi(x: "SimplexPoint | float | Sequence[float]", subset: Iterable[int]) -> float:
    """Normal-approximation constant for the coordinates in ``subset``.

    Computes ``[(4 pi)^|A| (1 - sum_A x_i) prod_A x_i]^(-1/2)`` (1-based
    indices); the empty subset gives exactly 1.
    """
    pt = SimplexPoint.of(x)
    subset = sorted(set(_as_int(i, "each psi subset index", least=1, most=pt.d) for i in _list_items(subset, "psi subset")))
    if not subset:
        return 1.0
    values = [pt.coords[i - 1] for i in subset]
    inner = (4.0 * math.pi) ** len(subset) * (1.0 - sum(values))
    for v in values:
        inner *= v
    if inner <= 0.0:
        raise ValidationError(
            "psi requires positive coordinates on the subset with sum below 1"
        )
    return inner ** -0.5


class _FloatRangeError(ValidationError):
    """The refusal of :func:`_in_float_range`; a guarded function that calls another restates it with its own m and n."""


def _in_float_range(fn: Callable) -> Callable:
    """``fn(model, profile, m[, n])`` refusing, naming m and n, a result (a report's terms and optimum, else the term's ``value``) that overflows, divides by zero or is not finite."""
    @functools.wraps(fn)
    def checked(model: DensityModel, profile: BoundaryProfile, m: float, n: float | None = None):
        try:
            result = fn(model, profile, m) if n is None else fn(model, profile, m, n)
            numbers = ([*result.terms.values(), result.m_opt or 0.0, result.mse_at_m_opt or 0.0]
                       if isinstance(result, ExpansionReport) else [result.value])
            finite = all(map(math.isfinite, numbers))
        except (OverflowError, ZeroDivisionError, _FloatRangeError):
            finite = False
        if not finite:
            raise _FloatRangeError(f"the expansion at m={m!r}" + ("" if n is None else f", n={n!r}") + " leaves the float range")
        return result
    return checked


# ---------------------------------------------------------------------------
# bias of both estimators
# ---------------------------------------------------------------------------

def _bias_brackets(
    derivative: Callable[[int], np.ndarray], xs: np.ndarray, lam: np.ndarray, cube: bool
) -> tuple[float, float]:
    """``(b1, b2)`` with ``E phi(Y) - phi(x) = b1/m + b2/m^2 + O(m^-3)`` at ``x = xs + lam/m``.

    ``derivative(r)`` is phi's tensor of r-th derivatives at the slice point xs.  For the
    density (``cube``) phi = f and ``Y = (K + U)/m``, K ~ Multinomial(m - 1, x), U uniform on
    the unit cube; for the cdf phi = F and ``Y = K/m``, K ~ Multinomial(m, x).  With ``s = 1/2 - xs``
    and one trial's central moments sigma, mu3 (``moments._trial_moment``), ``Y - x`` has the moments
    ``s/m - lam/m^2``, ``sigma/m + (diag(lam) - lam xs^T - xs lam^T + s s^T + I/12 - sigma)/m^2``,
    ``(mu3 + 3 sym(sigma s))/m^2`` and ``3 sym(sigma sigma)/m^2``; the cdf has s = 0 and drops
    the ``-lam/m^2``, ``I/12`` and ``-sigma`` terms.
    """
    grad, hess = derivative(1), derivative(2)
    w = 1.0 if cube else 0.0
    s, eye = w * (0.5 - xs), np.eye(len(xs))
    sigma = _trial_moment(xs, np.indices(hess.shape))
    b1 = np.dot(grad, s) + 0.5 * np.vdot(hess, sigma)
    # the Hessian's coefficients, with lam^T H s and the cross terms folded onto one side
    coef = 0.5 * lam * eye + np.outer(s - xs, lam) + 0.5 * (np.outer(s, s) + w * (eye / 12.0 - sigma))
    b2 = -w * np.dot(grad, lam) + np.vdot(coef, hess)
    if xs.any():  # at full J sigma and mu3 vanish, and with them the terms of orders 3 and 4
        third, fourth = derivative(3), derivative(4)
        mu3 = _trial_moment(xs, np.indices(third.shape))
        b2 += (0.5 * np.einsum("ijk,ij,k->", third, sigma, lam + s) + np.vdot(third, mu3) / 6.0
               + np.einsum("ijkl,ij,kl->", fourth, sigma, sigma) / 8.0)
    return float(b1), float(b2)


def _derivatives(model: DensityModel, kind: str, x: np.ndarray) -> Callable[[int], np.ndarray]:
    """``r ->`` the r-th derivative tensor of ``kind``, density or cdf, at x, evaluated on first use."""
    fns = [getattr(model, f"{kind}_{order}") for order in ("grad", "hessian", "third", "fourth")]
    if None in fns:
        raise ValidationError(f"model {model.name!r} has no closed-form {kind} derivatives up to order 4")
    return functools.cache(lambda r: np.asarray(fns[r - 1](x), dtype=float))


@dataclass(frozen=True)
class BiasExpansion:
    """Evaluated bias brackets: ``value = bracket_m1/m + bracket_m2/m^2``."""

    bracket_m1: float
    bracket_m2: float
    m: float
    value: float
    order_note: str


def _bias_expansion(b1: float, b2: float, m: float, note: str) -> BiasExpansion:
    return BiasExpansion(bracket_m1=b1, bracket_m2=b2, m=float(m), value=b1 / m + b2 / m**2, order_note=note)


@_in_float_range
def density_bias_boundary(model: DensityModel, profile: BoundaryProfile, m: float) -> BiasExpansion:
    """Two-term bias of the density estimator at a near-boundary profile.

    Both brackets use the derivatives at the profile's limit point (J
    coordinates set to 0); with empty J that is the evaluation point itself.
    """
    _check_model(model, profile)
    _check_mn(m)
    xs = profile.slice_point()
    b1, b2 = _bias_brackets(_derivatives(model, "density", xs), xs, profile.lambda_vector(), cube=True)
    return _bias_expansion(b1, b2, m, "o(m^-2)" if profile.is_full_boundary else "o(m^-2 + m^-1)")


# ---------------------------------------------------------------------------
# density estimator: variance, mse, optimal bandwidth
# ---------------------------------------------------------------------------

def _boundary_factor(profile: BoundaryProfile, lead: float = 1.0) -> float:
    """``(lead * psi)`` over the fixed coordinates, times ``prod_J P{X = Y}(lambda_i)``.

    With ``lead = 1`` this is the limit of ``m^((d-|J|)/2)`` times the
    squared-weight sum; with the density on the slice it is the variance factor.
    """
    prod = 1.0
    for lam in profile.boundary.values():
        prod *= poisson_equal_probability(lam)
    return lead * psi(profile.slice_point(), profile.interior.keys()) * prod


def _density_variance(model: DensityModel, profile: BoundaryProfile, m: float, n: float) -> tuple[float, float, int]:
    """The leading variance term at ``(m, n)``, its m- and n-free factor and its exponent ``a = d + |J|`` of ``m^(a/2)``."""
    _check_model(model, profile)
    _check_mn(m, n)
    vfactor = _boundary_factor(profile, float(model.density(profile.slice_point())))
    a = profile.d + profile.j_size
    return m ** (0.5 * a) / n * vfactor, vfactor, a


_DENSITY_VAR_NOTE = "n^-1 m^((d+|J|)/2) (O(m^-1) + o(1) [J not full])"
_NO_FINITE_OPTIMUM = "none (no finite optimum in m)"


def _mse_optimum(bracket: float, order: int, a: int, vfactor: float, n: float, base: float = 0.0) -> tuple[float, float] | str:
    """Minimizer of ``base + bracket^2 m^(-2 order) + vfactor m^(a/2) / n`` and the mse it attains.

    In closed form ``m* = (n bracket^2 / ((a / 4 order) vfactor))^(2 / (a + 4 order))``.
    Returns the reason instead when no interior optimum exists; with ``scale = (a / 4 order) vfactor < 0``
    the mse falls without bound as m grows.
    """
    if bracket == 0.0:
        return "none (zero bias bracket)"
    if vfactor == 0.0:
        return "none (zero variance factor)"
    q = 4.0 * order
    s = a + q
    scale = (a / q) * vfactor
    if scale < 0.0:
        return _NO_FINITE_OPTIMUM
    m_opt = n ** (2.0 / s) * abs(bracket) ** (4.0 / s) / scale ** (2.0 / s)
    mse = (
        n ** (-q / s)
        * abs(bracket) ** (2.0 * a / s)
        * (q / a + 1.0)
        * scale ** (q / s)
    )
    return m_opt, mse + base


def density_m_opt(
    model: DensityModel, profile: BoundaryProfile, n: float
) -> tuple[float, float] | None:
    """Bandwidth minimizing the two-term mse, with the mse it attains.

    Returns ``None`` when no interior optimum exists: either the leading
    bias bracket or the leading variance factor vanishes.  The optimum does
    not depend on ``m``, so it is the one :func:`density_mse` reports at any ``m``.
    """
    report = density_mse(model, profile, 1.0, n)
    return None if report.m_opt is None else (report.m_opt, report.mse_at_m_opt)


@_in_float_range
def density_mse(
    model: DensityModel, profile: BoundaryProfile, m: float, n: float
) -> "ExpansionReport":
    """Two-term mse of the density estimator: leading variance + squared leading bias."""
    bias = density_bias_boundary(model, profile, m)
    var, vfactor, a = _density_variance(model, profile, m, n)
    mse = var + (bias.bracket_m1 / m) ** 2
    opt = _mse_optimum(bias.bracket_m1, 1, a, vfactor, n)
    terms, notes = _two_term_entries(bias, var, _DENSITY_VAR_NOTE, mse)
    return _report("density", model, profile, m, n, terms, notes, opt)


# -- reduced-bias variant under vanishing boundary derivatives --------------

def shoulder_bracket(model: DensityModel, profile: BoundaryProfile) -> float:
    """Second-order bias bracket once the first-order one vanishes.

    Requires the gradient to vanish on the profile's limit slice, and the
    Hessian to vanish there in every pair of non-scaling coordinates;
    violations raise with the offending derivative named.
    """
    _check_model(model, profile)
    xs = profile.slice_point()
    derivative = _derivatives(model, "density", xs)
    grad, hess = derivative(1), derivative(2)
    for i in range(profile.d):
        if abs(grad[i]) > SHOULDER_TOL:
            raise ValidationError(f"shoulder condition violated: df/dx_{i + 1} at the boundary slice is {grad[i]!r}")
    violated = np.argwhere(np.outer(profile.off_j, profile.off_j) & (np.abs(hess) > SHOULDER_TOL))
    if len(violated):
        i, j = violated[0]
        raise ValidationError(
            "shoulder condition violated: "
            f"d2f/dx_{i + 1}dx_{j + 1} at the boundary slice is {hess[i, j]!r}"
        )
    return _bias_brackets(derivative, xs, profile.lambda_vector(), cube=True)[1]


@_in_float_range
def density_mse_shoulder(
    model: DensityModel, profile: BoundaryProfile, m: float, n: float
) -> "ExpansionReport":
    """Mse with the m^-4 squared bias term, valid under the shoulder condition."""
    _check_mn(m, n)
    b2 = shoulder_bracket(model, profile)
    var, vfactor, a = _density_variance(model, profile, m, n)
    if profile.is_full_boundary:
        opt = _mse_optimum(b2, 2, a, vfactor, n)
    else:
        opt = "none (optimum defined only for full J)"
    terms = {
        "bias_m2_shoulder": b2,
        "var_leading": var,
        "mse": var + b2**2 / m**4,
    }
    notes = {
        "var_leading": _DENSITY_VAR_NOTE,
        "mse": "+ o(m^-4 + m^-3 [J not full])",
    }
    return _report("density", model, profile, m, n, terms, notes, opt)


# ---------------------------------------------------------------------------
# cdf estimator
# ---------------------------------------------------------------------------

_CDF_BIAS_NOTE = "O(m^-3) + o(m^-3/2) [J not full]"
_CDF_VAR_NOTE = "O(n^-1 m^-2) + o(n^-1 m^-1/2) [J not full]"


@_in_float_range
def cdf_bias_boundary(model: DensityModel, profile: BoundaryProfile, m: float) -> BiasExpansion:
    """Two-term bias of the smoothed cdf estimator at a near-boundary profile.

    A profile with a zero scale parameter pins the evaluation point to the
    boundary face where the estimator vanishes almost surely, so the bias
    is exactly zero there.
    """
    _check_model(model, profile)
    model.require_cdf()
    _check_mn(m)
    if profile.has_zero_lambda:
        return BiasExpansion(0.0, 0.0, float(m), 0.0, "exact (estimator vanishes a.s.)")
    xs = profile.slice_point()
    b1, b2 = _bias_brackets(_derivatives(model, "cdf", xs), xs, profile.lambda_vector(), cube=False)
    return _bias_expansion(b1, b2, m, _CDF_BIAS_NOTE)


@dataclass(frozen=True)
class VarianceExpansion:
    value: float
    order_note: str


@_in_float_range
def cdf_variance_boundary(
    model: DensityModel, profile: BoundaryProfile, m: float, n: float
) -> VarianceExpansion:
    """Leading variance of the smoothed cdf estimator near the boundary.

    Coordinates in J contribute a nonnegative coupling term of order
    ``n^-1 m^-1``; fixed interior coordinates reduce the empirical-cdf
    variance by a term of order ``n^-1 m^-1/2``.  Profiles pinned to the
    boundary (a zero scale parameter) give exactly zero.
    """
    return _cdf_variance(model, profile, m, n)[0]


def _cdf_variance(model: DensityModel, profile: BoundaryProfile, m: float, n: float) -> tuple[VarianceExpansion, float, float]:
    """The variance, ``V = sum_i dF_i sqrt(x_i (1 - x_i)/pi)`` (0 on J) and ``F(1 - F)/n``, from one evaluation of the model at the slice point."""
    _check_model(model, profile)
    model.require_cdf()
    _check_mn(m, n)
    if profile.has_zero_lambda:
        return VarianceExpansion(0.0, "exact (estimator vanishes a.s.)"), 0.0, 0.0
    x = profile.slice_point()
    grad = np.asarray(model.cdf_grad(x), dtype=float)
    coupling = sum(grad[i - 1] * min_coupling_factor(lam) for i, lam in sorted(profile.boundary.items()))
    f_val = 0.0 if profile.j_size else float(model.cdf(x))  # F is 0 on the slice, whose J coordinates are 0
    vfactor, base = float(np.dot(grad, np.sqrt(x * (1.0 - x) / math.pi))), f_val * (1.0 - f_val) / n
    return VarianceExpansion((coupling - math.sqrt(m) * vfactor) / (n * m) + base, _CDF_VAR_NOTE), vfactor, base


@_in_float_range
def cdf_mse(model: DensityModel, profile: BoundaryProfile, m: float, n: float) -> "ExpansionReport":
    """Mse of the smoothed cdf estimator: variance expansion + squared bias.

    No finite bandwidth minimizes the mse for a nonempty J; the report
    carries an explicit marker instead of a number.  In the interior ``F(1 - F)/n - V m^(-1/2)/n +
    b1^2/m^2``, with ``V = sum_i dF_i sqrt(x_i (1 - x_i)/pi)``, is least at ``m* = (4 n b1^2/V)^(2/3)``.
    """
    bias = cdf_bias_boundary(model, profile, m)
    var, vfactor, base = _cdf_variance(model, profile, m, n)
    if profile.has_zero_lambda:
        opt = "none (estimator vanishes a.s.; mse exactly 0)"
    elif profile.j_size > 0:
        opt = _NO_FINITE_OPTIMUM
    else:
        opt = _mse_optimum(bias.bracket_m1, 1, -1, -vfactor, n, base)
    terms, notes = _two_term_entries(bias, var.value, var.order_note, var.value + bias.value**2)
    return _report("cdf", model, profile, m, n, terms, notes, opt)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionReport:
    """Named leading terms with their error-order annotations.

    ``m_opt`` is ``None`` when no interior optimum exists; ``m_opt_note``
    then explains why.  Serialization keeps stable field names, with the
    note substituted into the ``m_opt`` slot when the value is undefined.
    """

    estimator: str
    model: str
    profile: dict
    m: float | None
    n: float | None
    terms: dict[str, float]
    order_notes: dict[str, str]
    m_opt: float | None
    mse_at_m_opt: float | None
    m_opt_note: str

    def to_dict(self) -> dict[str, object]:
        return {
            "estimator": self.estimator,
            "model": self.model,
            "profile": self.profile,
            "m": self.m,
            "n": self.n,
            "terms": dict(self.terms),
            "order_notes": dict(self.order_notes),
            "m_opt": self.m_opt if self.m_opt is not None else (self.m_opt_note or "none"),
            "mse_at_m_opt": self.mse_at_m_opt,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _two_term_entries(bias: BiasExpansion, var: float, var_note: str, mse: float) -> tuple[dict, dict]:
    """Terms and order notes of a report on the two-term bias and the leading variance."""
    terms = {
        "bias_m1": bias.bracket_m1,
        "bias_m2": bias.bracket_m2,
        "bias": bias.value,
        "var_leading": var,
        "mse": mse,
    }
    notes = {
        "bias": bias.order_note,
        "var_leading": var_note,
        "mse": "sum of the two error orders above",
    }
    return terms, notes


def _report(
    estimator: str, model: DensityModel, profile: BoundaryProfile, m: float, n: float,
    terms: dict[str, float], order_notes: dict[str, str], opt: tuple[float, float] | str,
) -> ExpansionReport:
    """The report; ``opt`` is ``(m_opt, mse_at_m_opt)`` or the reason no optimum exists."""
    m_opt, mse_at_m_opt = (None, None) if isinstance(opt, str) else opt
    return ExpansionReport(
        estimator=estimator, model=model.name, profile=profile.to_dict(), m=float(m), n=float(n),
        terms=terms, order_notes=order_notes, m_opt=m_opt, mse_at_m_opt=mse_at_m_opt,
        m_opt_note=opt if isinstance(opt, str) else "",
    )


# ---------------------------------------------------------------------------
# shared validation helpers
# ---------------------------------------------------------------------------

def _check_model(model: DensityModel, profile: BoundaryProfile) -> None:
    if model.d != profile.d:
        raise ValidationError(
            f"model dimension {model.d} does not match profile dimension {profile.d}"
        )
