"""Analytic target models: densities with closed-form derivatives.

A :class:`DensityModel` bundles a density on the simplex with its gradient
and Hessian (and, when available, the cdf with derivatives up to third
order) so that asymptotic formulas can be evaluated without numerical
differentiation.  The Dirichlet family covers every experiment in this
package; its derivatives are produced symbolically as signed monomials in
``(x_1, ..., x_d, 1 - sum x)``, which stays exact on the closed simplex for
integer parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, _as_int, _as_real

Array = np.ndarray

# a monomial c * prod_i x_i^e_i * (1 - sum x)^e_rem
_Term = tuple[float, tuple[float, ...], float]


@dataclass(frozen=True)
class DensityModel:
    """A target density with analytic derivatives.

    ``density_grad`` returns shape ``(d,)`` and ``density_hessian`` shape
    ``(d, d)``.  The cdf callables follow the same pattern, with
    ``cdf_third`` returning shape ``(d, d, d)``; they are ``None`` when no
    closed form is available.
    """

    name: str
    d: int
    density: Callable[[Array], float]
    density_grad: Callable[[Array], Array]
    density_hessian: Callable[[Array], Array]
    cdf: Callable[[Array], float] | None = None
    cdf_grad: Callable[[Array], Array] | None = None
    cdf_hessian: Callable[[Array], Array] | None = None
    cdf_third: Callable[[Array], Array] | None = None
    sampler: Callable[[np.random.Generator, int], Array] | None = None

    @property
    def has_cdf(self) -> bool:
        return self.cdf is not None

    def require_cdf(self) -> None:
        if not self.has_cdf:
            raise ValidationError(f"model {self.name!r} has no closed-form cdf")


# ---------------------------------------------------------------------------
# signed-monomial calculus
# ---------------------------------------------------------------------------

def _pow(base: float, expo: float) -> float:
    if expo == 0.0:
        return 1.0  # includes 0**0
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise ValidationError(
            "derivative involves a negative power at the boundary; "
            "parameters do not extend smoothly to the closed simplex"
        )
    return base ** expo


def _eval_terms(terms: Sequence[_Term], x: Array) -> float:
    x = np.asarray(x, dtype=float)
    rem = 1.0 - float(x.sum())
    if rem < 0.0:
        rem = 0.0
    total = 0.0
    for coef, exps, rem_exp in terms:
        value = coef
        for xi, ei in zip(x, exps):
            value *= _pow(float(xi), ei)
        value *= _pow(rem, rem_exp)
        total += value
    return total


def _diff_terms(terms: Sequence[_Term], i: int) -> list[_Term]:
    out: list[_Term] = []
    for coef, exps, rem_exp in terms:
        if exps[i] != 0.0:
            lowered = tuple(e - 1.0 if j == i else e for j, e in enumerate(exps))
            out.append((coef * exps[i], lowered, rem_exp))
        if rem_exp != 0.0:
            out.append((-coef * rem_exp, exps, rem_exp - 1.0))
    return out


# ---------------------------------------------------------------------------
# Dirichlet family
# ---------------------------------------------------------------------------

def dirichlet_model(alpha: Sequence[float]) -> DensityModel:
    """Dirichlet density with parameters ``alpha`` (length d + 1).

    Derivatives are exact on the closed simplex whenever each parameter is
    a positive integer or at least 3; other parameters only support
    evaluation in the interior.  For d = 1 with integer parameters the cdf
    and its first three derivatives come in closed form.
    """
    # NaN fails both comparisons; a bool or a string is refused, not read as a number
    alpha = tuple(_as_real(a, "Dirichlet parameters 'alpha' must be finite and positive", lambda v: 0 < v < math.inf)
                  for a in alpha)
    if len(alpha) < 2:
        raise ValidationError("alpha must have length d + 1 >= 2")
    d = len(alpha) - 1
    try:  # the exp overflows for large parameters such as [1e6, 1e6], lgamma itself from about 1e305
        const = math.exp(math.lgamma(sum(alpha)) - sum(math.lgamma(a) for a in alpha))
    except OverflowError:
        raise ValidationError(f"Dirichlet parameters 'alpha' overflow the normalising constant, got {alpha}") from None
    f_terms: list[_Term] = [(const, tuple(a - 1.0 for a in alpha[:d]), alpha[d] - 1.0)]
    grad_terms = [_diff_terms(f_terms, i) for i in range(d)]
    hess_terms = [[_diff_terms(grad_terms[i], j) for j in range(d)] for i in range(d)]

    def density(x: Array) -> float:
        return _eval_terms(f_terms, x)

    def density_grad(x: Array) -> Array:
        return np.array([_eval_terms(grad_terms[i], x) for i in range(d)])

    def density_hessian(x: Array) -> Array:
        return np.array([[_eval_terms(hess_terms[i][j], x) for j in range(d)] for i in range(d)])

    def sampler(rng: np.random.Generator, n: int) -> Array:
        return rng.dirichlet(alpha, size=n)[:, :d]

    cdf = cdf_grad = cdf_hessian = cdf_third = None
    if d == 1 and all(a == int(a) for a in alpha):
        a, b = int(alpha[0]), int(alpha[1])
        n_tot = a + b - 1
        coeffs = [math.comb(n_tot, j) for j in range(n_tot + 1)]

        def cdf(x: Array) -> float:
            t = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
            t = min(max(t, 0.0), 1.0)
            return float(sum(coeffs[j] * t**j * (1.0 - t) ** (n_tot - j) for j in range(a, n_tot + 1)))

        def cdf_grad(x: Array) -> Array:
            return np.array([_eval_terms(f_terms, np.atleast_1d(x))])

        def cdf_hessian(x: Array) -> Array:
            return np.array([[_eval_terms(grad_terms[0], np.atleast_1d(x))]])

        def cdf_third(x: Array) -> Array:
            return np.array([[[_eval_terms(hess_terms[0][0], np.atleast_1d(x))]]])

    label = "dirichlet(" + ",".join(f"{a:g}" for a in alpha) + ")"
    return DensityModel(
        name=label,
        d=d,
        density=density,
        density_grad=density_grad,
        density_hessian=density_hessian,
        cdf=cdf,
        cdf_grad=cdf_grad,
        cdf_hessian=cdf_hessian,
        cdf_third=cdf_third,
        sampler=sampler,
    )


def uniform_model(d: int) -> DensityModel:
    """The constant density d! on the d-dimensional simplex."""
    return dirichlet_model((1.0,) * (_as_int(d, "dimension d", least=1) + 1))

