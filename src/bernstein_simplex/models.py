"""Analytic target models: densities with closed-form derivatives.

A :class:`DensityModel` bundles a density on the simplex with its partial
derivatives up to fourth order (and, when available, the cdf with its
own) so that asymptotic formulas can be evaluated without numerical
differentiation.  The Dirichlet family covers every experiment in this
package; its derivatives are produced symbolically as signed monomials in
``(x_1, ..., x_d, 1 - sum x)``, which stays exact on the closed simplex for
integer parameters.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, _as_int, _as_real
from .simplex import _shares

Array = np.ndarray

# a monomial c * prod_i x_i^e_i * (1 - sum x)^e_(d+1), the last exponent the remainder's
_Term = tuple[float, tuple[float, ...]]


@dataclass(frozen=True)
class DensityModel:
    """A target density with analytic derivatives.

    ``density_grad`` returns shape ``(d,)``, ``density_hessian`` shape
    ``(d, d)``, ``density_third`` shape ``(d, d, d)`` and ``density_fourth``
    shape ``(d, d, d, d)``.  The cdf callables follow the same pattern; they
    are ``None`` when no closed form is available.
    """

    name: str
    d: int
    density: Callable[[Array], float]
    density_grad: Callable[[Array], Array]
    density_hessian: Callable[[Array], Array]
    density_third: Callable[[Array], Array]
    density_fourth: Callable[[Array], Array]
    cdf: Callable[[Array], float] | None = None
    cdf_grad: Callable[[Array], Array] | None = None
    cdf_hessian: Callable[[Array], Array] | None = None
    cdf_third: Callable[[Array], Array] | None = None
    cdf_fourth: Callable[[Array], Array] | None = None
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


def _eval_terms(terms: Sequence[_Term], shares: Sequence[float]) -> float:
    total = 0.0
    for coef, exps in terms:
        value = coef
        for share, e in zip(shares, exps):
            value *= _pow(share, e)
        total += value
    return total


def _diff_terms(terms: Sequence[_Term], i: int) -> list[_Term]:
    """The terms of the derivative along x_i: x_i's own power, then the remainder's, whose inner derivative is -1."""
    out: list[_Term] = []
    for coef, exps in terms:
        for j, c in ((i, coef), (len(exps) - 1, -coef)):
            if exps[j] != 0.0:
                out.append((c * exps[j], tuple(e - 1.0 if k == j else e for k, e in enumerate(exps))))
    return out


# ---------------------------------------------------------------------------
# Dirichlet family
# ---------------------------------------------------------------------------

def dirichlet_model(alpha: Sequence[float]) -> DensityModel:
    """Dirichlet density with parameters ``alpha`` (length d + 1).

    Derivatives are exact on the closed simplex whenever each parameter is
    a positive integer or at least 5; other parameters only support
    evaluation in the interior.  For d = 1 with integer parameters the cdf
    and its first four derivatives come in closed form.
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
    f_terms: list[_Term] = [(const, tuple(a - 1.0 for a in alpha))]

    @functools.cache  # each table is built on first use
    def terms(index: tuple[int, ...]) -> list[_Term]:
        """The terms of the partial derivative along the sorted ``index``."""
        return _diff_terms(terms(index[:-1]), index[-1]) if index else f_terms

    def derivative(order: int) -> Callable[[Array], Array]:
        """``x ->`` the tensor of partial derivatives of the given order at x, shape ``(d,) * order``."""
        def tensor(x: Array) -> Array:
            shares = _shares(x)
            value = {index: _eval_terms(terms(index), shares)
                     for index in itertools.combinations_with_replacement(range(d), order)}
            entries = itertools.product(range(d), repeat=order)
            return np.array([value[tuple(sorted(entry))] for entry in entries]).reshape((d,) * order)
        return tensor

    cdf, cdf_derivatives = None, [None] * 4
    if d == 1 and all(a == int(a) for a in alpha):
        a, b = int(alpha[0]), int(alpha[1])
        n_tot = a + b - 1
        coeffs = [math.comb(n_tot, j) for j in range(n_tot + 1)]

        def cdf(x: Array) -> float:
            t = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
            t = min(max(t, 0.0), 1.0)
            return float(sum(coeffs[j] * t**j * (1.0 - t) ** (n_tot - j) for j in range(a, n_tot + 1)))

        # F^(r+1) = f^(r) in d = 1: the density's tensor of order r with one more axis
        cdf_derivatives = [lambda x, f=derivative(r): f(x)[np.newaxis] for r in range(4)]

    label = "dirichlet(" + ",".join(f"{a:g}" for a in alpha) + ")"
    return DensityModel(
        name=label,
        d=d,
        density=lambda x: _eval_terms(f_terms, _shares(x)),
        density_grad=derivative(1),
        density_hessian=derivative(2),
        density_third=derivative(3),
        density_fourth=derivative(4),
        cdf=cdf,
        cdf_grad=cdf_derivatives[0],
        cdf_hessian=cdf_derivatives[1],
        cdf_third=cdf_derivatives[2],
        cdf_fourth=cdf_derivatives[3],
        sampler=lambda rng, n: rng.dirichlet(alpha, size=n)[:, :d],
    )


def uniform_model(d: int) -> DensityModel:
    """The constant density d! on the d-dimensional simplex."""
    return dirichlet_model((1.0,) * (_as_int(d, "dimension d", least=1) + 1))

