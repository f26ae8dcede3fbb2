"""Bernstein-polynomial smoothing of distributions and densities on the simplex.

The package has three layers: estimators computable from data
(:mod:`.estimators`), closed-form asymptotic expansions of their bias,
variance and mse near the boundary (:mod:`.asymptotics`), and a
verification layer of exact lattice sums, moment oracles and Monte Carlo
experiments (:mod:`.lattice_sums`, :mod:`.moments`, :mod:`.montecarlo`).
"""

from .asymptotics import (
    BiasExpansion,
    BoundaryProfile,
    ExpansionReport,
    VarianceExpansion,
    cdf_bias_boundary,
    cdf_mse,
    cdf_variance_boundary,
    density_bias_boundary,
    density_m_opt,
    density_mse,
    density_mse_shoulder,
    psi,
    shoulder_bracket,
)
from .bessel import (
    BesselValue,
    bessel_i,
    bessel_i0,
    bessel_i1,
    bessel_i_scaled,
    min_coupling_factor,
    poisson_equal_probability,
    poisson_within_one_probability,
)
from .errors import SizeLimitError, ValidationError
from .estimators import (
    Dataset,
    bernstein_cdf,
    bernstein_cdf_many,
    bernstein_density,
    bernstein_density_many,
)
from .lattice_sums import (
    SumDiagnostic,
    min_coupling_diagnostics,
    min_coupling_sum,
    pmf_square_diagnostics,
    sum_pmf_power,
)
from .models import DensityModel, dirichlet_model, uniform_model
from .moments import (
    MomentQuery,
    central_moment_analytic,
    central_moment_bruteforce,
    fourth_moment_scaling,
)
from .montecarlo import (
    Experiment,
    McResult,
    McRow,
    RateFit,
    band_summary,
    mc_bias_variance,
    rate_fit,
    run_experiment,
    sample,
)
from .simplex import (
    SimplexPoint,
    lattice_array,
    lattice_size,
    log_multinomial_pmf,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
