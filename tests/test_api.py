"""The package's public surface, pinned name by name and flag by flag.

Adding or retiring a public name or a CLI option must show up as a change
to this file; the README lists retired names and their replacements.
"""

import argparse
import ast
import importlib
import pathlib
import re
import types

import bernstein_simplex
from bernstein_simplex.cli import _build_parser

SUBMODULES = {
    "asymptotics", "bessel", "errors", "estimators", "lattice_sums", "models", "moments", "montecarlo", "simplex",
}

PUBLIC = {
    # asymptotics
    "BiasExpansion", "BoundaryProfile", "ExpansionReport", "VarianceExpansion", "cdf_bias_boundary", "cdf_mse",
    "cdf_variance_boundary", "density_bias_boundary", "density_m_opt", "density_mse", "density_mse_shoulder", "psi",
    "shoulder_bracket",
    # bessel
    "BesselValue", "bessel_i", "bessel_i0", "bessel_i1", "bessel_i_scaled", "min_coupling_factor",
    "poisson_equal_probability", "poisson_within_one_probability",
    # errors
    "SizeLimitError", "ValidationError",
    # estimators
    "Dataset", "bernstein_cdf", "bernstein_cdf_many", "bernstein_density", "bernstein_density_many",
    # lattice_sums
    "SumDiagnostic", "min_coupling_diagnostics", "min_coupling_sum", "pmf_square_diagnostics", "sum_pmf_power",
    # models
    "DensityModel", "dirichlet_model", "uniform_model",
    # moments
    "MomentQuery", "central_moment_analytic", "central_moment_bruteforce", "fourth_moment_scaling",
    # montecarlo
    "Experiment", "McResult", "McRow", "RateFit", "band_summary", "mc_bias_variance", "rate_fit",
    "run_experiment", "sample",
    # simplex
    "SimplexPoint", "lattice_array", "lattice_size", "log_multinomial_pmf",
}

#: retired name -> the module that used to define it
RETIRED = {
    "LatticeIndex": "simplex",
    "PmfTable": "simplex",
    "lattice_points": "simplex",
    "pmf_table": "simplex",
    "write_mc_csv": "montecarlo",
    "write_diagnostics_csv": "lattice_sums",
    "derivative_check": "models",
    "empirical_cdf": "estimators",
    "multinomial_pmf": "simplex",
    "lattice_window": "simplex",
    "HistogramCounts": "estimators",
    "density_from_counts": "estimators",
    "histogram_counts": "estimators",
    "density_bias_terms": "asymptotics",
    "density_variance_leading": "asymptotics",
    "density_m_opt_shoulder": "asymptotics",
    "pmf_square_sum_limit": "lattice_sums",
    "pmf_power_sum_scaled": "lattice_sums",
    "min_coupling_limit": "lattice_sums",
}

#: public functions and classes that no module of the package uses: entry points for library callers only
LIBRARY_ONLY = {
    "cdf_variance_boundary", "density_m_opt", "fourth_moment_scaling", "log_multinomial_pmf", "mc_bias_variance", "rate_fit",
}


def test_public_names_are_pinned():
    assert set(bernstein_simplex.__all__) == PUBLIC | SUBMODULES


def test_retired_names_are_gone():
    for name, module in RETIRED.items():
        assert not hasattr(bernstein_simplex, name)
        assert not hasattr(getattr(bernstein_simplex, module), name)


def test_retired_names_are_documented():
    readme = (pathlib.Path(bernstein_simplex.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    retired_list = readme.split("Retired names and their replacements:", 1)[1].split("\n\n", 2)[1]
    assert [name for name in RETIRED if not re.search(rf"`(\w+\.)*{name}\b", retired_list)] == []


def test_uncalled_public_names_are_pinned():
    # a new public name that only tests call has to join LIBRARY_ONLY on purpose
    package = pathlib.Path(bernstein_simplex.__file__).parent
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in package.glob("*.py") if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    defined = {name for name in PUBLIC if isinstance(getattr(bernstein_simplex, name), (type, types.FunctionType))}
    assert defined - loaded == LIBRARY_ONLY


def test_only_the_cli_writes_csv():
    # estimators reads CSV input; every CSV line the package prints comes from the cli
    modules = {name: importlib.import_module(f"bernstein_simplex.{name}") for name in SUBMODULES | {"cli"}}
    assert {name for name, module in modules.items() if hasattr(module, "csv")} == {"cli", "estimators"}
    assert {name for name, module in modules.items() if hasattr(module, "io")} == {"estimators"}


#: the message of each shared precondition -> the one module whose function raises it
ONE_RULE = {
    "beyond tolerance": "simplex",
    "order m must be >= ": "errors",
    "point dimension": "estimators",
    "need at least 2 replicates": "montecarlo",
    "sample size must be >= ": "errors",
    "must be a non-negative integer": "errors",
    "Dirichlet parameters": "models",
    "must be {bounds}, got ": "errors",  # integers in a range: dimension, 1-based index, worker threads, Bessel order
    "must be a list of integers": "errors",  # grids, moment indices, psi subsets
    "must be 'density' or 'cdf'": "montecarlo",
    "must be a finite positive number": "errors",
    "{requirement}, got {value!r}": "errors",  # real numbers: m and n, lambda, Bessel arguments, Dirichlet parameters, points
}


def test_each_precondition_has_one_rule():
    # a copy of a check would carry its message into a second module
    package = pathlib.Path(bernstein_simplex.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    for text, module in ONE_RULE.items():
        assert sorted(name for name, source in sources.items() if text in source) == [module], text


def test_row_sums_have_one_rule():
    # numpy reduces each row on its own; _row_sums gives the same bits from whole-column adds below 8 columns
    package = pathlib.Path(bernstein_simplex.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    row_sums = next(node for node in ast.parse(sources["simplex"]).body if getattr(node, "name", "") == "_row_sums")
    inside = re.findall(r"sum\(axis=1\)", ast.get_source_segment(sources["simplex"], row_sums))
    everywhere = [hit for source in sources.values() for hit in re.findall(r"sum\([^()]*axis=-?1\b", source)]
    assert inside and len(everywhere) == len(inside)


#: what montecarlo takes from asymptotics: verify's theory columns are the terms of the reports that theory prints
MONTECARLO_FROM_ASYMPTOTICS = {"BoundaryProfile", "cdf_mse", "density_mse"}


def test_verify_reads_its_theory_from_the_reports():
    # a term function imported here would be a second path from the expansions to verify
    source = (pathlib.Path(bernstein_simplex.__file__).parent / "montecarlo.py").read_text(encoding="utf-8")
    imported = {
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "asymptotics"
        for alias in node.names
    }
    assert imported == MONTECARLO_FROM_ASYMPTOTICS


def test_the_cli_checks_only_its_own_input():
    # argparse, --m-grid and --x values, two file-read errors, invalid JSON, a config that is not an object,
    # a missing theory key, a theory "shoulder" that is not a bool, an empty --m-grid and a --x of the wrong
    # length; every rule on a value is the library's
    source = (pathlib.Path(bernstein_simplex.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert source.count("raise ValidationError(") == 10


CLI_OPTIONS = {
    None: {"-h", "--help", "--threads"},
    "estimate": {"-h", "--help", "--data", "--m", "--kind", "--points"},
    "theory": {"-h", "--help", "--config"},
    "verify": {"-h", "--help", "--config"},
    "sums": {"-h", "--help", "--profile", "--m-grid"},
    "moments": {"-h", "--help", "--d", "--m", "--x", "--indices"},
}


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    return {flag for action in parser._actions for flag in action.option_strings}


def test_cli_options_are_pinned():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {None: _option_strings(parser)}
    found.update({name: _option_strings(sub) for name, sub in subparsers.choices.items()})
    assert found == CLI_OPTIONS
