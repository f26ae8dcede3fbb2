"""Command-line surface: estimates, theory reports, verification runs, tables.

Subcommands
-----------
estimate : per-point estimator values for a dataset, as CSV on stdout
theory   : expansion report (bias/variance/mse/optimal bandwidth) as JSON
verify   : Monte Carlo run with a 3-standard-error pass/fail summary
sums     : exact-vs-predicted lattice-sum diagnostics as CSV
moments  : closed-form vs enumerated central moments

Validation problems exit with code 1 (naming the offending flag or row),
lattice-size refusals with code 2.  CSV goes to stdout; the verify summary
goes to stderr so the CSV stream stays machine-readable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Sequence

from .asymptotics import BoundaryProfile, cdf_mse, density_mse, density_mse_shoulder
from .errors import SizeLimitError, ValidationError
from .estimators import Dataset, bernstein_cdf_many, density_from_counts, histogram_counts
from .lattice_sums import min_coupling_diagnostics, pmf_square_diagnostics, write_diagnostics_csv
from .moments import MomentQuery, central_moment_analytic, central_moment_bruteforce
from .montecarlo import Experiment, band_summary, build_model, model_spec, run_experiment, write_mc_csv
from .simplex import SimplexPoint


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bernstein-simplex", description=__doc__)
    parser.add_argument("--threads", type=int, default=1, help="worker threads for replicate loops")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="evaluate an estimator on a dataset")
    p_est.add_argument("--data", required=True, help="CSV of observations, one row each")
    p_est.add_argument("--m", type=int, required=True, help="bandwidth (polynomial order)")
    p_est.add_argument("--kind", choices=("density", "cdf"), required=True)
    p_est.add_argument("--points", required=True, help="CSV of evaluation points")

    p_theory = sub.add_parser("theory", help="expansion report for a model and profile")
    p_theory.add_argument("--config", required=True, help="JSON config file")

    p_verify = sub.add_parser("verify", help="Monte Carlo verification run")
    p_verify.add_argument("--config", required=True, help="JSON experiment file")

    p_sums = sub.add_parser("sums", help="lattice-sum diagnostic tables")
    p_sums.add_argument("--profile", required=True, help="JSON profile file")
    p_sums.add_argument("--m-grid", required=True, help="comma-separated bandwidths")

    p_mom = sub.add_parser("moments", help="closed-form vs enumerated central moments")
    p_mom.add_argument("--d", type=int, required=True)
    p_mom.add_argument("--m", type=int, required=True)
    p_mom.add_argument("--x", required=True, help="comma-separated coordinates")
    p_mom.add_argument("--indices", required=True, help="comma-separated 1-based indices")
    return parser


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str, flag: str) -> list[int]:
    values = _parse_floats(text, flag)
    out = [int(v) for v in values]
    if any(o != v for o, v in zip(out, values)):
        raise ValidationError(f"{flag}: expected integers, got {text!r}")
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {cfg!r}")
    return cfg


def _colored(text: str, ok: bool, stream) -> str:
    if os.environ.get("NO_COLOR") or not stream.isatty():
        return text
    code = "32" if ok else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _cmd_estimate(args: argparse.Namespace) -> int:
    data = Dataset.from_csv(args.data)
    points = Dataset.from_csv(args.points, d=data.d)
    if args.m < 1:
        raise ValidationError("--m: bandwidth must be >= 1")
    writer = csv.writer(sys.stdout)
    writer.writerow([f"x{i + 1}" for i in range(data.d)] + ["estimate"])
    if args.kind == "density":
        counts = histogram_counts(data, args.m)
        values = [density_from_counts(counts, data.n, row) for row in points.points]
    else:
        values = bernstein_cdf_many(data, args.m, points.points)
    for row, value in zip(points.points, values):
        writer.writerow([repr(float(c)) for c in row] + [repr(float(value))])
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    for key in ("model", "profile", "m", "n"):
        if key not in cfg:
            raise ValidationError(f"theory config is missing {key!r}")
    params = model_spec(cfg["model"])
    model = build_model(str(params.pop("name", "")), params)
    profile = BoundaryProfile.from_dict(cfg["profile"])
    estimator = cfg.get("estimator", "density")
    try:
        m, n = float(cfg["m"]), float(cfg["n"])
    except (TypeError, ValueError):
        raise ValidationError(
            f"theory config: 'm' and 'n' must be numbers, got {cfg['m']!r} and {cfg['n']!r}"
        ) from None
    if estimator == "density":
        if cfg.get("shoulder", False):
            report = density_mse_shoulder(model, profile, m, n)
        else:
            report = density_mse(model, profile, m, n)
    elif estimator == "cdf":
        report = cdf_mse(model, profile, m, n)
    else:
        raise ValidationError(f"estimator must be 'density' or 'cdf', got {estimator!r}")
    print(report.to_json())
    return 0


def _cmd_verify(args: argparse.Namespace, threads: int) -> int:
    experiment = Experiment.from_dict(_load_json(args.config))
    result = run_experiment(experiment, threads=threads)
    write_mc_csv(result, sys.stdout)
    ok, lines = band_summary(result)
    for line in lines:
        print(line, file=sys.stderr)
    verdict = "PASS" if ok else "FAIL"
    print(_colored(f"overall: {verdict} (3-SE bands)", ok, sys.stderr), file=sys.stderr)
    return 0


def _cmd_sums(args: argparse.Namespace) -> int:
    profile = BoundaryProfile.from_dict(_load_json(args.profile))
    m_grid = _parse_ints(args.m_grid, "--m-grid")
    if not m_grid:
        raise ValidationError("--m-grid: need at least one bandwidth")
    rows = pmf_square_diagnostics(profile, m_grid)
    for p in range(1, profile.d + 1):
        if profile.boundary.get(p) == 0.0:
            continue  # realizes to an exact-zero coordinate; no coupling sum there
        rows.extend(min_coupling_diagnostics(profile, p, m_grid))
    write_diagnostics_csv(rows, sys.stdout)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    x = _parse_floats(args.x, "--x")
    if len(x) != args.d:
        raise ValidationError(f"--x: expected {args.d} coordinates, got {len(x)}")
    indices = _parse_ints(args.indices, "--indices")
    query = MomentQuery(m=args.m, x=SimplexPoint.of(x), indices=tuple(indices))
    brute = central_moment_bruteforce(query)
    writer = csv.writer(sys.stdout)
    writer.writerow(["analytic", "bruteforce", "abs_diff"])
    if len(indices) <= 3:
        analytic = central_moment_analytic(query)
        writer.writerow([repr(analytic), repr(brute), repr(abs(analytic - brute))])
    else:
        writer.writerow(["", repr(brute), ""])
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "theory":
            return _cmd_theory(args)
        if args.command == "verify":
            return _cmd_verify(args, args.threads)
        if args.command == "sums":
            return _cmd_sums(args)
        if args.command == "moments":
            return _cmd_moments(args)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
