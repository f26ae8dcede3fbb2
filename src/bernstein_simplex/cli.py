"""Command-line surface: estimates, theory reports, verification runs, tables.

Subcommands
-----------
estimate : per-point estimator values for a dataset, as CSV on stdout
theory   : expansion report (bias/variance/mse/optimal bandwidth) as JSON
verify   : Monte Carlo run with a 3-standard-error pass/fail summary
sums     : exact-vs-predicted lattice-sum diagnostics as CSV
moments  : closed-form vs exact central moments (orders 2-4)

Validation problems exit with code 1 (naming the offending flag or row),
lattice-size refusals with code 2.  CSV goes to stdout; the verify summary
goes to stderr so the CSV stream stays machine-readable.  A CSV cell is an
int or a string as it is, or any other number as repr(float(v)).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import numbers
import os
import sys
from typing import Iterable, Sequence

from .asymptotics import BoundaryProfile, cdf_mse, density_mse, density_mse_shoulder
from .errors import SizeLimitError, ValidationError, _as_int, _check_mn
from .estimators import Dataset, bernstein_cdf_many, bernstein_density_many
from .lattice_sums import min_coupling_diagnostics, pmf_square_diagnostics
from .moments import MomentQuery, central_moment_analytic, central_moment_bruteforce
from .montecarlo import _BAND_WIDTH, Experiment, McRow, _check_kind, band_summary, build_model, model_spec, run_experiment
from .simplex import SimplexPoint


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise ValidationError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="bernstein-simplex", description=__doc__)
    parser.add_argument("--threads", type=int, help="worker threads for replicate loops (default: one per CPU)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="evaluate an estimator on a dataset")
    p_est.add_argument("--data", required=True, help="CSV of observations, one row each")
    p_est.add_argument("--m", type=int, required=True, help="bandwidth (polynomial order)")
    p_est.add_argument("--kind", choices=("density", "cdf"), required=True)
    p_est.add_argument("--points", required=True, help="CSV of evaluation points")
    p_est.set_defaults(run=_cmd_estimate)

    p_theory = sub.add_parser("theory", help="expansion report for a model and profile")
    p_theory.add_argument("--config", required=True, help="JSON config file")
    p_theory.set_defaults(run=_cmd_theory)

    p_verify = sub.add_parser("verify", help="Monte Carlo verification run")
    p_verify.add_argument("--config", required=True, help="JSON experiment file")
    p_verify.set_defaults(run=_cmd_verify)

    p_sums = sub.add_parser("sums", help="lattice-sum diagnostic tables")
    p_sums.add_argument("--profile", required=True, help="JSON profile file")
    p_sums.add_argument("--m-grid", required=True, help="comma-separated bandwidths")
    p_sums.set_defaults(run=_cmd_sums)

    p_mom = sub.add_parser("moments", help="closed-form vs exact central moments of orders 2-4, the exact ones by a Poisson convolution fold")
    p_mom.add_argument("--d", type=int, required=True)
    p_mom.add_argument("--m", type=int, required=True)
    p_mom.add_argument("--x", required=True, help="comma-separated coordinates")
    p_mom.add_argument("--indices", required=True, help="comma-separated 1-based indices")
    p_mom.set_defaults(run=_cmd_moments)
    return parser


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str, flag: str) -> list[int]:
    return [_as_int(v, f"each value of {flag}") for v in _parse_floats(text, flag)]


@contextlib.contextmanager
def _reading(flag: str, path: str):
    """Report a file named by ``flag`` that cannot be opened or decoded as a ValidationError."""
    try:
        yield
    except FileNotFoundError:
        raise ValidationError(f"{flag}: file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{flag}: cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_json(flag: str, path: str) -> dict:
    try:
        with _reading(flag, path), open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {cfg!r}")
    return cfg


def _write_rows(header: Sequence[str], rows: Iterable[Iterable[object]]) -> None:
    """CSV to stdout: ints and strings as they are, every other number as ``repr(float(v))``."""
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, (numbers.Integral, str)) else repr(float(v)) for v in row] for row in rows)


def _colored(text: str, ok: bool, stream) -> str:
    if os.environ.get("NO_COLOR") or not stream.isatty():
        return text
    code = "32" if ok else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _cmd_estimate(args: argparse.Namespace) -> int:
    with _reading("--data", args.data):
        data = Dataset.from_csv(args.data)
    with _reading("--points", args.points):
        points = Dataset.from_csv(args.points, d=data.d)
    estimate = bernstein_density_many if args.kind == "density" else bernstein_cdf_many
    values = estimate(data, args.m, points)
    header = [f"x{i + 1}" for i in range(data.d)] + ["estimate"]
    _write_rows(header, ([*row, value] for row, value in zip(points.points, values)))
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    cfg = _load_json("--config", args.config)
    for key in ("model", "profile", "m", "n"):
        if key not in cfg:
            raise ValidationError(f"theory config is missing {key!r}")
    model = build_model(*model_spec(cfg["model"]))
    profile = BoundaryProfile.from_dict(cfg["profile"])
    estimator = cfg.get("estimator", "density")
    _check_kind(estimator, "config field 'estimator'")
    _check_mn(cfg["m"], cfg["n"])
    shoulder = cfg.get("shoulder", False)
    if not isinstance(shoulder, bool) or shoulder and estimator == "cdf":  # the reduced-bias report is the density's
        rule = "false for the cdf estimator" if isinstance(shoulder, bool) else "true or false"
        raise ValidationError(f"config field 'shoulder' must be {rule}, got {shoulder!r}")
    m, n = float(cfg["m"]), float(cfg["n"])
    if estimator == "cdf":
        report = cdf_mse(model, profile, m, n)
    elif shoulder:
        report = density_mse_shoulder(model, profile, m, n)
    else:
        report = density_mse(model, profile, m, n)
    print(report.to_json())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    experiment = Experiment.from_dict(_load_json("--config", args.config))
    result = run_experiment(experiment, threads=args.threads)
    columns = [f.name for f in dataclasses.fields(McRow)]
    _write_rows(columns, ([getattr(row, name) for name in columns] for row in result.rows))
    ok, lines = band_summary(result)
    for line in lines:
        print(line, file=sys.stderr)
    verdict = "PASS" if ok else "FAIL"
    print(_colored(f"overall: {verdict} ({_BAND_WIDTH}-SE bands)", ok, sys.stderr), file=sys.stderr)
    return 0


def _cmd_sums(args: argparse.Namespace) -> int:
    profile = BoundaryProfile.from_dict(_load_json("--profile", args.profile))
    m_grid = _parse_ints(args.m_grid, "--m-grid")
    if not m_grid:
        raise ValidationError("--m-grid: need at least one bandwidth")
    rows = pmf_square_diagnostics(profile, m_grid)
    for p in range(1, profile.d + 1):
        if profile.boundary.get(p) == 0.0:
            continue  # realizes to an exact-zero coordinate; no coupling sum there
        rows.extend(min_coupling_diagnostics(profile, p, m_grid))
    columns = ["quantity", "m", "scaled_exact", "prediction", "rel_gap"]
    _write_rows(columns, ([getattr(row, name) for name in columns] for row in rows))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    x = _parse_floats(args.x, "--x")
    if len(x) != args.d:
        raise ValidationError(f"--x: expected {args.d} coordinates, got {len(x)}")
    indices = _parse_ints(args.indices, "--indices")
    query = MomentQuery(m=args.m, x=SimplexPoint.of(x), indices=tuple(indices))
    analytic, brute = central_moment_analytic(query), central_moment_bruteforce(query)
    _write_rows(["analytic", "bruteforce", "abs_diff"], [[analytic, brute, abs(analytic - brute)]])
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads is not None:
            _as_int(args.threads, "--threads", least=1)
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
