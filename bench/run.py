"""Benchmark of the bernstein-simplex CLI: one workload per run, in-process.

Run from the root of a source checkout:

    python3 bench/run.py --workload estimate_d2 --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs, then calls ``bernstein_simplex.cli.main``
round after round, in this process and on this thread, until ``--seconds``
have passed; a round is always finished, so every run attempts whole rounds
of the same operations.  Only the CLI calls are timed, in process CPU
seconds: the load is one thread, so that is its wall time minus the time
the CPU was taken away from it (on the shared virtual machine of the
reference figures, hypervisor steal reached a third of the wall time).  After
each round every printed result row is checked (see ``workloads.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced rounds alternate
and the metrics are the per-layer ones (see ``README.md``).  Trace spans
and the result are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bernstein_simplex", "__init__.py")):
        print(f"error: no package source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    # one process, one thread: keep numerical libraries from starting pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from bernstein_simplex import cli

    from spans import Tracer
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"inputs-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, cli, WORKLOADS[args.workload](workdir, args.seed), Tally(), Tracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, workload, tally, tracer) -> int:
    workload.setup()
    setup_s = None
    times = {False: [], True: []}  # CPU seconds per round, untraced and traced
    started = None
    index = 0
    while started is None or time.perf_counter() - started < args.seconds or (args.trace and len(times[True]) == 0):
        traced = bool(args.trace) and index % 2 == 1
        calls = workload.round_calls(index)
        outputs, busy = [], 0.0
        if traced:
            tracer.install()
        try:
            for argv in calls:
                out, err = io.StringIO(), io.StringIO()
                if setup_s is None:
                    started = time.perf_counter()
                    setup_s = time.process_time()
                t0 = time.process_time()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                except Exception:  # a crash is a wrong result, and the run goes on
                    code = traceback.format_exc()
                busy += time.process_time() - t0
                tally.check(code == 0, f"{' '.join(argv)} exited with {code}: {err.getvalue().strip()[-300:]}")
                outputs.append(out.getvalue())
        finally:
            tracer.uninstall()
        times[traced].append(busy)
        workload.check_round(index, outputs, tally)
        index += 1

    if args.trace:
        metrics = _layer_metrics(tracer, len(times[True]), statistics.median(times[True]) - statistics.median(times[False]))
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "ops_per_s": {"value": tally.attempted / index / statistics.median(times[False]), "unit": "ops/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not tally.problems, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, round_cpu_s=times[False], traced_round_cpu_s=times[True], problems=tally.problems), fh)
    print(line)
    return 0


def _layer_metrics(tracer, rounds: int, overhead: float) -> dict[str, dict[str, float | str]]:
    """Per-layer figures per traced round (see README.md for what moves them)."""
    from spans import LAYERS

    own = tracer.self_times()
    count = tracer.counters
    passes = count["bin_passes"]
    rows = count["pmf_rows"]
    per_round = {
        "estimators.cdf_s": own.get("estimators:bernstein_cdf", 0.0),
        "estimators.ingest_s": tracer.inclusive({"Dataset.from_csv"}),
        "estimators.bin_s": tracer.inclusive({"histogram_counts"}),
        "estimators.density_s": own.get("estimators:bernstein_density", 0.0) + own.get("estimators:density_from_counts", 0.0),
        "estimators.validate_s": tracer.inclusive({"_validated_points"}),
        "montecarlo.sample_s": tracer.inclusive({"sample"}),
        "simplex.lattice_s": tracer.inclusive({"lattice_array", "lattice_points"}),
        "simplex.pmf_s": tracer.inclusive({"log_multinomial_pmf"}),
    }
    for layer in LAYERS:
        per_round[f"{layer}.self_s"] = own.get(layer, 0.0)
    metrics = {name: {"value": value / rounds, "unit": "s/round"} for name, value in per_round.items()}
    for name, key in (("estimators.bin_passes", "bin_passes"), ("estimators.binned_obs", "binned_obs"),
                      ("montecarlo.samples_drawn", "samples_drawn"), ("simplex.lattice_points", "lattice_points"),
                      ("simplex.pmf_rows", "pmf_rows"), ("bessel.terms", "bessel_terms")):
        metrics[name] = {"value": count[key] / rounds, "unit": "count/round"}
    # with no binning or no weights at all, nothing was wasted
    metrics["estimators.unique_bin_ratio"] = {"value": len(tracer.bin_keys) / passes if passes else 1.0, "unit": "ratio"}
    metrics["simplex.pmf_useful_ratio"] = {"value": count["pmf_useful"] / rows if rows else 1.0, "unit": "ratio"}
    metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s/round"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
