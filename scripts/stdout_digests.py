"""Digests of what the CLI prints for round 0 of every benchmark workload, to compare two checkouts.

Run from anywhere, with the checkout to measure given by ``--root``
(default: the checkout this script is in).  ``--root`` and ``--compare``
take the path of a checkout, a directory holding
``src/bernstein_simplex``; any other path exits 2 with an ``error:`` line:

    python3 scripts/stdout_digests.py --root /path/to/checkout
    python3 scripts/stdout_digests.py --compare /path/to/parent

For each workload in ``bench/workloads.py`` and each seed 1, 2 and 3, the
workload writes its inputs to a temporary directory and the calls of its
round 0 run through ``bernstein_simplex.cli.main`` in this process.  The
first line names the package directory that ran.  Then one line per call
gives the exit code (or the exception a crash raised) and the SHA-256 of
stdout and of stderr, and the last line is the SHA-256 over those call
lines.  Two checkouts print the same last line exactly when every call
exited the same way and printed the same bytes.

``--compare OTHER`` runs ``--root`` and ``OTHER`` each in a child process
and prints one line per call whose output differs: for stdout, per column
(a CSV column, or the path of a number in a JSON document), the largest
relative difference among its numeric cells and the row it is in.  The
last line counts the calls that are identical.  It exits 0 when every
call is, 1 when any call differs in exit code, stdout or stderr, or
the two checkouts make different numbers of calls, and 2 with an
``error:`` line when either checkout fails to run at all.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile


def _run_calls(root: str):
    """``(label, exit code, stdout, stderr)`` for round 0 of every workload and seed, run in this process."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread, as in bench/run.py, so reductions keep one order
    from bernstein_simplex import cli
    from workloads import WORKLOADS

    print(f"package {os.path.dirname(cli.__file__)}", flush=True)  # not part of the digest
    for name, workload_type in WORKLOADS.items():
        for seed in (1, 2, 3):
            with tempfile.TemporaryDirectory() as workdir:
                workload = workload_type(workdir, seed)
                workload.setup()
                for index, call in enumerate(workload.round_calls(0)):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(call)
                        except Exception as exc:  # a crash is an outcome to compare, not a reason to stop
                            code = type(exc).__name__
                    yield f"{name} seed={seed} call={index}", code, out.getvalue(), err.getvalue()


def _cells(text: str) -> list[tuple[str, str, str]]:
    """``(row, column, text)`` for every cell: the leaves of a JSON document by path, else the cells of a CSV table."""
    try:
        doc = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return [(f"row {r}", header[c] if c < len(header) else str(c), cell)
                for r, row in enumerate(rows) for c, cell in enumerate(row)]
    leaves, stack = [], [("", doc)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            stack.extend((f"{path}/{key}", value) for key, value in items)
        else:
            leaves.append(("", path, json.dumps(node)))
    return sorted(leaves)


def _relative_difference(a: str, b: str) -> float | None:
    """``|a - b| / max(|a|, |b|)`` of two numeric cells, 0 when equal, or None when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _stdout_difference(old: str, new: str) -> str:
    """How ``new`` differs from ``old``: per column, the largest relative difference of a numeric cell, or the shape."""
    old_cells, new_cells = _cells(old), _cells(new)
    if [cell[:2] for cell in old_cells] != [cell[:2] for cell in new_cells]:
        return "stdout differs in shape"
    worst: dict[str, tuple[float, str]] = {}
    for (row, column, a), (_, _, b) in zip(old_cells, new_cells):
        if a == b:
            continue
        rel = _relative_difference(a, b)
        if rel is None:
            return f"stdout differs in text at {row} {column}: {a!r} -> {b!r}"
        worst[column] = max(worst.get(column, (0.0, "")), (rel, row))
    return "largest relative difference " + ", ".join(
        f"{column} {rel:.3g}" + (f" ({row})" if row else "") for column, (rel, row) in worst.items())


def _compare(root: str, other: str) -> int:
    """Run both checkouts in child processes and print each call whose exit code or output differs."""
    script = os.path.abspath(__file__)
    runs = []
    for checkout in (other, root):
        child = subprocess.run([sys.executable, script, "--root", checkout, "--dump"], capture_output=True, text=True)
        if child.returncode:
            last = child.stderr.strip().splitlines()[-1:] or [f"exit status {child.returncode}"]
            print(f"error: the run of {checkout} failed: {last[0]}", file=sys.stderr)
            return 2
        dump = child.stdout.splitlines()
        print(dump[0], flush=True)
        runs.append([json.loads(line) for line in dump[1:]])
    same = 0
    for old, new in zip(*runs):
        notes = []
        if old["exit"] != new["exit"]:
            notes.append(f"exit {old['exit']} -> {new['exit']}")
        if old["stdout"] != new["stdout"]:
            notes.append(_stdout_difference(old["stdout"], new["stdout"]))
        if old["stderr"] != new["stderr"]:
            notes.append("stderr differs")
        if notes:
            print(f"{new['call']}: " + "; ".join(notes), flush=True)
        else:
            same += 1
    print(f"identical {same} of {len(runs[1])} calls ({len(runs[0])} at {other})")
    return 0 if same == len(runs[0]) == len(runs[1]) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--compare", metavar="OTHER", help="another checkout to compare --root with, call by call")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)  # JSON per call, for --compare
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    for flag, checkout in (("--root", root), ("--compare", args.compare)):
        src = checkout and os.path.join(os.path.abspath(checkout), "src")
        if src and not os.path.isfile(os.path.join(src, "bernstein_simplex", "__init__.py")):
            print(f"error: no package source under {src}; {flag} takes the path of a checkout", file=sys.stderr)
            return 2
    if args.compare:
        return _compare(root, os.path.abspath(args.compare))
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    lines = []
    for label, code, out, err in _run_calls(root):
        if args.dump:
            print(json.dumps({"call": label, "exit": code, "stdout": out, "stderr": err}), flush=True)
            continue
        lines.append(f"{label} exit={code} stdout={sha(out)} stderr={sha(err)}")
        print(lines[-1], flush=True)
    if not args.dump:
        print(f"all {sha(chr(10).join(lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
