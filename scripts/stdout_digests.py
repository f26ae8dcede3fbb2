"""Digests of what the CLI prints for round 0 of every benchmark workload, to compare two checkouts.

Run from anywhere, with the checkout to measure given by ``--root``
(default: the checkout this script is in):

    python3 scripts/stdout_digests.py --root /path/to/checkout

For each workload in ``bench/workloads.py`` and each seed 1, 2 and 3, the
workload writes its inputs to a temporary directory and the calls of its
round 0 run through ``bernstein_simplex.cli.main`` in this process.  The
first line names the package directory that ran.  Then one line per call
gives the exit code (or the exception a crash raised) and the SHA-256 of
stdout and of stderr, and the last line is the SHA-256 over those call
lines.  Two checkouts print the same last line exactly when every call
exited the same way and printed the same bytes.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    root = os.path.abspath(parser.parse_args(argv).root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread, as in bench/run.py, so reductions keep one order
    from bernstein_simplex import cli
    from workloads import WORKLOADS

    print(f"package {os.path.dirname(cli.__file__)}")  # not part of the digest
    sha = lambda stream: hashlib.sha256(stream.getvalue().encode()).hexdigest()  # noqa: E731
    lines = []
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
                    lines.append(f"{name} seed={seed} call={index} exit={code} stdout={sha(out)} stderr={sha(err)}")
                    print(lines[-1], flush=True)
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
