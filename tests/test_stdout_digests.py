"""The output-comparison script refuses a path that holds no package source instead of ending in a traceback."""

import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "stdout_digests.py"


@pytest.mark.parametrize("flag", ["--compare", "--root"])
def test_a_path_without_package_source_exits_2(tmp_path, flag):
    # "--compare HEAD" ended in a CalledProcessError traceback from the child process
    result = subprocess.run([sys.executable, str(SCRIPT), flag, str(tmp_path)], capture_output=True, text=True, timeout=60)
    src = tmp_path / "src"
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: no package source under {src}; {flag} takes the path of a checkout\n"


def test_a_checkout_that_fails_to_run_exits_2(tmp_path):
    # a child run that crashed ended in a CalledProcessError traceback, and its own error was not shown
    package = tmp_path / "src" / "bernstein_simplex"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise ImportError("this package does not import")\n')
    result = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: the run of {tmp_path} failed: ImportError: this package does not import\n"
