"""The benchmark's own unit tests pass against the library.

`perfbench/test_perfbench.py` builds `PredictionRecord`s and calls
`random_baseline`, `ensemble` and `write_solutions` directly, so a change
to those calls can break the benchmark while every other test passes. This
runs its suite as its README says, from the repository root, in a fresh
interpreter that writes no bytecode under `perfbench/`.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_unit_tests_pass():
    result = subprocess.run(
        [sys.executable, "-B", "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
