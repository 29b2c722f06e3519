"""The benchmark runs on this tree: one short run of each workload calls the
CLI as `perfbench/run.py` does, through the names, keywords and outputs its
checks read, and every call must pass them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["exact-clt", "limit-meander", "simulate"])
def test_benchmark_workload_is_correct(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
