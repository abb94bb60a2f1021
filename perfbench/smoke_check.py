"""Smoke test for the benchmark: each workload, shrunk to a tiny size,
emits every metric of BENCHMARK.json; without ./src it refuses to run.

    python3 -m pytest -q perfbench/smoke_check.py

The file name does not match `test_*.py`, so the repository's own test run
does not collect it; name it on the command line as above.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_workload_emits_every_metric(workload, trace):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_without_program_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_benchmark(bare, "--workload", "fig3a-desk", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
