"""Print every end-to-end metric of every workload by name and unit.

    python3 perfbench/report.py [--trace]

Runs perfbench/run.py once per workload of BENCHMARK.json, on the default
seed for run_seconds (in a child process each, so peak memory and imports
stay per workload), and prints one row per metric, then failed_frac and the
state of the pinned output digests.
`--trace` adds a traced run per workload and prints its per-layer metrics.
Exits 1 if any workload reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    logs = {}
    for line in lines[:-1]:
        tag, _, value = line[2:].partition(" ")
        logs[tag] = json.loads(value)
    return json.loads(lines[-1]), logs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    ok = True
    print(f"{'workload':15} {'metric':40} {'value':>16} unit")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            result, logs = run(workload, trace)
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload:15} {name:40} {metric['value']:16.10g} {metric['unit']}")
            if trace:
                continue
            digests = logs["digests"]
            print(f"{workload:15} {'failed_frac':40} {logs['failed_frac']:16.10g} ratio"
                  f"  ({result['failed']} of {result['attempted']} ops)")
            print(f"{workload:15} {'digests':40} {digests['pinned']:>16} "
                  f"({len(digests['files'])} files, seed {digests['seed']})")
            for error in logs.get("errors", []):
                print(f"{workload:15}   error: {error}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
