"""Paper-suite benchmark for structbandit.

Run from the repository root:

    python3 perfbench/run.py --workload fig3a-desk --seed 0 --seconds 28 --trace 0

It imports structbandit from ./src, drives the `structbandit` CLI in-process
and prints, as its last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` measures the
end-to-end metrics of BENCHMARK.json; `--trace 1` measures its per-layer
metrics in a separate traced run.  Lines before the last start with `#`
and log the host, the spread of each metric over this run's repetitions,
and the output digests.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "digests.json"
DEFAULT_SEED = 0
MIN_REPS = 3
MIN_TRACED_PASSES = 2
MODULES = ("cli", "algorithms", "gaps", "simulation", "structures", "theory")


def fresh_import() -> dict:
    """Import structbandit from ./src anew, so no state survives a repetition."""
    for name in [n for n in sys.modules if n == "structbandit" or n.startswith("structbandit.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"structbandit.{name}") for name in MODULES}
    where = Path(modules["cli"].__file__).resolve().parent
    if where != SRC / "structbandit":
        raise RuntimeError(f"imported structbandit from {where}, not from {SRC}")
    return modules


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def calibrate() -> float:
    """A fixed pure-Python loop, in ms; logged to tell host drift from program change."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def set_up(workload, seed: int, scale: str, tag: str):
    """Fresh work directory (untimed), then import and input files (timed)."""
    # frees the previous repetition's modules and results, so peak memory
    # does not grow with the number of repetitions
    gc.collect()
    directory = WORK / workload.name / tag
    os.chdir(ROOT)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    os.chdir(directory)
    start = time.perf_counter()
    modules = fresh_import()
    ops = workload.prepare(modules["cli"], seed, scale)
    return time.perf_counter() - start, modules, ops


def execute(modules: dict, ops: list) -> tuple[float, float, list]:
    """Time the ops back to back; return wall, CPU and per-op
    (exit code, stdout, batches written)."""
    cli = modules["cli"]
    write_batch = cli.write_batch
    batches: list = []

    def capture(out_dir, batch):
        batches.append(batch)
        return write_batch(out_dir, batch)

    cli.write_batch = capture
    results = []
    try:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        for op in ops:
            first = len(batches)
            code, stdout = wl.call(cli, op.argv)
            results.append((code, stdout, batches[first:]))
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    finally:
        cli.write_batch = write_batch
    return wall, cpu, results


class Checker:
    """Counts attempted and failed ops.  An op fails on a nonzero exit, a
    broken invariant, or a digest that differs from the first repetition's
    or, for the default seed, from the pinned one."""

    def __init__(self, pinned: dict | None) -> None:
        self.pinned = pinned
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ops: list, results: list) -> None:
        for op, (code, stdout, batches) in zip(ops, results):
            self.attempted += 1
            errors = []
            if code != 0:
                errors.append(f"exit code {code}")
            else:
                try:
                    digests = wl.digest_op(op, stdout)
                except OSError as exc:
                    errors.append(f"missing output: {exc}")
                    digests = {}
                for batch in batches:
                    errors.extend(wl.check_batch(batch))
                for key, value in digests.items():
                    expected = self.reference.setdefault(key, value)
                    if value != expected:
                        errors.append(f"{key} differs from the first repetition")
                    if self.pinned is not None and self.pinned.get(key) != value:
                        errors.append(f"{key} differs from the pinned digest")
            if errors:
                self.failed += 1
                self.errors.extend(f"{op.label}: {e}" for e in errors)

    def finish(self) -> None:
        if self.pinned is not None and set(self.pinned) != set(self.reference):
            self.failed += 1
            self.errors.append("output file set differs from the pinned one")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def log(tag: str, value) -> None:
    print(f"# {tag} {json.dumps(value, sort_keys=True)}", flush=True)


def untraced(workload, args, checker: Checker, units: dict) -> dict:
    samples: dict[str, list[float]] = {
        "setup_s": [], "wall_s": [], "cpu_s": [], "calibration_ms": []}
    start = time.perf_counter()
    while len(samples["wall_s"]) < MIN_REPS or time.perf_counter() - start < args.seconds:
        samples["calibration_ms"].append(calibrate())
        setup, modules, ops = set_up(workload, args.seed, args.scale, "rep")
        wall, cpu, results = execute(modules, ops)
        checker.check(ops, results)
        samples["setup_s"].append(setup)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mib()
    log("host", host_info(samples["calibration_ms"]))
    log("spread", {name: spread(values) for name, values in samples.items()})
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def traced_pass(workload, args, checker: Checker) -> dict:
    """One traced execution, right after an untraced one of the same ops; a
    parallel workload adds a traced one-worker rerun.

    The wrapper costs and the untraced wall time are measured next to each
    pass, because they move with the host as much as the program does."""
    costs = spans.wrapper_costs()
    _, modules, ops = set_up(workload, args.seed, args.scale, "untraced")
    untraced_wall, _, results = execute(modules, ops)
    checker.check(ops, results)
    _, modules, ops = set_up(workload, args.seed, args.scale, "traced")
    main = spans.Tracer()
    main.install(modules)
    wall, _, results = execute(modules, ops)
    checker.check(ops, results)
    step, step_wall = main, wall
    if workload.workers > 1:
        modules = fresh_import()
        step = spans.Tracer()
        step.install(modules)
        rerun = [workload.op(1, "out_w1")]
        step_wall, _, results = execute(modules, rerun)
        checker.check(rerun, results)
    speedup = step_wall / wall if step is not main else 0.0
    return {"wall": wall, "untraced_wall": untraced_wall, "main": main, "step": step,
            "costs": costs, "metrics": layer_metrics(main, step, costs, speedup)}


def exact_counts(tracer: spans.Tracer) -> dict:
    calls = {name: row[0] for name, row in tracer.self_times(0.0).items()}
    calls.update((name, row[0]) for name, row in tracer.bucket_totals().items()
                 if name != spans.BOOKKEEPING)
    return {"counts": dict(tracer.counts), "calls": calls}


def layer_metrics(main: spans.Tracer, step: spans.Tracer, costs: tuple[float, float],
                  speedup: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Per-step layers come from
    `step`, the tracer whose calls ran every simulated step in this process.
    Per-call times exclude the timer cost measured inside a wrapped no-op."""
    inside_ns, outside_ns = costs
    spans_main = main.self_times(outside_ns)
    spans_step = step.self_times(outside_ns)
    buckets = step.bucket_totals()

    def per_call(table, name, ns_per_unit, overhead_ns=0.0):
        calls, total = table.get(name, (0, 0))[:2]
        return (total / calls - overhead_ns) / ns_per_unit if calls else 0.0

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    out = {"algorithms.Environment.pull_us":
           per_call(buckets, "algorithms.Environment.pull", 1e3, inside_ns)}
    for tag in ("sae", "asae", "sucb", "ucb1"):
        for method in ("select", "observe"):
            out[f"algorithms.{tag}.{method}_us"] = per_call(
                buckets, f"algorithms.{tag}.{method}", 1e3, inside_ns)
    counts = step.counts
    steps = counts["algorithms.steps"]
    out["algorithms.simulate.self_us"] = ratio(
        spans_step.get("algorithms.simulate", (0, 0, 0))[2] / 1e3, steps)
    out["algorithms.steps"] = steps
    out["algorithms.sae.phases"] = counts["algorithms.sae.phases"]
    out["algorithms.asae.phases"] = counts["algorithms.asae.phases"]
    out["algorithms.sucb.set_change_ratio"] = ratio(
        counts["algorithms.sucb.set_changes"], counts["algorithms.sucb.steps"])
    out["algorithms.elim.settled_share"] = ratio(
        counts["algorithms.elim.settled_steps"], counts["algorithms.elim.steps"])
    out["simulation.run_batch.self_s"] = sum(
        spans_step.get(name, (0, 0, 0))[2] for name in
        ("simulation.run_batch", "simulation.run_randomized_batch")) / 1e9
    out["simulation.dispatch.tasks"] = main.counts["simulation.dispatch.tasks"]
    out["simulation.dispatch.pickled_bytes"] = main.counts["simulation.dispatch.pickled_bytes"]
    out["simulation.parallel_speedup"] = speedup
    out["simulation.write_batch_s"] = spans_main.get("simulation.write_batch", (0, 0))[1] / 1e9
    out["simulation.write_batch_bytes"] = main.counts["simulation.write_batch_bytes"]
    out["structures.generate_random_ms"] = per_call(spans_main, "structures.generate_random", 1e6)
    out["structures.generate_serial_share"] = ratio(
        spans_main.get("structures.generate_random", (0, 0))[1],
        spans_main.get("simulation.run_randomized_batch", (0, 0))[1])
    out["structures.load_structure_ms"] = per_call(spans_main, "structures.load_structure", 1e6)
    for name in ("deterministic_sequences", "sae_bound", "asae_bound", "asae_constant_bound",
                 "sucb_bound", "ucb_reference_bound"):
        out[f"theory.{name}_ms"] = per_call(spans_main, f"theory.{name}", 1e6)
    out["gaps.classify_ms"] = per_call(spans_main, "gaps.classify", 1e6)
    out["gaps.psi.calls"] = main.counts["gaps.psi"]
    out["gaps.model_gap.calls"] = main.counts["gaps.model_gap"]
    out["cli.self_s"] = spans_main.get("cli.main", (0, 0, 0))[2] / 1e9
    return out


def traced(workload, args, checker: Checker, units: dict) -> tuple[dict, bool]:
    calibration = []
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - start < args.seconds:
        calibration.append(calibrate())
        passes.append(traced_pass(workload, args, checker))
    counts = [(exact_counts(p["main"]), exact_counts(p["step"])) for p in passes]
    steady = all(c == counts[0] for c in counts)
    if not steady:
        checker.errors.append("exact counts differ between traced passes")
    metrics = {name: statistics.median(p["metrics"][name] for p in passes)
               for name in passes[0]["metrics"]}
    metrics["trace.overhead_ratio"] = statistics.median(
        p["wall"] / p["untraced_wall"] for p in passes)
    log("host", host_info(calibration))
    log("untraced_wall_s", [p["untraced_wall"] for p in passes])
    log("wrapper_costs_ns", {"inside": [p["costs"][0] for p in passes],
                             "outside": [p["costs"][1] for p in passes]})
    report_self_times(passes[-1])
    write_trace(workload, passes)
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, steady


def report_self_times(last: dict) -> None:
    """Log each layer's calls, total and self time for the last traced pass."""
    rows = {}
    tracers = [("", last["main"])]
    if last["step"] is not last["main"]:
        tracers.append(("w1:", last["step"]))
    for label, tracer in tracers:
        for name, (calls, total, own) in sorted(tracer.self_times(last["costs"][1]).items()):
            rows[label + name] = {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
        for name, (calls, total) in sorted(tracer.bucket_totals().items()):
            rows[label + name] = {"calls": calls, "total_s": total / 1e9}
    log("self_times", rows)


def write_trace(workload, passes: list) -> None:
    """Write every pass's spans, buckets and counts once the run has ended."""
    path = WORK / workload.name / "trace.json"
    document = {"workload": workload.name, "passes": [
        {"wall_s": p["wall"], "wrapper_costs_ns": p["costs"], "main": p["main"].dump(),
         "one_worker_rerun": None if p["step"] is p["main"] else p["step"].dump()}
        for p in passes]}
    with open(path, "w") as handle:
        json.dump(document, handle)
    log("trace_file", os.path.relpath(path, ROOT))


def host_info(calibration: list[float]) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "calibration_ms": statistics.median(calibration),
            "calibration_runs": len(calibration)}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests as the pinned ones (default seed, full scale)")
    args = parser.parse_args(argv)
    if not (SRC / "structbandit" / "__init__.py").is_file():
        print(f"error: no structbandit sources under {SRC}", file=sys.stderr)
        return 2
    if args.pin and (args.seed != DEFAULT_SEED or args.scale != "full" or args.trace):
        print("error: --pin needs the default seed, full scale and --trace 0", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  -- a dependency, loaded before any timed set-up

    workload = wl.WORKLOADS[args.workload]
    pins = {}
    if PINNED.exists():
        with open(PINNED) as handle:
            pins = json.load(handle)
    pinned = None
    if args.seed == DEFAULT_SEED and args.scale == "full" and not args.pin:
        pinned = pins.get(workload.name)
    checker = Checker(pinned)
    steady = True
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
            metrics, steady = traced(workload, args, checker, units)
        else:
            units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
            metrics = untraced(workload, args, checker, units)
    finally:
        os.chdir(ROOT)
    checker.finish()
    log("failed_frac", checker.failed / checker.attempted)
    log("digests", {"seed": args.seed, "scale": args.scale,
                    "pinned": ("not pinned for this seed" if pinned is None else
                               "match" if pinned == checker.reference else "MISMATCH"),
                    "files": checker.reference})
    if checker.errors:
        log("errors", checker.errors[:20])
    if args.pin:
        if checker.failed:
            print("error: not pinning the digests of a run with failed operations",
                  file=sys.stderr)
            return 1
        pins[workload.name] = checker.reference
        with open(PINNED, "w") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": checker.failed == 0 and steady, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
