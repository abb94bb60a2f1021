"""The four paper-suite workloads: inputs made from the seed, the CLI calls
that are timed, and the checks on what those calls write.

Every workload is an offline batch driven by one closed-loop client: the
next CLI call starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass


# The paper-suite agents (`paper-suite` builds the same four configs).
def _suite_agents(eta: float) -> list[dict]:
    return [
        {"algorithm": "sae", "alpha": 2.0, "beta": 1.0},
        {"algorithm": "asae", "alpha": 2.0, "beta": 1.0, "eta": eta},
        {"algorithm": "sucb", "alpha": 2.0},
        {"algorithm": "ucb1", "alpha": 2.0},
    ]


@dataclass(frozen=True)
class Op:
    """One CLI call. Its digest covers every file under `outputs` (a file or
    a directory) and, when `stdout` is set, what the call printed."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    stdout: bool = False


def call(cli, argv) -> tuple[int, str]:
    """Run `structbandit <argv>` in-process; return exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


@dataclass(frozen=True)
class RunWorkload:
    """`structbandit run` on one config; the paper-suite figure batches."""

    name: str
    structure: dict
    agents: tuple
    horizon: int
    runs: int
    workers: int
    fresh: bool = False

    def prepare(self, cli, seed: int, scale: str) -> list[Op]:
        config = {
            "horizon": self.horizon if scale == "full" else 200,
            "runs": self.runs if scale == "full" else 2,
            "base_seed": seed,
            "agents": list(self.agents),
            "structure": self.structure,
        }
        if self.fresh:
            config["fresh_structure_per_run"] = True
        with open("config.json", "w") as handle:
            json.dump(config, handle, indent=1)
        return [self.op(self.workers)]

    def op(self, workers: int, out: str = "out") -> Op:
        return Op("run", ("run", "--config", "config.json", "--out", out,
                          "--workers", str(workers)), (out,))


@dataclass(frozen=True)
class TheoryWorkload:
    """`structbandit theory` plus `classify` over saved random structures."""

    name: str
    structures: int
    workers: int = 1

    def prepare(self, cli, seed: int, scale: str) -> list[Op]:
        count = self.structures if scale == "full" else 1
        size = () if scale == "full" else ("--arms", "8", "--base-models", "10",
                                           "--hard-models", "5")
        ops = []
        for i in range(count):
            path = f"s{i}.json"
            code, _ = call(cli, ("gen", "--builder", "random", "--seed",
                                 str(generator_seed(seed, i)), "--out", path) + size)
            if code != 0:
                raise RuntimeError(f"structbandit gen failed with exit code {code}")
            common = ("--structure", path, "--n", "500000", "--alpha", "4", "--beta", "2")
            ops.append(Op(f"theory[{i}]", ("theory",) + common + (
                "--bound", "sae", "--bound", "asae", "--bound", "const",
                "--bound", "sucb", "--bound", "ucb", "--sequences",
                "--out", f"theory{i}.json"), (f"theory{i}.json",)))
            ops.append(Op(f"classify[{i}]", ("classify",) + common, (), True))
        return ops


def generator_seed(seed: int, index: int) -> int:
    """Seed of the index-th theory structure, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:theory:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# Why each workload is here: README.md and the `why` lines of BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    RunWorkload(
        "fig3a-desk",
        structure={"builder": "figure_left"}, agents=tuple(_suite_agents(0.1)),
        horizon=10_000, runs=4, workers=1),
    RunWorkload(
        "fig3c-elim",
        structure={"builder": "figure_right"},
        agents=tuple(a for a in _suite_agents(0.01) if a["algorithm"] in ("sae", "asae")),
        horizon=500_000, runs=2, workers=1),
    RunWorkload(
        "fig3d-random",
        structure={"builder": "random"}, agents=tuple(_suite_agents(0.1)),
        horizon=10_000, runs=8, workers=2, fresh=True),
    TheoryWorkload(
        "theory-random",
        structures=10),
)}


def digest_op(op: Op, stdout: str) -> dict[str, str]:
    """sha256 of every output file of `op` (and of its stdout if digested)."""
    files = {}
    for path in op.outputs:
        if os.path.isdir(path):
            # keyed by file name alone, so a rerun into another directory
            # (the one-worker rerun) yields the same keys
            files.update((name, os.path.join(path, name)) for name in sorted(os.listdir(path)))
        else:
            files[path] = path
    digests = {}
    for key, path in files.items():
        with open(path, "rb") as handle:
            digests[f"{op.label}:{key}"] = hashlib.sha256(handle.read()).hexdigest()
    if op.stdout:
        digests[f"{op.label}:stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


def check_batch(batch) -> list[str]:
    """Seed-independent invariants of one batch written by `run`."""
    horizon = batch.config.horizon
    errors = []
    for tag, runs in batch.runs.items():
        for index, run in enumerate(runs):
            if sum(run.pull_counts) != horizon:
                errors.append(f"{tag} run {index}: pull counts sum to "
                              f"{sum(run.pull_counts)}, not {horizon}")
            if any(b < a for a, b in zip(run.regret, run.regret[1:])):
                errors.append(f"{tag} run {index}: regret decreases")
        total = sum(batch.aggregates[tag].mean_pulls)
        if abs(total - horizon) > 1e-9 * horizon:
            errors.append(f"{tag}: mean_pulls sum to {total!r}, not {horizon}")
    return errors
