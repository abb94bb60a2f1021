"""Seeded batch experiments with Student-t aggregation.

Runs are the unit of parallelism, except that all UCB1 runs of a batch
step together in one lockstep task: run r of algorithm `a` always uses the
seed sha256(base_seed:a:r), so raw results are identical for any worker
count or algorithm ordering.  Tasks go out longest first (the UCB1 block,
then SUCB, ASAE and SAE runs) one at a time, and each worker receives the
batch's structures once, when it starts, so a task carries only run
indices.  Results never depend on this schedule: each goes back to its
(algorithm, run) slot, and aggregation is a deterministic fold in
run-index order.  Output CSVs hold regret trajectories and per-arm pull
counts with confidence half-widths; the manifest records everything needed
to reproduce them byte for byte (and deliberately nothing that would not
reproduce, such as timing).
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .algorithms import (AgentConfig, Environment, RunResult, make_agent, next_period_end,
                         simulate, simulate_ucb1)
from .gaps import Structure
from .structures import GeneratorSpec, generate_random, json_value

__all__ = [
    "AggregateResult", "BatchResult", "ExperimentConfig", "RunResult",
    "default_checkpoints", "regularized_incomplete_beta", "run_batch",
    "run_randomized_batch", "stream_seed", "student_t_quantile", "write_batch",
    "write_pulls_csv", "write_regret_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: a structure, some agents, and the run schedule."""

    structure: Structure
    agents: tuple[AgentConfig, ...]
    horizon: int
    runs: int = 100
    base_seed: int = 0
    checkpoints: tuple[int, ...] | None = None
    level: float = 0.95
    source: str = "inline"

    def __post_init__(self) -> None:
        for name in ("horizon", "runs", "base_seed"):
            json_value(getattr(self, name), "int", name)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.runs < 2:
            raise ValueError(f"need runs >= 2 for confidence intervals, got {self.runs}")
        if not (0.5 < self.level and 0.5 * (1.0 + self.level) < 1.0):  # the t quantile's p
            raise ValueError(f"level must be in (0.5, 1), and (1 + level) / 2 must round below 1, "
                             f"got {self.level}")
        if not self.agents:
            raise ValueError("at least one agent config required")
        tags = [a.algorithm for a in self.agents]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate algorithm tags in {tags}")
        for i, agent in enumerate(self.agents):
            end = 2  # each asae period end that a run computes, up to the horizon
            try:
                while agent.algorithm == "asae" and end <= self.horizon:
                    end = next_period_end(end, agent.eta)
            except OverflowError:
                raise ValueError(f"agents[{i}].eta = {agent.eta} overflows the asae period "
                                 f"schedule before horizon {self.horizon}") from None
        if self.checkpoints is not None:
            cps = self.checkpoints
            for i, c in enumerate(cps):
                json_value(c, "int", f"checkpoints[{i}]")
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise ValueError("checkpoints must be strictly increasing")
            if not cps or cps[0] < 1 or cps[-1] != self.horizon:
                raise ValueError("checkpoints must start >= 1 and end at the horizon")

    def resolved_checkpoints(self) -> tuple[int, ...]:
        if self.checkpoints is not None:
            return self.checkpoints
        return default_checkpoints(self.horizon)


@dataclass(frozen=True)
class AggregateResult:
    """Per-checkpoint and per-arm means with t confidence half-widths."""

    algorithm: str
    checkpoints: tuple[int, ...]
    mean_regret: tuple[float, ...]
    regret_half_width: tuple[float, ...]
    mean_pulls: tuple[float, ...]
    pulls_half_width: tuple[float, ...]
    run_count: int
    dof: int
    level: float


@dataclass(frozen=True)
class BatchResult:
    """Everything run_batch produced, keyed by algorithm tag."""

    config: ExperimentConfig
    aggregates: dict[str, AggregateResult]
    runs: dict[str, tuple[RunResult, ...]]


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Geometric schedule of at most 200 steps from 1 to the horizon, included."""
    if json_value(horizon, "int", "horizon") < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    points = {int(round(horizon ** (i / 200))) for i in range(1, 201)}
    points.add(horizon)
    return tuple(sorted(p for p in points if 1 <= p <= horizon))


def stream_seed(base_seed: int, algorithm: str, run: int) -> int:
    """Stable 128-bit seed for one (algorithm, run) stream."""
    import hashlib  # loads OpenSSL, which only a batch needs
    digest = hashlib.sha256(f"{base_seed}:{algorithm}:{run}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the incomplete-beta continued fraction."""
    max_iter, eps, tiny = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even and the odd coefficient of step m, one half-step each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:  # converged after the odd half-step
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    # the continued fraction converges fast only below the distribution bulk
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _t_cdf(t: float, df: float) -> float:
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t >= 0.0 else tail


def student_t_quantile(p: float, df: int) -> float:
    """Inverse t CDF by bisection on the incomplete-beta form."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.5 <= p < 1.0:
        raise ValueError(f"quantile level must be in [0.5, 1), got {p}")
    if p == 0.5:
        return 0.0
    lo, hi = 0.0, 1.0
    while _t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Longest-processing-time-first list scheduling (Graham 1969), by measured
# cost: UCB1's lockstep task outlasts any one run, SUCB's runs ASAE's or SAE's.
_DISPATCH_ORDER = ("ucb1", "sucb", "asae", "sae")

# the batch's structures in a pool worker, set once by the pool's initializer
_worker_structures: tuple[Structure, ...] = ()


def __getattr__(name: str):
    """Resolve ``ProcessPoolExecutor`` on first access (PEP 562): its import
    stack (multiprocessing, logging, socket, subprocess, ...) loads only for
    a batch with more than one worker, or when a caller reads or replaces it."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _install(structures: tuple[Structure, ...]) -> None:
    global _worker_structures
    _worker_structures = structures


def _run_task(structures: tuple[Structure, ...], agent_config: AgentConfig, horizon: int,
              checkpoints: tuple[int, ...], runs: tuple[int, ...],
              seeds: tuple[int, ...]) -> tuple[RunResult, ...]:
    """Run r = runs[i] of one agent on (structures[r], seeds[i]): UCB1's all
    together in its lockstep kernel, any other agent's (one per task) on
    simulate."""
    try:
        picked = tuple(structures[r] for r in runs)
        if agent_config.algorithm == "ucb1":
            return simulate_ucb1(picked, agent_config, horizon, checkpoints, seeds)
        (structure,), (seed,) = picked, seeds
        agent = make_agent(structure, agent_config)
        return (simulate(agent, Environment(structure, seed), horizon, checkpoints),)
    except Exception as exc:
        block = f" (first of {len(seeds)} lockstep runs)" if len(seeds) > 1 else ""
        raise RuntimeError(f"run failed for algorithm={agent_config.algorithm!r} "
                           f"seed={seeds[0]}{block}: {exc}") from exc


def _worker_task(*task) -> tuple[RunResult, ...]:
    return _run_task(_worker_structures, *task)


def _aggregate(algorithm: str, runs: tuple[RunResult, ...], checkpoints: tuple[int, ...],
               level: float, scale: float) -> AggregateResult:
    count = len(runs)
    regret = np.array([r.regret for r in runs], dtype=np.float64)
    pulls = np.array([r.pull_counts for r in runs], dtype=np.float64)
    return AggregateResult(
        algorithm=algorithm,
        checkpoints=checkpoints,
        mean_regret=tuple(float(v) for v in regret.mean(axis=0)),
        regret_half_width=tuple(float(v) * scale for v in regret.std(axis=0, ddof=1)),
        mean_pulls=tuple(float(v) for v in pulls.mean(axis=0)),
        pulls_half_width=tuple(float(v) * scale for v in pulls.std(axis=0, ddof=1)),
        run_count=count,
        dof=count - 1,
        level=level,
    )


def _run_and_aggregate(config: ExperimentConfig, structures: tuple[Structure, ...],
                       workers: int) -> BatchResult:
    """Run every (algorithm, run) pair, run r on structures[r], and fold each
    algorithm's runs in run-index order.

    A task is one run, except for UCB1, whose runs all go in one task to
    its lockstep kernel.  Tasks go out in _DISPATCH_ORDER, one at a time.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    checkpoints = config.resolved_checkpoints()
    tasks = []
    for agent_config in config.agents:
        if agent_config.horizon is None:
            agent_config = replace(agent_config, horizon=config.horizon)
        seeds = tuple(stream_seed(config.base_seed, agent_config.algorithm, run)
                      for run in range(config.runs))
        groups = ([tuple(range(config.runs))] if agent_config.algorithm == "ucb1"
                  else [(run,) for run in range(config.runs)])
        tasks += [(agent_config, config.horizon, checkpoints, group,
                   tuple(seeds[run] for run in group)) for group in groups]
    tasks.sort(key=lambda task: _DISPATCH_ORDER.index(task[0].algorithm))
    if workers == 1:
        blocks = [_run_task(structures, *task) for task in tasks]
    else:
        # a pool starts all of its workers at the first submit, so no more than there are tasks
        pool_class = sys.modules[__name__].ProcessPoolExecutor  # replaceable, see __getattr__
        with pool_class(max_workers=min(workers, len(tasks)), initializer=_install,
                        initargs=(structures,)) as pool:
            blocks = list(pool.map(_worker_task, *zip(*tasks), chunksize=1))
    slots = {agent_config.algorithm: [None] * config.runs for agent_config in config.agents}
    for (agent_config, _, _, indices, _), block in zip(tasks, blocks):
        for run, result in zip(indices, block):
            slots[agent_config.algorithm][run] = result
    # every algorithm has the same run count and level, so one t quantile
    scale = (student_t_quantile(0.5 * (1.0 + config.level), config.runs - 1)
             / math.sqrt(config.runs))
    runs = {tag: tuple(block) for tag, block in slots.items()}
    aggregates = {tag: _aggregate(tag, block, checkpoints, config.level, scale)
                  for tag, block in runs.items()}
    return BatchResult(config=config, aggregates=aggregates, runs=runs)


def run_batch(config: ExperimentConfig, workers: int = 1) -> BatchResult:
    """Run every (algorithm, run) pair and aggregate per algorithm.

    Results depend only on the config: seeds derive from (base_seed,
    algorithm, run index), each result goes back to its (algorithm, run)
    slot whatever the schedule, and the per-algorithm fold follows run index.
    """
    return _run_and_aggregate(config, (config.structure,) * config.runs, workers)


def run_randomized_batch(spec: GeneratorSpec, agents: tuple[AgentConfig, ...],
                         horizon: int, runs: int = 100, base_seed: int = 0,
                         checkpoints: tuple[int, ...] | None = None,
                         level: float = 0.95, workers: int = 1) -> BatchResult:
    """Like run_batch, but run r of every algorithm sees a fresh random
    structure drawn with seed sha256(base_seed:structure:r).

    Regret stays comparable across runs because it is pseudo-regret against
    each run's own true model.  The returned config embeds run 0's structure
    as a representative; the generator parameters travel in its provenance.
    The config is checked once run 0's structure is drawn, before the rest.
    """
    specs = (replace(spec, seed=stream_seed(base_seed, "structure", run)) for run in range(runs))
    config = ExperimentConfig(
        structure=generate_random(next(specs)), agents=tuple(agents), horizon=horizon,
        runs=runs, base_seed=base_seed, checkpoints=checkpoints, level=level,
        source="randomized-per-run")
    structures = (config.structure, *map(generate_random, specs))
    return _run_and_aggregate(config, structures, workers)


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_regret_csv(path: str, aggregate: AggregateResult) -> None:
    _write_csv(path, ("checkpoint", "mean_regret", "ci_half_width"),
               ((c, repr(m), repr(h)) for c, m, h in
                zip(aggregate.checkpoints, aggregate.mean_regret, aggregate.regret_half_width)))


def write_pulls_csv(path: str, aggregate: AggregateResult) -> None:
    _write_csv(path, ("arm", "mean_pulls", "ci_half_width"),
               ((a, repr(m), repr(h)) for a, (m, h) in
                enumerate(zip(aggregate.mean_pulls, aggregate.pulls_half_width))))


def write_batch(out_dir: str, batch: BatchResult) -> dict[str, str]:
    """Write per-algorithm CSVs plus a manifest; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    config = batch.config
    paths: dict[str, str] = {}
    for tag, aggregate in batch.aggregates.items():
        regret_path = os.path.join(out_dir, f"{tag}_regret.csv")
        pulls_path = os.path.join(out_dir, f"{tag}_pulls.csv")
        write_regret_csv(regret_path, aggregate)
        write_pulls_csv(pulls_path, aggregate)
        paths[f"{tag}_regret"] = regret_path
        paths[f"{tag}_pulls"] = pulls_path
    from . import __version__
    manifest = {
        "structbandit_version": __version__,
        "numpy_version": np.__version__,
        "seed_recipe": "sha256('{base_seed}:{algorithm}:{run}') -> first 16 bytes, big endian",
        "structure": {
            "source": config.source,
            "arm_count": config.structure.arm_count,
            "model_count": config.structure.model_count,
            "true_index": config.structure.true_index,
            "reward": {"kind": config.structure.reward.kind,
                       "variance": config.structure.reward.variance},
            "provenance": config.structure.provenance,
        },
        "horizon": config.horizon,
        "runs": config.runs,
        "base_seed": config.base_seed,
        "level": config.level,
        "checkpoint_count": len(config.resolved_checkpoints()),
        "agents": [{**asdict(a), "seeds": [str(r.seed) for r in batch.runs[a.algorithm]]}
                   for a in config.agents],
        "files": {key: os.path.basename(value) for key, value in sorted(paths.items())},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    paths["manifest"] = manifest_path
    return paths
