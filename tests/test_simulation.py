"""Batch runner, seeding, Student-t machinery, and output files."""

import concurrent.futures
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats

import structbandit as sb
from helpers import mk
from structbandit.algorithms import simulate_ucb1
from structbandit.cli import SUITE as SUITE_TABLE

# published two-sided 97.5% quantiles
T_TABLE = {1: 12.706, 10: 2.2281, 99: 1.9842}

# the paper-suite agents, in the suite's order
SUITE = tuple(sb.AgentConfig(**agent) for agent in SUITE_TABLE["fig3a"]["config"]["agents"])
SMALL_SPEC = sb.GeneratorSpec(arm_count=5, base_model_count=6, hard_model_count=2)


@pytest.fixture(scope="module")
def fig_right():
    return sb.build_figure_right()


@pytest.fixture(scope="module")
def small_batch(fig_right):
    config = sb.ExperimentConfig(
        structure=fig_right,
        agents=(sb.AgentConfig("sucb", alpha=2.0), sb.AgentConfig("ucb1", alpha=2.0)),
        horizon=300,
        runs=4,
        base_seed=17,
        checkpoints=(50, 150, 300),
    )
    return config, sb.run_batch(config)


def test_t_quantile_against_published_table():
    for df, expected in T_TABLE.items():
        assert sb.student_t_quantile(0.975, df) == pytest.approx(expected, abs=5e-4)


def test_t_quantile_against_scipy():
    for df in (1, 2, 5, 10, 30, 99, 400):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995):
            ours = sb.student_t_quantile(p, df)
            ref = scipy.stats.t.ppf(p, df)
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert sb.student_t_quantile(0.5, 7) == 0.0
    with pytest.raises(ValueError):
        sb.student_t_quantile(0.4, 7)
    with pytest.raises(ValueError):
        sb.student_t_quantile(0.975, 0)


def test_incomplete_beta_against_scipy():
    for a in (0.5, 1.0, 3.0, 49.5):
        for b in (0.5, 2.0, 7.5):
            for x in (0.0, 0.01, 0.3, 0.5, 0.9, 1.0):
                ours = sb.regularized_incomplete_beta(a, b, x)
                ref = float(scipy.special.betainc(a, b, x))
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)
    with pytest.raises(ValueError):
        sb.regularized_incomplete_beta(0.0, 1.0, 0.5)


def test_batch_half_width_against_scipy():
    # the aggregate's t interval over the run regrets, at each checkpoint
    batch = sb.run_batch(sb.ExperimentConfig(
        structure=sb.build_figure_right(), agents=(sb.AgentConfig("sucb"),),
        horizon=400, runs=6, base_seed=3, checkpoints=(100, 400), level=0.9))
    aggregate = batch.aggregates["sucb"]
    for c in range(2):
        regrets = [run.regret[c] for run in batch.runs["sucb"]]
        mean = sum(regrets) / len(regrets)
        low, high = scipy.stats.t.interval(0.9, len(regrets) - 1, loc=mean,
                                           scale=scipy.stats.sem(regrets))
        assert high > low
        assert aggregate.mean_regret[c] == pytest.approx(mean, rel=1e-12)
        assert aggregate.regret_half_width[c] == pytest.approx((high - low) / 2, rel=1e-9)


def test_stream_seed_stability():
    # frozen: the recipe is part of the reproducibility contract
    assert sb.stream_seed(0, "sae", 0) == sb.stream_seed(0, "sae", 0)
    seeds = {sb.stream_seed(b, a, r)
             for b in (0, 1) for a in ("sae", "sucb") for r in range(50)}
    assert len(seeds) == 200
    assert all(0 <= s < 2 ** 128 for s in seeds)


def test_default_checkpoints():
    points = sb.default_checkpoints(10_000)
    assert points[-1] == 10_000
    assert len(points) <= 201
    assert all(1 <= p <= 10_000 for p in points)
    assert list(points) == sorted(set(points))
    assert sb.default_checkpoints(1) == (1,)
    with pytest.raises(ValueError):
        sb.default_checkpoints(0)


def test_experiment_config_validation(fig_right):
    agents = (sb.AgentConfig("sucb"),)
    with pytest.raises(ValueError):
        sb.ExperimentConfig(fig_right, agents, horizon=100, runs=1)
    with pytest.raises(ValueError):
        sb.ExperimentConfig(fig_right, agents, horizon=100, level=0.4)
    with pytest.raises(ValueError):
        sb.ExperimentConfig(fig_right, (), horizon=100)
    with pytest.raises(ValueError):
        sb.ExperimentConfig(
            fig_right, (sb.AgentConfig("sucb"), sb.AgentConfig("sucb", alpha=3.0)),
            horizon=100)
    with pytest.raises(ValueError):
        sb.ExperimentConfig(fig_right, agents, horizon=100, checkpoints=(50, 50, 100))
    with pytest.raises(ValueError):
        sb.ExperimentConfig(fig_right, agents, horizon=100, checkpoints=(50, 99))


def test_schedules_must_be_integers(fig_right):
    # a float horizon or checkpoint would run int() steps under its own label
    agents = (sb.AgentConfig("sucb"),)
    for fields, name in [({"horizon": 10.5}, "horizon"),
                         ({"horizon": True}, "horizon"),
                         ({"checkpoints": (2.5, 10)}, r"checkpoints\[0\]"),
                         ({"checkpoints": (2, np.float64(10.0))}, r"checkpoints\[1\]"),
                         ({"runs": 3.0}, "runs"),
                         ({"base_seed": True}, "base_seed")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sb.ExperimentConfig(fig_right, agents, **{"horizon": 10, **fields})
    # refused here, not as an OverflowError inside run_batch
    with pytest.raises(ValueError, match="horizon is an integer too large for a float"):
        sb.ExperimentConfig(fig_right, agents, horizon=10 ** 400)
    config = sb.ExperimentConfig(fig_right, agents, horizon=np.int64(10), runs=np.int32(2),
                                 base_seed=np.uint8(3), checkpoints=(np.int64(2), 10))
    assert config.resolved_checkpoints() == (2, 10)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        sb.default_checkpoints(10.5)
    agent = sb.make_agent(fig_right, agents[0])
    env = sb.Environment(fig_right, seed=0)
    for horizon, checkpoints in [(10.0, None), (10, (True, 9)), (10, (1, 9.9))]:
        with pytest.raises(ValueError, match="must be an integer"):
            sb.simulate(agent, env, horizon, checkpoints=checkpoints)
    result = sb.simulate(agent, env, np.int64(10), checkpoints=(np.int16(1), 9))
    assert result.checkpoints == (1, 9) and type(result.checkpoints[0]) is int
    # a numpy-integer horizon reaches every agent's config and runs as its int
    agents = (sb.AgentConfig("sae"), sb.AgentConfig("asae"), sb.AgentConfig("ucb1"))
    batches = [sb.run_batch(sb.ExperimentConfig(fig_right, agents, horizon=h, runs=2))
               for h in (np.int64(50), 50)]
    assert batches[0].runs == batches[1].runs


def test_run_batch_invariants(fig_right, small_batch):
    config, batch = small_batch
    gaps = sb.true_gaps(fig_right)
    for tag, runs in batch.runs.items():
        assert len(runs) == 4
        for run in runs:
            assert run.algorithm == tag
            assert sum(run.pull_counts) == 300
            assert all(b >= a - 1e-12 for a, b in zip(run.regret, run.regret[1:]))
            assert run.regret[-1] <= 300 * max(gaps)
    for tag, agg in batch.aggregates.items():
        assert agg.dof == 3
        assert all(h >= 0.0 for h in agg.regret_half_width)
        finals = [r.final_regret() for r in batch.runs[tag]]
        assert min(finals) <= agg.mean_regret[-1] <= max(finals)
        assert sum(agg.mean_pulls) == pytest.approx(300.0, rel=1e-12)


def test_one_t_quantile_per_batch(small_batch, monkeypatch):
    calls = []

    def counting(p, df):
        calls.append((p, df))
        return sb.student_t_quantile(p, df)

    monkeypatch.setattr(sb.simulation, "student_t_quantile", counting)
    config, batch = small_batch
    assert sb.run_batch(config).aggregates == batch.aggregates
    assert calls == [(0.975, 3)]


def test_run_batch_worker_independence(small_batch):
    config, serial = small_batch
    parallel = sb.run_batch(config, workers=2)
    assert parallel.runs == serial.runs
    assert parallel.aggregates == serial.aggregates


def test_run_batch_seed_isolation(fig_right, small_batch):
    config, batch = small_batch
    flipped = sb.ExperimentConfig(
        structure=fig_right, agents=tuple(reversed(config.agents)),
        horizon=300, runs=4, base_seed=17, checkpoints=(50, 150, 300))
    other = sb.run_batch(flipped)
    assert other.runs["sucb"] == batch.runs["sucb"]
    assert other.runs["ucb1"] == batch.runs["ucb1"]


def test_run_batch_fills_horizon(fig_right):
    config = sb.ExperimentConfig(
        structure=fig_right,
        agents=(sb.AgentConfig("sae", alpha=2.0, beta=1.0),),  # horizon None
        horizon=120, runs=2, checkpoints=(120,))
    batch = sb.run_batch(config)
    assert all(sum(r.pull_counts) == 120 for r in batch.runs["sae"])


def test_run_batch_zero_variance_aggregate():
    structure = mk([[0.8, 0.2], [0.6, 0.3]], 0)  # single potentially-optimal arm
    config = sb.ExperimentConfig(
        structure=structure, agents=(sb.AgentConfig("sae"),),
        horizon=50, runs=2, checkpoints=(50,))
    batch = sb.run_batch(config)
    agg = batch.aggregates["sae"]
    assert agg.mean_regret == (0.0,)
    assert agg.regret_half_width == (0.0,)


def test_run_batch_failure_names_run(fig_right, monkeypatch):
    # no valid config makes a run fail, so a stand-in simulate does
    def broken(agent, environment, horizon, checkpoints):
        raise ValueError("broken run")

    monkeypatch.setattr(sb.simulation, "simulate", broken)
    config = sb.ExperimentConfig(
        structure=fig_right, agents=(sb.AgentConfig("sae"),),
        horizon=10, runs=2, checkpoints=(10,))
    with pytest.raises(RuntimeError, match=r"algorithm='sae' seed=\d+: broken run"):
        sb.run_batch(config)
    # SAE's batch horizon below 2 is refused before any run
    with pytest.raises(ValueError, match="sae horizon must be >= 2, got 1"):
        sb.run_batch(replace(config, horizon=1, checkpoints=(1,)))


def test_run_randomized_batch():
    spec = sb.GeneratorSpec(arm_count=4, base_model_count=5, hard_model_count=2, seed=0)
    agents = (sb.AgentConfig("sucb", alpha=2.0),)
    batch = sb.run_randomized_batch(spec, agents, horizon=60, runs=3,
                                    base_seed=5, checkpoints=(60,))
    assert batch.config.source == "randomized-per-run"
    assert batch.config.structure.provenance["builder"] == "random"
    assert len(batch.runs["sucb"]) == 3
    again = sb.run_randomized_batch(spec, agents, horizon=60, runs=3,
                                    base_seed=5, checkpoints=(60,), workers=2)
    assert again.runs == batch.runs
    # per-run structures really differ: seed 'structure:r' drives them
    spec_seeds = {sb.stream_seed(5, "structure", r) for r in range(3)}
    assert len(spec_seeds) == 3


def scalar_ucb1(structures, config, horizon, checkpoints, seeds):
    """The lockstep kernel's oracle: one simulate call per run."""
    return tuple(
        sb.simulate(sb.Ucb1Agent(s.arm_count, config), sb.Environment(s, seed),
                    horizon, checkpoints)
        for s, seed in zip(structures, seeds))


@pytest.mark.parametrize("case", [
    "left", "right-gaussian", "past-refill", "below-arms", "small-alpha", "last-bit-tie"])
def test_ucb1_lockstep_matches_scalar_runs(case, fig_right):
    fig_left = sb.build_figure_left()
    gaussian = replace(fig_right, reward=sb.RewardSpec("gaussian", 0.25))
    # deterministic 0/1 rewards; at this alpha two indices tie to the last
    # bit at step 34, so only c/N (not c * (1/N)) reproduces the scalar arm
    tie = mk([[1.0, 0.0]], 0)
    structure, alpha, horizon, checkpoints = {
        "left": (fig_left, 2.0, 2000, (1, 2, 3, 4, 500, 2000)),
        "right-gaussian": (gaussian, 2.0, 3000, (1, 5, 3000)),
        # the first draw chunk holds 8192 draws per run
        "past-refill": (gaussian, 2.0, 9000, (8192, 8193, 9000)),
        "below-arms": (fig_right, 2.0, 3, (1, 2, 3)),
        "small-alpha": (gaussian, 0.05, 9000, (1, 100, 9000)),
        "last-bit-tie": (tie, 1.819581953037409, 40, tuple(range(1, 41))),
    }[case]
    config = sb.AgentConfig("ucb1", alpha=alpha)
    seeds = tuple(sb.stream_seed(3, "ucb1", r) for r in range(3))
    structures = (structure,) * 3
    lockstep = simulate_ucb1(structures, config, horizon, checkpoints, seeds)
    assert lockstep == scalar_ucb1(structures, config, horizon, checkpoints, seeds)
    assert [r.seed for r in lockstep] == list(seeds)


def test_ucb1_lockstep_fresh_structures_and_workers(fig_right):
    spec = sb.GeneratorSpec(arm_count=6, base_model_count=8, hard_model_count=3, seed=0)
    agents = (sb.AgentConfig("sae"), sb.AgentConfig("ucb1", alpha=2.0))
    batch = sb.run_randomized_batch(spec, agents, horizon=400, runs=3, base_seed=5,
                                    checkpoints=(1, 200, 400))
    structures = [sb.generate_random(replace(spec, seed=sb.stream_seed(5, "structure", r)))
                  for r in range(3)]
    assert len({s.means.tobytes() for s in structures}) == 3
    seeds = [sb.stream_seed(5, "ucb1", r) for r in range(3)]
    assert batch.runs["ucb1"] == scalar_ucb1(
        structures, sb.AgentConfig("ucb1", alpha=2.0), 400, (1, 200, 400), seeds)

    config = sb.ExperimentConfig(structure=fig_right, agents=agents, horizon=300, runs=3,
                                 base_seed=2, checkpoints=(1, 300))
    serial = sb.run_batch(config)
    parallel = sb.run_batch(config, workers=2)
    assert parallel.runs == serial.runs
    assert parallel.aggregates == serial.aggregates


def test_ucb1_lockstep_failure_names_run(fig_right, monkeypatch):
    # the pool forks, so its workers see the patched kernel too
    def failing(structures, config, horizon, checkpoints, seeds):
        raise ValueError("kernel failed")

    monkeypatch.setattr(sb.simulation, "simulate_ucb1", failing)
    config = sb.ExperimentConfig(structure=fig_right, agents=(sb.AgentConfig("ucb1"),),
                                 horizon=10, runs=2, checkpoints=(10,))
    seed = sb.stream_seed(0, "ucb1", 0)
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match=rf"algorithm='ucb1' seed={seed} "
                                               r"\(first of 2 lockstep runs\): kernel failed"):
            sb.run_batch(config, workers=workers)


def test_ucb1_lockstep_contracts(fig_right):
    config = sb.AgentConfig("ucb1")
    with pytest.raises(ValueError, match="ucb1"):
        simulate_ucb1((fig_right,), sb.AgentConfig("sucb"), 10, None, (1,))
    with pytest.raises(ValueError, match="one structure per seed"):
        simulate_ucb1((fig_right,), config, 10, None, (1, 2))
    with pytest.raises(ValueError, match="arm count"):
        simulate_ucb1((fig_right, sb.build_figure_left()), config, 10, None, (1, 2))
    gaussian = replace(fig_right, reward=sb.RewardSpec("gaussian", 0.25))
    with pytest.raises(ValueError, match="reward kind"):
        simulate_ucb1((fig_right, gaussian), config, 10, None, (1, 2))
    with pytest.raises(ValueError, match="checkpoints"):
        simulate_ucb1((fig_right,), config, 10, (5, 3), (1,))


def test_dispatch_longest_first_with_installed_structures(monkeypatch):
    calls = []

    class Recording(sb.simulation.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            calls.append(kwargs)
            super().__init__(**kwargs)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            tasks = list(zip(*iterables))
            calls.append((tasks, chunksize))
            return super().map(fn, *zip(*tasks), timeout=timeout, chunksize=chunksize)

    monkeypatch.setattr(sb.simulation, "ProcessPoolExecutor", Recording)
    args = (SMALL_SPEC, SUITE, 200)
    kwargs = dict(runs=3, base_seed=4, checkpoints=(100, 200))
    parallel = sb.run_randomized_batch(*args, workers=2, **kwargs)
    (pool, (tasks, chunksize)) = calls
    assert chunksize == 1
    # the UCB1 lockstep block first, then one task per run by falling cost
    assert [(task[0].algorithm, task[3]) for task in tasks] == [("ucb1", (0, 1, 2))] + [
        (tag, (run,)) for tag in ("sucb", "asae", "sae") for run in range(3)]
    # each worker gets the structures once; a task carries run indices only
    structures = pool["initargs"][0]
    assert structures == tuple(
        sb.generate_random(replace(SMALL_SPEC, seed=sb.stream_seed(4, "structure", r)))
        for r in range(3))
    assert not any(isinstance(field, sb.Structure) for task in tasks for field in task)
    serial = sb.run_randomized_batch(*args, **kwargs)
    assert len(calls) == 2
    assert sb.simulation._worker_structures == ()
    assert list(serial.runs) == list(parallel.runs) == [a.algorithm for a in SUITE]
    assert serial.runs == parallel.runs and serial.aggregates == parallel.aggregates


def test_import_loads_neither_the_pool_nor_openssl():
    # a command without a parallel batch never needs the process pool's import
    # stack or hashlib, so importing the CLI loads neither
    src = os.path.dirname(os.path.dirname(sb.__file__))
    code = ("import sys; before = set(sys.modules); import structbandit.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    added = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.split())
    assert "structbandit.simulation" in added
    heavy = {"multiprocessing", "concurrent.futures.process", "logging", "subprocess", "_hashlib"}
    assert not heavy & added
    # the pool still resolves, on first use, to the standard one
    assert sb.simulation.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        sb.simulation.NoSuchName


def test_pool_never_larger_than_the_task_count(monkeypatch, fig_right):
    # a pool starts every worker at its first submit; four tasks need four.
    # The recording pool itself forks at most two processes.
    sizes = []

    class Recording(sb.simulation.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2), **kwargs)

    monkeypatch.setattr(sb.simulation, "ProcessPoolExecutor", Recording)
    config = sb.ExperimentConfig(
        structure=fig_right, agents=(sb.AgentConfig("sucb"), sb.AgentConfig("ucb1")),
        horizon=100, runs=3, base_seed=5)  # three sucb runs and one ucb1 block
    batch = sb.run_batch(config, workers=64)
    assert sizes == [4]
    assert batch.runs == sb.run_batch(config).runs


def test_randomized_batch_files_identical_across_workers(tmp_path):
    written = []
    for workers in (1, 2, 3):
        batch = sb.run_randomized_batch(SMALL_SPEC, SUITE, horizon=300, runs=4,
                                        base_seed=9, workers=workers)
        paths = sb.write_batch(str(tmp_path / str(workers)), batch)
        written.append({key: open(path, "rb").read() for key, path in paths.items()})
    assert len(written[0]) == 9
    assert written[0] == written[1] == written[2]


def test_write_batch_files(tmp_path, small_batch):
    _, batch = small_batch
    paths = sb.write_batch(str(tmp_path), batch)
    assert set(paths) == {
        "sucb_regret", "sucb_pulls", "ucb1_regret", "ucb1_pulls", "manifest"}
    with open(paths["sucb_regret"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "checkpoint,mean_regret,ci_half_width"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert int(first[0]) == 50
    # repr serialization: parsing back gives the exact float
    assert float(first[1]) == batch.aggregates["sucb"].mean_regret[0]
    with open(paths["sucb_pulls"]) as fh:
        pulls = fh.read().splitlines()
    assert pulls[0] == "arm,mean_pulls,ci_half_width"
    assert len(pulls) == 1 + 4
    manifest = json.loads(open(paths["manifest"]).read())
    assert manifest["horizon"] == 300
    assert manifest["runs"] == 4
    assert manifest["base_seed"] == 17
    assert manifest["seed_recipe"].startswith("sha256(")
    assert [a["algorithm"] for a in manifest["agents"]] == ["sucb", "ucb1"]
    assert len(manifest["agents"][0]["seeds"]) == 4
    assert "elapsed" not in json.dumps(manifest)


def test_write_batch_bytes_identical_across_workers(tmp_path, small_batch):
    config, serial = small_batch
    parallel = sb.run_batch(config, workers=2)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_paths = sb.write_batch(str(a_dir), serial)
    b_paths = sb.write_batch(str(b_dir), parallel)
    for key in a_paths:
        a_bytes = open(a_paths[key], "rb").read()
        b_bytes = open(b_paths[key], "rb").read()
        assert a_bytes == b_bytes, key
