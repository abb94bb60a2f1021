"""End-to-end acceptance checks for the whole toolkit.

Each criterion gets one test that prints a single PASS/FAIL summary line
(visible with ``pytest -s`` and in the captured output of failures) and
then asserts.  The expensive Monte Carlo batches are shared through
module-scoped fixtures, so the stated runtime limits are measured around
the batch that the criterion pays for.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import structbandit as sb
import conftest
from structbandit.cli import SUITE, _check
from helpers import mk
from oracles import (
    oracle_delta_floor,
    oracle_gamma_star,
    oracle_in_cr,
    oracle_in_opt,
    oracle_in_wc,
    oracle_optimal_arm_set,
    oracle_psi,
)

BASE_SEED = 7


def _line(num: int, ok: bool, text: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    conftest.CRITERION_LINES.append(line)


def _final(aggregate):
    return aggregate.mean_regret[-1], aggregate.regret_half_width[-1]


def _pulls(aggregate, arm: int):
    return aggregate.mean_pulls[arm], aggregate.pulls_half_width[arm]


def _summary(batch, value) -> str:
    parts = []
    for tag, aggregate in batch.aggregates.items():
        mean, half = value(aggregate)
        parts.append(f"{tag}={mean:.1f}+/-{half:.1f}")
    return " ".join(parts)


def _regret_summary(batch) -> str:
    return _summary(batch, _final)


def _pulls_summary(batch, arm: int) -> str:
    return _summary(batch, lambda aggregate: _pulls(aggregate, arm))


def _agents(figure: str, *tags: str) -> tuple:
    """The agents of a paper-suite figure, in its order; only ``tags`` if given."""
    return tuple(sb.AgentConfig(**agent) for agent in SUITE[figure]["config"]["agents"]
                 if not tags or agent["algorithm"] in tags)


DESK_AGENTS = _agents("fig3a")


@pytest.fixture(scope="module")
def fig_left_batch():
    config = sb.ExperimentConfig(
        structure=sb.build_figure_left(), agents=DESK_AGENTS,
        horizon=10_000, runs=100, base_seed=BASE_SEED)
    start = time.perf_counter()
    batch = sb.run_batch(config)
    return batch, config, time.perf_counter() - start


@pytest.fixture(scope="module")
def flat_batch():
    config = sb.ExperimentConfig(
        structure=sb.build_figure_left(informative_arm2=False),
        agents=DESK_AGENTS, horizon=10_000, runs=100, base_seed=BASE_SEED)
    start = time.perf_counter()
    batch = sb.run_batch(config)
    return batch, config, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig_right_batch():
    config = sb.ExperimentConfig(
        structure=sb.build_figure_right(),
        agents=_agents("fig3c", "sae", "asae", "sucb"),
        horizon=500_000, runs=25, base_seed=BASE_SEED)
    start = time.perf_counter()
    batch = sb.run_batch(config)
    return batch, config, time.perf_counter() - start


@pytest.fixture(scope="module")
def lemma_runs():
    """2000 seeded phased-elimination runs with their phase histories."""
    structure = sb.build_figure_left()
    config = sb.AgentConfig("sae", alpha=4.0, beta=2.0, horizon=4096)
    start = time.perf_counter()
    histories = []
    for run in range(2000):
        agent = sb.make_agent(structure, config)
        env = sb.Environment(structure, seed=sb.stream_seed(BASE_SEED, "sae", run))
        sb.simulate(agent, env, 4096)
        histories.append(tuple(agent.history))
    return structure, histories, time.perf_counter() - start


def test_criterion_01_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    for index in range(50):
        if index < 44:
            arms = int(rng.integers(3, 13))
            base = int(rng.integers(1, 31))
            hard = int(rng.integers(0, 11))
        else:  # push the stated size limits: up to 150 models, 50 arms
            arms = int(rng.integers(20, 51))
            base = int(rng.integers(40, 101))
            hard = int(rng.integers(0, 51))
        spec = sb.GeneratorSpec(arm_count=arms, base_model_count=base,
                                hard_model_count=hard,
                                seed=int(rng.integers(0, 2 ** 31)))
        structure = sb.generate_random(spec)

        assert sb.optimal_arm_set(structure) == oracle_optimal_arm_set(structure)
        assert sb.gamma_star(structure) == oracle_gamma_star(structure)
        assert sb.delta_floor(structure) == oracle_delta_floor(structure)
        for _ in range(3):
            # sorted so both sides resolve psi ties to the lowest index
            subset = sorted(int(k) for k in rng.choice(
                structure.model_count,
                size=int(rng.integers(1, structure.model_count + 1)),
                replace=False))
            arm_sel = sorted(int(j) for j in rng.choice(
                structure.arm_count,
                size=int(rng.integers(1, structure.arm_count + 1)),
                replace=False))
            assert sb.psi(structure, subset, arm_sel) == \
                oracle_psi(structure, subset, arm_sel)

        sequences = sb.deterministic_sequences(structure, 4.0, 2.0, 4096)
        record = sb.classify(structure, sequences)
        assert record.in_worst_case == oracle_in_wc(structure)
        assert record.in_optimality == oracle_in_opt(structure, sequences.informative_arms)
        assert record.in_constant_regret == oracle_in_cr(structure)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _line(1, ok, f"brute-force agreement on 50 structures in {elapsed:.1f}s")
    assert ok, f"oracle sweep took {elapsed:.1f}s, limit 10s"


def test_criterion_02_confidence_failure_rate(lemma_runs):
    structure, histories, elapsed = lemma_runs
    true_index = structure.true_index
    leaves = sum(
        any(true_index not in record.active_models for record in history)
        for history in histories)
    frequency = leaves / len(histories)
    bound = sb.confidence_failure_bound(4096, 4.0, 2.0,
                                        len(sb.optimal_arm_set(structure)))
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / len(histories))
    ok = frequency <= bound + slack and elapsed < 120.0
    _line(2, ok, f"true model left the confidence set in {leaves}/2000 runs; "
                 f"allowance {bound + slack:.2e}; {elapsed:.0f}s")
    assert frequency <= bound + slack, (frequency, bound, slack)
    assert elapsed < 120.0, f"2000 runs took {elapsed:.0f}s, limit 120s"


def test_criterion_03_schedule_consistency(lemma_runs):
    structure, histories, _ = lemma_runs
    sequences = sb.deterministic_sequences(structure, 4.0, 2.0, 4096)
    true_index = structure.true_index
    good = [history for history in histories
            if all(true_index in record.active_models for record in history)]
    assert good, "no run kept the true model; nothing to condition on"
    violations = 0
    for history in good:
        consistent = True
        for record in history:
            active = set(record.active_arms)
            # surely-removed arms must be gone in every later phase
            for h in range(min(record.phase, len(sequences.removed))):
                if sequences.removed[h] & active:
                    consistent = False
            # surely-active arms must still be present in their phase
            if record.phase < len(sequences.surely_active):
                if not sequences.surely_active[record.phase] <= active:
                    consistent = False
        violations += not consistent
    ok = violations == 0
    _line(3, ok, f"{len(good) - violations}/{len(good)} good-event runs match "
                 f"the deterministic schedule")
    assert ok, f"{violations} good-event runs contradict the schedule"


def test_criterion_04_informative_orderings(fig_left_batch):
    batch, _, elapsed = fig_left_batch
    pairs = (("asae", "sucb"), ("sae", "sucb"), ("sucb", "ucb1"))
    separated = {pair: _check(batch, "regret", *pair)[1] for pair in pairs}
    ok = all(separated.values()) and elapsed < 180.0
    _line(4, ok, f"{_regret_summary(batch)}; {elapsed:.0f}s")
    assert all(separated.values()), (separated, _regret_summary(batch))
    assert elapsed < 180.0, f"batch took {elapsed:.0f}s, limit 180s"


def test_criterion_05_flat_variant_orderings(flat_batch):
    # With arm 1 flat, the nearest middle-region model is 0.16 from the
    # truth and only on arm 2, so SAE keeps arm 2 up to its 1179-pull
    # target and pays 295 * 0.025 + 1179 * 0.125 = 154.75 on almost every
    # run, which does not undercut UCB1's regret. What the structure still
    # buys is discarding arm 1 (gap 0.025) on pulls of arm 0: SAE stops at
    # the 295 target where UCB1 needs thousands of pulls, so the ordering
    # is checked on arm-1 pull counts.
    batch, _, elapsed = flat_batch
    regret_ok = _check(batch, "regret", "sucb", "sae")[1]
    arm1_ok = _check(batch, "pulls", "sae", "ucb1", 1)[1]
    ok = regret_ok and arm1_ok and elapsed < 180.0
    _line(5, ok, f"{_regret_summary(batch)}; arm-1 pulls "
                 f"{_pulls_summary(batch, 1)}; {elapsed:.0f}s")
    assert regret_ok, _regret_summary(batch)
    assert arm1_ok, _pulls_summary(batch, 1)
    assert elapsed < 180.0, f"batch took {elapsed:.0f}s, limit 180s"


def test_criterion_06_long_horizon_orderings(fig_right_batch):
    batch, _, elapsed = fig_right_batch
    pairs = (("asae", "sucb"), ("sae", "sucb"))
    separated = {pair: _check(batch, "regret", *pair)[1] for pair in pairs}
    # Model 2 is optimistic for arm 3, so SUCB pulls arm 3 whenever model 3
    # has left the confidence set and model 2 has not (sucb_bound charges
    # arm 3 a log n term). That happens in a few runs without any
    # concentration failure; the check reads each run instead of the mean.
    sucb_runs = batch.runs["sucb"]
    unpulled = sum(run.pull_counts[3] == 0 for run in sucb_runs)
    arm3_ok = (2 * unpulled > len(sucb_runs)
               and _check(batch, "pulls", "sucb", "asae", 3)[1])
    ok = all(separated.values()) and arm3_ok and elapsed < 600.0
    _line(6, ok, f"{_regret_summary(batch)}; sucb left arm 3 unpulled in "
                 f"{unpulled}/{len(sucb_runs)} runs, arm-3 pulls "
                 f"{_pulls_summary(batch, 3)} "
                 f"({'met' if arm3_ok else 'not met'}); {elapsed:.0f}s")
    assert arm3_ok, (unpulled, _pulls_summary(batch, 3))
    assert elapsed < 600.0, f"batch took {elapsed:.0f}s, limit 600s"
    assert all(separated.values()), (separated, _regret_summary(batch))


def test_criterion_07_randomized_structures():
    agents = _agents("fig3d", "asae", "sucb")
    start = time.perf_counter()
    batch = sb.run_randomized_batch(sb.GeneratorSpec(), agents,
                                    horizon=10_000, runs=100,
                                    base_seed=BASE_SEED)
    elapsed = time.perf_counter() - start
    ok = _check(batch, "regret", "asae", "sucb")[1] and elapsed < 600.0
    _line(7, ok, f"{_regret_summary(batch)}; {elapsed:.0f}s")
    assert _check(batch, "regret", "asae", "sucb")[1], _regret_summary(batch)
    assert elapsed < 600.0, f"batch took {elapsed:.0f}s, limit 600s"


def test_criterion_08_pull_count_caps(fig_left_batch, flat_batch, fig_right_batch):
    checked = 0
    for batch, config, _ in (fig_left_batch, flat_batch, fig_right_batch):
        structure = config.structure
        sae_config = next(a for a in config.agents if a.algorithm == "sae")
        if sae_config.horizon is None:
            sae_config = replace(sae_config, horizon=config.horizon)
        gaps = sb.true_gaps(structure)
        factor = (sae_config.alpha * math.log(config.horizon)
                  * (1.0 + 1.0 / sae_config.beta) ** 2)
        for run, result in enumerate(batch.runs["sae"]):
            agent = sb.make_agent(structure, sae_config)
            env = sb.Environment(structure,
                                 seed=sb.stream_seed(config.base_seed, "sae", run))
            replay = sb.simulate(agent, env, config.horizon)
            assert replay.pull_counts == result.pull_counts, \
                "replay diverged from the batch run"
            last_active = {}
            for record in agent.history:
                for arm in record.active_arms:
                    last_active[arm] = record.phase
            for arm, gap in enumerate(gaps):
                if gap <= 0.0:
                    continue
                if arm not in last_active:
                    assert result.pull_counts[arm] == 0
                    continue
                cap = math.ceil(factor * 4.0 ** last_active[arm])
                assert result.pull_counts[arm] <= cap, \
                    (run, arm, result.pull_counts[arm], cap)
                checked += 1
    _line(8, True, f"{checked} (run, arm) pull counts within their phase caps")


def test_criterion_09_upper_bounds_hold():
    cases = (
        (sb.build_figure_left(), 10_000, 0.1),
        (sb.build_figure_left(informative_arm2=False), 10_000, 0.1),
        (sb.build_figure_right(), 500_000, 0.01),
    )
    details = []
    ok = True
    for structure, horizon, eta in cases:
        agents = (sb.AgentConfig("sae", alpha=4.0, beta=2.0),
                  sb.AgentConfig("asae", alpha=4.0, beta=2.0, eta=eta))
        config = sb.ExperimentConfig(structure=structure, agents=agents,
                                     horizon=horizon, runs=50,
                                     base_seed=BASE_SEED)
        batch = sb.run_batch(config)
        sequences = sb.deterministic_sequences(structure, 4.0, 2.0, horizon)
        sae_cap = sb.sae_bound(structure, sequences).value
        asae_cap = sb.asae_bound(structure, horizon).value
        sae_mean = batch.aggregates["sae"].mean_regret[-1]
        asae_mean = batch.aggregates["asae"].mean_regret[-1]
        ok = ok and sae_mean <= sae_cap and asae_mean <= asae_cap
        details.append(f"sae {sae_mean:.0f}<={sae_cap:.0f} "
                       f"asae {asae_mean:.0f}<={asae_cap:.0f}")
        assert sae_mean <= sae_cap, (sae_mean, sae_cap)
        assert asae_mean <= asae_cap, (asae_mean, asae_cap)
    _line(9, ok, "; ".join(details))


def test_criterion_10_regret_floor():
    def cr_structure(gamma):
        return mk([[0.5, 0.3, 0.2],
                   [0.5 - gamma, 0.6, 0.2],
                   [0.5 - gamma, 0.3, 0.7]], 0)

    gamma = 1e-4
    report = sb.lower_bound_cr(cr_structure(gamma), n=10 ** 9)
    # hand arithmetic, straight from the definitions
    delta = 0.1 + gamma
    log_arg = delta * delta / (4.0 * math.e ** 2 * 8.0 * gamma * gamma
                               * math.log(1.0 / gamma ** 2))
    expected = (0.2 / (2.0 * 0.3 ** 2) + 0.3 / (2.0 * 0.5 ** 2)) * math.log(log_arg)
    valid = (0.0 < report.value < math.inf
             and report.flags["gamma_star_small_enough"]
             and report.flags["horizon_large_enough"]
             and not report.flags["vacuous"]
             and report.value == pytest.approx(expected, rel=1e-12))

    vacuous_report = sb.lower_bound_cr(cr_structure(0.01), n=10 ** 9)
    degenerate = vacuous_report.value == 0.0 and vacuous_report.flags["vacuous"]

    ok = valid and degenerate
    _line(10, ok, f"floor {report.value:.3f} (hand value {expected:.3f}); "
                  f"vacuous case flags {vacuous_report.flags['vacuous']}")
    assert valid, report
    assert degenerate, vacuous_report


def test_criterion_11_worker_determinism(fig_left_batch, tmp_path):
    batch, config, _ = fig_left_batch
    rerun = sb.run_batch(config, workers=4)
    serial_paths = sb.write_batch(tmp_path / "w1", batch)
    parallel_paths = sb.write_batch(tmp_path / "w4", rerun)
    assert serial_paths.keys() == parallel_paths.keys()
    mismatched = [name for name in serial_paths
                  if open(serial_paths[name], "rb").read()
                  != open(parallel_paths[name], "rb").read()]
    ok = not mismatched
    _line(11, ok, f"{len(serial_paths)} output files byte-identical "
                  f"across worker counts 1 and 4")
    assert ok, f"files differ across worker counts: {mismatched}"
