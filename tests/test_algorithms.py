"""Agent behavior: phase schedules, eliminations, baselines, simulate."""

import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import structbandit as sb
from helpers import mk
from oracles import sucb_active_mask, sucb_arm

FIG_LEFT_CONFIG = sb.AgentConfig("sae", alpha=2.0, beta=1.0, horizon=10_000)


@pytest.fixture(scope="module")
def fig_right():
    return sb.build_figure_right()


@pytest.fixture(scope="module")
def fig_left():
    return sb.build_figure_left()


def run_steps(agent, env, steps):
    for _ in range(steps):
        arm = agent.select()
        agent.observe(arm, env.pull(arm))


def scalar_run(structure, config, seed, horizon, watch=None):
    """The select/pull/observe oracle of simulate: the agent after
    `horizon` steps, the regret after each step and the arms pulled.
    watch(agent) runs after each step."""
    agent = sb.make_agent(structure, config)
    env = sb.Environment(structure, seed=seed)
    gaps = sb.true_gaps(structure)
    regret, regrets, actions = 0.0, [], []
    for _ in range(horizon):
        arm = agent.select()
        agent.observe(arm, env.pull(arm))
        if watch is not None:
            watch(agent)
        regret += gaps[arm]
        regrets.append(regret)
        actions.append(arm)
    return agent, tuple(regrets), tuple(actions)


def test_agent_config_validation():
    with pytest.raises(ValueError):
        sb.AgentConfig("thompson")
    with pytest.raises(ValueError):
        sb.AgentConfig("sae", alpha=0.0)
    with pytest.raises(ValueError):
        sb.AgentConfig("sae", beta=0.5)
    with pytest.raises(ValueError):
        sb.AgentConfig("asae", eta=0.0)
    with pytest.raises(ValueError):
        sb.AgentConfig("sae", horizon=0)
    with pytest.raises(ValueError):
        sb.AgentConfig("sucb", sigma2=0.0)
    # non-finite parameters (JSON reads Infinity and 1e400 as inf)
    for name in ("alpha", "beta", "eta", "sigma2"):
        for value in (math.inf, -math.inf, math.nan):
            for algorithm in sb.ALGORITHMS:
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    sb.AgentConfig(algorithm, horizon=100, **{name: value})
    # an integer too large for a float, as JSON reads 1 followed by 400 zeros;
    # the largest float itself passes
    for name in ("alpha", "beta", "eta", "sigma2"):
        for algorithm in sb.ALGORITHMS:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                sb.AgentConfig(algorithm, horizon=100, **{name: 10 ** 400})
            assert getattr(sb.AgentConfig(algorithm, **{name: sys.float_info.max}), name) \
                == sys.float_info.max
    # SAE needs two steps; the horizon it is given later is checked too
    with pytest.raises(ValueError, match="sae horizon must be >= 2"):
        sb.AgentConfig("sae", horizon=1)
    with pytest.raises(ValueError, match="sae horizon must be >= 2"):
        replace(sb.AgentConfig("sae"), horizon=1)
    assert sb.AgentConfig("asae", horizon=1).horizon == 1


def test_make_agent_dispatch(fig_right):
    cfg = sb.AgentConfig("sae", horizon=100)
    assert isinstance(sb.make_agent(fig_right, cfg), sb.SaeAgent)
    assert isinstance(
        sb.make_agent(fig_right, sb.AgentConfig("asae")), sb.AsaeAgent)
    assert isinstance(
        sb.make_agent(fig_right, sb.AgentConfig("sucb")), sb.SucbAgent)
    assert isinstance(
        sb.make_agent(fig_right, sb.AgentConfig("ucb1")), sb.Ucb1Agent)
    with pytest.raises(ValueError):
        sb.SaeAgent(fig_right, sb.AgentConfig("sae"))  # horizon required


def test_alternation_contract(fig_right):
    agent = sb.SucbAgent(fig_right, sb.AgentConfig("sucb"))
    arm = agent.select()
    with pytest.raises(RuntimeError):
        agent.select()
    with pytest.raises(ValueError):
        agent.observe((arm + 1) % 4, 1.0)
    agent.observe(arm, 1.0)
    with pytest.raises(RuntimeError):
        agent.observe(arm, 1.0)


def test_reward_support_checks(fig_right):
    agent = sb.SaeAgent(fig_right, sb.AgentConfig("sae", horizon=100))
    arm = agent.select()
    with pytest.raises(ValueError):
        agent.observe(arm, 0.5)  # bernoulli support is {0, 1}
    agent.observe(arm, 1.0)
    blind = sb.Ucb1Agent(2, sb.AgentConfig("ucb1"))
    arm = blind.select()
    with pytest.raises(ValueError):
        blind.observe(arm, math.inf)


def test_sae_phase_target_and_boundary(fig_left):
    # alpha = 2, beta = 1, n = 10^4: ceil(2 * ln(10^4) * 4) = 74 per arm
    agent = sb.SaeAgent(fig_left, FIG_LEFT_CONFIG)
    env = sb.Environment(fig_left, seed=5)
    assert agent.select() == 0  # round-robin starts at the lowest arm
    agent.observe(0, env.pull(0))
    run_steps(agent, env, 3 * 74 - 2)
    assert agent.snapshot().phase == 0
    run_steps(agent, env, 1)
    state = agent.snapshot()
    assert state.phase == 1
    assert state.removal_threshold == 0.5
    assert (state.period, state.period_horizon) == (0, 10_000)  # one period of horizon n
    record = agent.history[-1]
    assert record.phase == 1
    assert record.pull_counts == (74, 74, 74)


def test_sae_frozen_fig_left_run(fig_left):
    # the eliminations land at the 74 and 295 cumulative targets on
    # essentially every seed, pinning the regret to
    # 295 * 0.025 + 74 * 0.125 = 16.625
    for seed in (0, 1, 2):
        agent = sb.SaeAgent(fig_left, FIG_LEFT_CONFIG)
        env = sb.Environment(fig_left, seed=seed)
        result = sb.simulate(agent, env, 10_000)
        assert result.final_regret() == pytest.approx(16.625, abs=1e-9)
        assert result.pull_counts == (10_000 - 295 - 74, 295, 74)
        assert agent.snapshot().active_arms == (0,)


def test_sae_frozen_flat_variant_run():
    # with arm 1 flat, the nearest middle-region model is 0.16 from the
    # truth and only on arm 2; the 295 target leaves a radius of
    # sqrt(2 ln(10^4) / 295) = 0.25, so arm 2 runs on to the 1179 target
    # while arm 1 goes at 295 on arm-0 evidence (region-3 models are far
    # off on arm 0), pinning the regret to 295 * 0.025 + 1179 * 0.125
    flat = sb.build_figure_left(informative_arm2=False)
    gaps = sb.true_gaps(flat)
    for seed in (0, 1, 2):
        agent = sb.SaeAgent(flat, FIG_LEFT_CONFIG)
        env = sb.Environment(flat, seed=seed)
        result = sb.simulate(agent, env, 10_000)
        assert result.pull_counts == (10_000 - 295 - 1179, 295, 1179)
        assert result.final_regret() == pytest.approx(
            295 * gaps[1] + 1179 * gaps[2], abs=1e-9)
        assert [record.active_arms for record in agent.history] == [
            (0, 1, 2), (0, 1, 2), (0, 2), (0,)]


def test_sae_round_robin_fairness(fig_right):
    agent = sb.SaeAgent(fig_right, sb.AgentConfig("sae", horizon=10_000))
    env = sb.Environment(fig_right, seed=9)
    counts = Counter()
    for _ in range(200):  # stays inside phase 0 (target 74 x 4 arms)
        arm = agent.select()
        counts[arm] += 1
        agent.observe(arm, env.pull(arm))
        spread = [counts.get(a, 0) for a in range(4)]
        assert max(spread) - min(spread) <= 1


def test_sae_elimination_monotone_and_consistent(fig_left):
    agent = sb.SaeAgent(fig_left, FIG_LEFT_CONFIG)
    env = sb.Environment(fig_left, seed=3)
    run_steps(agent, env, 10_000)
    records = agent.history
    assert len(records) >= 3
    for before, after in zip(records, records[1:]):
        assert set(after.active_arms) <= set(before.active_arms)
        assert set(after.active_models) <= set(range(fig_left.model_count))
        if after.active_models:
            allowed = sb.optimal_arm_set(fig_left, after.active_models)
            assert set(after.active_arms) <= allowed


def test_sae_singleton_structure():
    structure = mk([[0.8, 0.2], [0.6, 0.3]], 0)
    agent = sb.SaeAgent(structure, sb.AgentConfig("sae", horizon=500))
    env = sb.Environment(structure, seed=0)
    result = sb.simulate(agent, env, 500)
    assert result.final_regret() == 0.0
    assert result.pull_counts == (500, 0)


def test_asae_period_schedule(fig_right):
    agent = sb.AsaeAgent(fig_right, sb.AgentConfig("asae", alpha=2.0))
    env = sb.Environment(fig_right, seed=1)
    transitions = []
    horizon = 2
    for step in range(1, 300):
        arm = agent.select()
        agent.observe(arm, env.pull(arm))
        state = agent.snapshot()
        if state.period_horizon != horizon:
            transitions.append((step, state.period, state.period_horizon))
            horizon = state.period_horizon
    assert transitions == [(2, 1, 4), (4, 2, 16), (16, 3, 256), (256, 4, 65536)]


def test_asae_fractional_and_degenerate_eta(fig_right):
    agent = sb.AsaeAgent(fig_right, sb.AgentConfig("asae", eta=0.1))
    env = sb.Environment(fig_right, seed=1)
    assert agent.select() == 0  # round-robin opens at the lowest active arm
    agent.observe(0, env.pull(0))
    run_steps(agent, env, 1)
    assert agent.snapshot().period_horizon == 3  # ceil(2^1.1)
    stalled = sb.AsaeAgent(fig_right, sb.AgentConfig("asae", eta=1e-16))
    run_steps(stalled, env, 2)
    assert stalled.snapshot().period_horizon == 3  # forced progress


def test_asae_warm_start_containment(fig_left):
    agent = sb.AsaeAgent(fig_left, sb.AgentConfig("asae", alpha=2.0))
    env = sb.Environment(fig_left, seed=4)
    run_steps(agent, env, 3000)
    records = agent.history
    assert records[-1].period >= 4
    for before, after in zip(records, records[1:]):
        if after.period == before.period:
            # elimination monotone within a period
            assert set(after.active_arms) <= set(before.active_arms)
        else:
            # period boundary: models carry over, arms recomputed from them
            assert after.phase == 0
            assert set(after.active_models) <= set(before.active_models)
            if after.active_models:
                assert set(after.active_arms) == set(
                    sb.optimal_arm_set(fig_left, after.active_models))


def test_asae_carried_pulls_meet_targets(fig_right):
    agent = sb.AsaeAgent(fig_right, sb.AgentConfig("asae", alpha=2.0))
    env = sb.Environment(fig_right, seed=2)
    run_steps(agent, env, 256)
    state = agent.snapshot()
    assert state.period == 4
    assert state.phase_start_counts == state.pull_counts
    assert sum(state.pull_counts) == 256

    # pull counts never reset across periods: with length-one periods a
    # phase target can only be met by carried totals, so reaching phase 1
    # at all proves the targets compare against totals
    crawl = sb.AsaeAgent(fig_right, sb.AgentConfig("asae", alpha=2.0, eta=1e-16))
    env = sb.Environment(fig_right, seed=2)
    run_steps(crawl, env, 400)
    assert any(record.phase >= 1 for record in crawl.history)
    by_period = {}
    for record in crawl.history:
        by_period[record.period] = max(
            by_period.get(record.period, 0), record.phase)
    assert max(by_period.values()) >= 1


def test_sucb_first_pick_and_full_set(fig_right):
    agent = sb.SucbAgent(fig_right, sb.AgentConfig("sucb", alpha=2.0))
    assert agent.select() == 1  # sup mean 0.92 beats every other column
    state = agent.snapshot()
    assert state.active_models == (0, 1, 2, 3)
    agent.observe(1, 1.0)


def test_sucb_optimism_pulls_arm3(fig_right):
    # model 2 (0.88 on arm 3) is optimistic for arm 3: once model 3 has
    # left the confidence set on arm-1 evidence and model 2 has not, SUCB
    # plays arm 3 with the true model still in the set. Seed: run 21 of
    # the long-horizon acceptance batch.
    assert sb.optimistic_models(fig_right, 3) == {2}
    agent = sb.SucbAgent(fig_right, sb.AgentConfig("sucb", alpha=2.0))
    env = sb.Environment(fig_right, seed=sb.stream_seed(7, "sucb", 21))
    run_steps(agent, env, 61)
    assert agent.snapshot().pull_counts == (0, 61, 0, 0)
    assert agent.select() == 3
    assert agent.snapshot().active_models == (0, 1, 2)


def test_sucb_singleton_structure():
    structure = mk([[0.8, 0.2], [0.6, 0.3]], 0)
    agent = sb.SucbAgent(structure, sb.AgentConfig("sucb"))
    env = sb.Environment(structure, seed=0)
    result = sb.simulate(agent, env, 200)
    assert result.final_regret() == 0.0


def test_sucb_sigma2_widens_radius(fig_right):
    base = sb.SucbAgent(fig_right, sb.AgentConfig("sucb", alpha=2.0))
    wide = sb.SucbAgent(fig_right, sb.AgentConfig("sucb", alpha=2.0, sigma2=4.0))
    assert base._coeff == 2.0  # radius^2 scale = alpha
    assert wide._coeff == 16.0  # 2 * alpha * sigma2


def sucb_lockstep(structure, config, seed, steps, rewards=None):
    """Step SUCB against the dense oracle, checking its arm and set each step.

    Rewards come from the environment, or from rewards(arm, step) when
    given.  Returns the active-model tuples after each select.
    """
    agent = sb.SucbAgent(structure, config)
    env = sb.Environment(structure, seed=seed)
    coeff = config.alpha if config.sigma2 is None else 2.0 * config.alpha * config.sigma2
    sets = []
    for t in range(1, steps + 1):
        state = agent.snapshot()
        mask = sucb_active_mask(structure, state.pull_counts, state.reward_sums, t, coeff)
        arm = agent.select()
        assert arm == sucb_arm(structure, mask, state.pull_counts, state.reward_sums), t
        active = agent.snapshot().active_models
        assert active == tuple(np.flatnonzero(mask).tolist()), t
        sets.append(active)
        agent.observe(arm, env.pull(arm) if rewards is None else rewards(arm, t))
    return sets


@pytest.mark.parametrize("case", [
    "figure_left", "flat_variant", "figure_right", "figure_right_low_fourth",
    "random", "gaussian_sigma2", "empty_set_fallback", "reentry", "wobble"])
def test_sucb_matches_dense_oracle(case):
    # the incremental confidence set against the dense per-step recompute:
    # figure_left has many tied 0.8 means on arm 1, the small alpha empties
    # the set so the empirical-best fallback runs, and in reentry a model
    # dropped on arm 0 returns while arm 1 is played (a wake of arm 0 inside
    # a stretch of arm 1); in wobble arm 0 is always played and its
    # neighbours 0.5 and 0.7 leave and re-enter its run as the mean moves
    right = sb.build_figure_right()
    structure, config = {
        "figure_left": (sb.build_figure_left(), sb.AgentConfig("sucb")),
        "flat_variant": (sb.build_figure_left(informative_arm2=False), sb.AgentConfig("sucb")),
        "figure_right": (right, sb.AgentConfig("sucb", alpha=4.0)),
        "figure_right_low_fourth": (sb.build_figure_right(0.2), sb.AgentConfig("sucb")),
        "random": (sb.generate_random(sb.GeneratorSpec(
            arm_count=6, base_model_count=20, hard_model_count=10, seed=3)),
            sb.AgentConfig("sucb")),
        "gaussian_sigma2": (replace(right, reward=sb.RewardSpec("gaussian", 0.25)),
                            sb.AgentConfig("sucb", alpha=1.0, sigma2=0.25)),
        "empty_set_fallback": (right, sb.AgentConfig("sucb", alpha=0.05)),
        "reentry": (mk([[0.2, 0.5], [0.9, 0.5]], 0), sb.AgentConfig("sucb", alpha=0.5)),
        "wobble": (mk([[0.6, 0.1], [0.7, 0.1], [0.5, 0.1]], 0), sb.AgentConfig("sucb", alpha=0.5)),
    }[case]
    for seed in (0, 1):
        sets = sucb_lockstep(structure, config, seed, 2500)
        assert len(set(sets)) > 1  # the set moved
        if case == "empty_set_fallback":
            assert () in sets
        # simulate's stretches against the plain loop, past the 8192-draw
        # refill; the state after each stretch must be the loop's after as
        # many steps, where a missed refit would still show
        horizon = 9000
        states = []
        oracle, regrets, actions = scalar_run(structure, config, seed, horizon,
                                              lambda oracle: states.append(oracle.snapshot()))
        agent = sb.SucbAgent(structure, config)
        ends = []

        def stretch(env, limit, take=agent._stretch):
            steps = take(env, limit)
            if steps:
                ends.append((agent._step, agent.snapshot()))
            return steps

        agent._stretch = stretch
        env = sb.Environment(structure, seed=seed)
        result = sb.simulate(agent, env, horizon, checkpoints=range(1, horizon + 1), audit=True)
        assert result.regret == regrets
        assert result.actions == actions
        assert agent.snapshot() == oracle.snapshot()
        assert ends  # some steps came in stretches
        for step, state in ends:
            assert state == states[step - 1], step


def test_sucb_model_reenters_between_pulls():
    # one zero reward on arm 0 drops model 1 (0.9 there) at t = 2; while
    # SUCB plays arm 1, 0.5 log t / 1 passes 0.81 at t = 6 and model 1
    # returns without another pull of arm 0
    structure = mk([[0.2, 0.5], [0.9, 0.5]], 0)
    config = sb.AgentConfig("sucb", alpha=0.5)
    pulled = []

    def rewards(arm, t):
        pulled.append(arm)
        return 0.0 if arm == 0 else float(t % 2)

    sets = sucb_lockstep(structure, config, 0, 8, rewards=rewards)
    assert sets[:6] == [(0, 1), (0,), (0,), (0,), (0,), (0, 1)]
    assert pulled[:6] == [0, 1, 1, 1, 1, 0]


def test_ucb1_sweep_and_tie():
    agent = sb.Ucb1Agent(3, sb.AgentConfig("ucb1"))
    for expected in range(3):
        arm = agent.select()
        assert arm == expected
        agent.observe(arm, 1.0)
    assert agent.select() == 0  # identical statistics: lowest index


def test_ucb1_bonus_magnitude():
    # alpha = 2, T = 74, t = 10^4: bonus ~ 0.499 decides against a 0.49
    # empirical mean and loses to 0.533
    agent = sb.Ucb1Agent(2, sb.AgentConfig("ucb1", alpha=2.0))
    agent._step = 9_999
    agent._pulls = [74, 9_925]
    for mean1, expected in ((0.49, 1), (0.44, 0)):
        agent._rewards = [0.0, mean1 * 9_925]
        assert agent._choose() == expected


class FixedArm:
    """A duck-typed four-arm agent that always plays one arm."""

    arm_count = 4
    config = sb.AgentConfig("ucb1")

    def __init__(self, arm):
        self.arm = arm
        self.pulls = [0] * 4

    def select(self):
        return self.arm

    def observe(self, arm, reward):
        self.pulls[arm] += 1

    def snapshot(self):
        return sb.AgentState(
            pull_counts=tuple(self.pulls), reward_sums=(0.0,) * 4,
            active_models=(), active_arms=(self.arm,), phase=0,
            removal_threshold=1.0, period=0, period_horizon=None,
            phase_start_counts=(0,) * 4)


def test_simulate_zero_and_fixed_regret(fig_right):
    env = sb.Environment(fig_right, seed=0)
    result = sb.simulate(FixedArm(0), env, 100, checkpoints=(50, 100))
    assert result.regret == (0.0, 0.0)
    result = sb.simulate(FixedArm(2), sb.Environment(fig_right, seed=0), 100)
    assert result.regret == (pytest.approx(20.0),)


def test_simulate_contracts(fig_right):
    agent = sb.Ucb1Agent(3, sb.AgentConfig("ucb1"))
    with pytest.raises(ValueError):
        sb.simulate(agent, sb.Environment(fig_right, seed=0), 10)
    agent = sb.Ucb1Agent(4, sb.AgentConfig("ucb1"))
    env = sb.Environment(fig_right, seed=0)
    with pytest.raises(ValueError):
        sb.simulate(agent, env, 0)
    with pytest.raises(ValueError):
        sb.simulate(agent, env, 10, checkpoints=(5, 3))
    with pytest.raises(ValueError):
        sb.simulate(agent, env, 10, checkpoints=(0, 5))
    with pytest.raises(ValueError):
        sb.simulate(agent, env, 10, checkpoints=(5, 11))


def test_simulate_audit_log(fig_right):
    agent = sb.SucbAgent(fig_right, sb.AgentConfig("sucb", alpha=2.0))
    env = sb.Environment(fig_right, seed=7)
    result = sb.simulate(agent, env, 300, checkpoints=(100, 100, 300), audit=True)
    assert result.actions is not None and len(result.actions) == 300
    counted = Counter(result.actions)
    assert tuple(counted.get(i, 0) for i in range(4)) == result.pull_counts
    gaps = sb.true_gaps(fig_right)
    assert result.regret[-1] == pytest.approx(
        sum(gaps[a] for a in result.actions), abs=1e-9)
    assert result.regret[0] == result.regret[1]  # duplicate checkpoint
    assert result.checkpoints == (100, 100, 300)
    # identical seeds reproduce the run exactly
    again = sb.simulate(
        sb.SucbAgent(fig_right, sb.AgentConfig("sucb", alpha=2.0)),
        sb.Environment(fig_right, seed=7), 300, checkpoints=(100, 100, 300))
    assert again == result  # actions excluded from equality


BLOCK_STRUCTURES = {
    "figure_right": (sb.build_figure_right, 30_000),
    "figure_left": (sb.build_figure_left, 10_000),
    # 50 arms x 150 models: no run settles within 10^4 steps, so round-robin
    # blocks cross the 8192-draw refill and ASAE periods end mid-pass
    "random": (lambda: sb.generate_random(sb.GeneratorSpec(
        arm_count=50, base_model_count=100, hard_model_count=50, seed=1)), 10_000),
}
SAE = sb.AgentConfig("sae", horizon=30_000)
ASAE_001, ASAE_01, ASAE_1 = (sb.AgentConfig("asae", eta=eta) for eta in (0.01, 0.1, 1.0))


@pytest.mark.parametrize("reward", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("name,config", [
    ("figure_right", SAE),
    ("figure_right", sb.AgentConfig("sae", alpha=0.05, horizon=30_000)),
    ("figure_right", ASAE_001),
    ("figure_right", ASAE_1),
    *((name, config) for name in ("figure_left", "random")
      for config in (SAE, ASAE_001, ASAE_01, ASAE_1))],
    ids=["sae", "sae_a005", "asae_001", "asae_1",
         *(f"{name}_{tag}" for name in ("left", "random")
           for tag in ("sae", "asae_001", "asae_01", "asae_1"))])
def test_forced_blocks_match_scalar_steps(name, config, reward):
    # simulate takes every eliminator step in blocks, settled arms and round
    # robins alike; a plain select/pull/observe loop is the oracle.  Every
    # step is a checkpoint, so regret is compared inside every block,
    # across draw-chunk refills (8192 draws) and at ASAE period boundaries.
    build, horizon = BLOCK_STRUCTURES[name]
    structure = build()
    if reward == "gaussian":
        structure = replace(structure, reward=sb.RewardSpec("gaussian", 0.25))
    gaps = sb.true_gaps(structure)
    settled_gaps = []
    # at alpha = 0.05, seed 5 ends on a suboptimal fallback arm
    for seed in (0, 5):
        mid_pass = []

        def watch(oracle):
            # the next step ends the period inside a round-robin cycle
            mid_pass.append(oracle._rr_pos != 0
                            and oracle._step + 1 == oracle._period_horizon)

        oracle, regrets, actions = scalar_run(structure, config, seed, horizon, watch)
        agent = sb.make_agent(structure, config)
        env = sb.Environment(structure, seed=seed)
        env.pull = None  # every step comes in blocks
        result = sb.simulate(agent, env, horizon,
                             checkpoints=range(1, horizon + 1), audit=True)
        assert result.regret == regrets
        assert result.actions == actions
        assert result.pull_counts == oracle.snapshot().pull_counts
        assert agent.snapshot() == oracle.snapshot()
        assert agent.history == oracle.history
        if config.algorithm == "asae":
            assert agent.snapshot().period >= 3
        if name == "random":
            assert all(len(record.active_arms) > 1 for record in agent.history)
            assert any(mid_pass) or config.algorithm == "sae"
        state = agent.snapshot()
        settled = agent.fallback_arm
        if settled is None and len(state.active_arms) == 1:
            settled = state.active_arms[0]
        if settled is not None:
            settled_gaps.append(gaps[settled])
    if config.alpha == 0.05:
        # a nonzero gap in a block: k * gap would not give the sums above
        assert max(settled_gaps) > 0.0


@pytest.mark.parametrize("config,seed", [
    (SAE, 0), (ASAE_001, 0), (sb.AgentConfig("sucb"), 0), (None, 0),
    (sb.AgentConfig("sae", alpha=0.05, horizon=30_000), 5)],
    ids=["sae", "asae_001", "sucb", "fixed_arm", "sae_a005_seed5"])
def test_sparse_checkpoints_match_every_step(fig_right, config, seed):
    # checkpoints that fall inside multi-step plays, on either side of the
    # 8192-draw refill and twice on one step take the values that a run
    # with every step a checkpoint records there
    horizon = 30_000
    cps = sorted([1, 2, 8191, 8192, 8192, 8193, *sb.default_checkpoints(horizon)])

    def run(checkpoints):
        agent = FixedArm(2) if config is None else sb.make_agent(fig_right, config)
        env = sb.Environment(fig_right, seed=seed)
        return agent, sb.simulate(agent, env, horizon, checkpoints=checkpoints)

    agent, sparse = run(cps)
    _, every = run(range(1, horizon + 1))
    assert sparse.regret == tuple(every.regret[c - 1] for c in cps)
    assert sparse.pull_counts == every.pull_counts
    if seed == 5:
        # settled on a suboptimal fallback: its blocks add a nonzero gap
        assert sb.true_gaps(fig_right)[agent.fallback_arm] > 0.0


@pytest.mark.parametrize("config", [SAE, ASAE_001, ASAE_1], ids=["sae", "asae_001", "asae_1"])
def test_history_records_are_snapshots_as_phases_open(fig_right, config):
    # each record is the agent's whole state as its phase opened: the scalar
    # oracle's snapshot right after the step that opened it (the first
    # record, before any step); of phases opened back to back in one step,
    # the last record is that step's snapshot
    after = []

    def watch(oracle):
        after.append((len(oracle.history), oracle.snapshot()))

    scalar_run(fig_right, config, 0, 30_000, watch)
    agent = sb.make_agent(fig_right, config)
    opening = agent.snapshot()
    sb.simulate(agent, sb.Environment(fig_right, seed=0), 30_000)
    history = agent.history
    assert history[0] == opening and opening.phase == 0
    seen, compared, back_to_back = 1, 1, 0
    for count, state in after:
        if count > seen:
            assert history[count - 1] == state, count
            compared += 1
            back_to_back += count - seen > 1
            seen = count
    assert seen == len(history) and compared >= 4
    if config is ASAE_001:  # its short periods start with phases already paid for
        assert back_to_back
    assert all(record.removal_threshold == 2.0 ** -record.phase for record in history)


def test_simulate_refuses_reward_kind_mismatch(fig_right):
    # blocks and stretches fold the environment's rewards unchecked, so an
    # agent built for the other reward kind is refused before the first step
    gaussian = replace(fig_right, reward=sb.RewardSpec("gaussian", 0.25))
    for algorithm in ("sae", "asae", "sucb"):
        for agent_side, env_side in ((fig_right, gaussian), (gaussian, fig_right)):
            agent = sb.make_agent(agent_side, sb.AgentConfig(algorithm, horizon=100))
            before = agent.snapshot()
            message = (f"agent expects {agent_side.reward.kind} rewards, "
                       f"environment draws {env_side.reward.kind}")
            with pytest.raises(ValueError, match=message):
                sb.simulate(agent, sb.Environment(env_side, seed=0), 100)
            assert agent.snapshot() == before, algorithm
    # UCB1 and duck-typed agents carry no reward kind and run on either
    for structure in (fig_right, gaussian):
        for agent in (sb.Ucb1Agent(4, sb.AgentConfig("ucb1")), FixedArm(1)):
            result = sb.simulate(agent, sb.Environment(structure, seed=0), 100)
            assert sum(result.pull_counts) == 100


def test_largest_gaussian_variance_keeps_results_finite(fig_right):
    # RewardSpec refuses a non-finite variance, so sigma <= sqrt(max float)
    # and mu + sigma * draw is finite: the engine needs no reward check
    widest = replace(fig_right, reward=sb.RewardSpec("gaussian", sys.float_info.max))
    configs = [sb.AgentConfig("sae", horizon=20_000), sb.AgentConfig("asae"),
               sb.AgentConfig("sucb"), sb.AgentConfig("ucb1")]
    with np.errstate(all="raise"):
        for config in configs:
            agent = sb.make_agent(widest, config)
            result = sb.simulate(agent, sb.Environment(widest, seed=3), 20_000)
            assert all(map(math.isfinite, result.regret)), config
            assert all(map(math.isfinite, agent.snapshot().reward_sums)), config
        batch = sb.run_batch(sb.ExperimentConfig(
            structure=widest, agents=(configs[3],), horizon=20_000, runs=2,
            checkpoints=(10_000, 20_000)))
    aggregate = batch.aggregates["ucb1"]
    assert all(map(math.isfinite, aggregate.mean_regret + aggregate.regret_half_width))
    assert sum(aggregate.mean_pulls) == 20_000


def test_environment_reward_streams(fig_right):
    env = sb.Environment(fig_right, seed=11)
    draws = [env.pull(0) for _ in range(200)]
    assert set(draws) <= {0.0, 1.0}
    assert abs(sum(draws) / 200 - 0.8) < 0.1
    replay = sb.Environment(fig_right, seed=11)
    assert [replay.pull(0) for _ in range(200)] == draws

    gspec = sb.RewardSpec("gaussian", 0.25)
    structure = mk([[0.4, 0.2]], 0, reward=gspec)
    env = sb.Environment(structure, seed=11)
    sample = [env.pull(0) for _ in range(2000)]
    assert abs(np.mean(sample) - 0.4) < 0.05
    assert abs(np.std(sample) - 0.5) < 0.05
    with pytest.raises(ValueError):
        sb.RewardSpec("gaussian", 0.0)
