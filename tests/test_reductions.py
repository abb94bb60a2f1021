"""The array reductions over a structure's means matrix against the
per-model loops they replaced (``oracles``), bit for bit, on structures
with copied, hard and nearly true models and on small generated ones."""

import math

from hypothesis import given, settings, strategies as st

import structbandit as sb
import oracles
from helpers import copies_strategy, mk

# generated structures: hard models as the generator plants them, and
# schedules long enough for the staleness discount to matter now and then
STRUCTURES = st.one_of(copies_strategy(), st.builds(sb.generate_random, st.builds(
    sb.GeneratorSpec, arm_count=st.integers(3, 12), base_model_count=st.integers(1, 15),
    hard_model_count=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))))


@settings(max_examples=150, deadline=None)
@given(STRUCTURES, st.data())
def test_psi_matches_oracle(structure, data):
    subset = sorted(data.draw(st.sets(st.integers(0, structure.model_count - 1))))
    arms = sorted(data.draw(st.sets(st.integers(0, structure.arm_count - 1), min_size=1)))
    result = sb.psi(structure, subset, arms)
    assert result == oracles.oracle_psi(structure, subset, arms)
    if not subset:
        assert result == (math.inf, None)


def test_psi_ties_keep_the_lowest_index():
    # models 1 and 3 are copies, model 2 sits as far on another arm
    structure = mk([[0.5, 0.3, 0.2], [0.4, 0.6, 0.2], [0.5, 0.6, 0.3], [0.4, 0.6, 0.2]], 0)
    assert sb.psi(structure, (3, 2, 1), (0, 1, 2)) == (0.3 ** 2, 1)
    assert sb.psi(structure, (3, 2), (0, 1, 2)) == (0.3 ** 2, 2)
    assert sb.psi(structure, (0, 1), (2,)) == (0.0, 0)


@settings(max_examples=400, deadline=None)
@given(STRUCTURES, st.sampled_from((1.5, 2.0, 3.0)), st.sampled_from((64, 1000, 500_000)))
def test_sequences_match_oracle(structure, beta, n):
    seqs = sb.deterministic_sequences(structure, alpha=beta * beta, beta=beta, n=n)
    assert (seqs.active, seqs.removed, seqs.surely_active, seqs.last_active_phase,
            seqs.informative_arms, seqs.unresolved) == oracles.oracle_sequences(structure, beta, n)


@settings(max_examples=100, deadline=None)
@given(STRUCTURES, st.sampled_from((1.5, 2.0, 3.0)))
def test_classify_and_bound_separations_match_oracles(structure, beta):
    n = 100_000
    seqs = sb.deterministic_sequences(structure, alpha=beta * beta, beta=beta, n=n)
    result = sb.classify(structure, seqs)
    assert result.in_worst_case == oracles.oracle_in_wc(structure)
    assert result.in_optimality == oracles.oracle_in_opt(structure, seqs.informative_arms)
    assert result.in_constant_regret == oracles.oracle_in_cr(structure)
    assert sb.gamma_star(structure) == oracles.oracle_gamma_star(structure)
    assert sb.delta_floor(structure) == oracles.oracle_delta_floor(structure)
    i_star = structure.optimal_arm
    favouring = {i: sorted(sb.models_with_optimal_arm(structure, i))
                 for i in range(structure.arm_count)}
    optimistic = {i: sorted(sb.optimistic_models(structure, i))
                  for i in range(structure.arm_count)}
    expected = {
        "sae": lambda i: oracles.oracle_psi(structure, favouring[i],
                                            sorted(seqs.informative_arms[i])),
        "asae": lambda i: oracles.oracle_psi(structure, favouring[i], sorted({i, i_star})),
        "sucb": lambda i: oracles.oracle_psi(structure, optimistic[i], (i,)),
    }
    reports = {"sae": sb.sae_bound(structure, seqs), "asae": sb.asae_bound(structure, n),
               "sucb": sb.sucb_bound(structure, n)}
    for name, report in reports.items():
        for term in report.terms:
            assert term.separation == expected[name](term.arm)[0], (name, term)


@settings(max_examples=150, deadline=None)
@given(STRUCTURES, st.data())
def test_filter_models_matches_oracle(structure, data):
    algorithm = data.draw(st.sampled_from(("sae", "asae")))
    alpha = data.draw(st.sampled_from((0.5, 2.0, 4.0)))
    agent = sb.make_agent(structure, sb.AgentConfig(algorithm, alpha=alpha, horizon=1000))
    base = sorted(data.draw(st.sets(st.integers(0, structure.model_count - 1), min_size=1)))
    pulls = [data.draw(st.integers(0, 60)) for _ in range(structure.arm_count)]
    rewards = [float(data.draw(st.integers(0, count))) for count in pulls]
    agent._start_period(agent._period_horizon, base)
    agent._pulls, agent._rewards = pulls, rewards
    assert agent._filter_models() == oracles.oracle_filter_models(
        structure, base, pulls, rewards, alpha, agent._log_nk)


def test_means_matrix_is_read_only():
    structure = sb.build_figure_right()
    assert structure.means.shape == (4, 4)
    assert structure.optimal_arms.tolist() == [0, 2, 3, 1]
    assert not structure.means.flags.writeable and not structure.optimal_arms.flags.writeable
    assert structure.means.tolist() == [[0.8, 0.7, 0.6, 0.5], [0.8, 0.7, 0.84, 0.1],
                                        [0.8, 0.4, 0.6, 0.88], [0.8, 0.92, 0.6, 0.5]]
