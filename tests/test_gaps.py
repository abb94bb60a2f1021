"""Gap primitives, psi, and the structure classifiers."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import structbandit as sb
import oracles
from helpers import mk, structures_strategy

REGION1 = (0.8, 0.7, 0.6, 0.5)
REGION2 = (0.8, 0.7, 0.84, 0.1)
REGION3 = (0.8, 0.4, 0.6, 0.88)
REGION4 = (0.8, 0.92, 0.6, 0.5)


@pytest.fixture(scope="module")
def fig_right():
    return sb.build_figure_right()


@pytest.fixture(scope="module")
def fig_left():
    return sb.build_figure_left()


def test_bandit_model_optimal_arm():
    assert sb.BanditModel(REGION1).optimal_arm == 0
    assert sb.BanditModel((1.0,)).optimal_arm == 0
    assert sb.BanditModel(REGION4).optimal_arm == 1


def test_bandit_model_stored_optimum():
    # optimal_arm and optimal_mean are set once on creation; equality, hash
    # and repr see the means only, and a pickled copy keeps both
    model = sb.BanditModel((0.2, 0.9, 0.4))
    assert (model.optimal_arm, model.optimal_mean) == (1, 0.9)
    assert repr(model) == "BanditModel(means=(0.2, 0.9, 0.4))"
    assert model == sb.BanditModel([0.2, 0.9, 0.4])
    assert hash(model) == hash(sb.BanditModel((0.2, 0.9, 0.4)))
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and (copy.optimal_arm, copy.optimal_mean) == (1, 0.9)


def test_bandit_model_validation():
    with pytest.raises(ValueError):
        sb.BanditModel((0.5, 1.2))
    with pytest.raises(ValueError):
        sb.BanditModel((-0.1, 0.5))
    with pytest.raises(ValueError):
        sb.BanditModel((0.7, 0.7, 0.2))


def test_structure_validation():
    with pytest.raises(ValueError):
        sb.Structure(models=(), true_index=0)
    with pytest.raises(ValueError):
        mk([[0.1, 0.5], [0.1, 0.5, 0.9]], 0)
    with pytest.raises(ValueError):
        mk([[0.1, 0.5]], 3)


def test_suboptimality_gap_examples():
    model = sb.BanditModel(REGION1)
    assert sb.suboptimality_gap(model, 2) == pytest.approx(0.2, abs=1e-12)
    assert sb.suboptimality_gap(model, 0) == 0.0
    second = sb.BanditModel((0.8, 0.2, 0.86))
    assert sb.suboptimality_gap(second, 1) == pytest.approx(0.66, abs=1e-12)
    with pytest.raises(ValueError):
        sb.suboptimality_gap(model, 4)


def test_model_gap_examples():
    a, b = sb.BanditModel(REGION1), sb.BanditModel(REGION3)
    assert sb.model_gap(a, b, 3) == pytest.approx(0.38, abs=1e-12)
    assert sb.model_gap(a, b, 3) == sb.model_gap(b, a, 3)
    assert sb.model_gap(a, a, 1) == 0.0
    assert sb.model_gap(a, sb.BanditModel(REGION2), 0) == 0.0
    with pytest.raises(ValueError):
        sb.model_gap(a, sb.BanditModel((0.5, 0.2)), 0)


def test_true_gaps(fig_right):
    gaps = sb.true_gaps(fig_right)
    assert gaps == pytest.approx((0.0, 0.1, 0.2, 0.3), abs=1e-12)


def test_optimal_arm_set(fig_right):
    assert sb.optimal_arm_set(fig_right) == frozenset({0, 1, 2, 3})
    assert sb.optimal_arm_set(fig_right, (fig_right.true_index,)) == frozenset({0})
    with pytest.raises(ValueError):
        sb.optimal_arm_set(fig_right, ())
    with pytest.raises(ValueError):
        sb.optimal_arm_set(fig_right, (7,))


def test_optimal_arm_set_flat_variant():
    flat = sb.build_figure_left(informative_arm2=False)
    arms = sb.optimal_arm_set(flat)
    assert {0, 2}.issubset(arms)
    # arm 1 belongs iff it wins some third-region model
    third = range(2 * 17, 3 * 17)
    wins = any(flat.models[k].optimal_arm == 1 for k in third)
    assert (1 in arms) == wins
    assert wins  # the flat middle arm dominates the whole third region


def test_models_with_optimal_arm(fig_right):
    assert sb.models_with_optimal_arm(fig_right, 2) == frozenset({1})
    assert sb.models_with_optimal_arm(fig_right, 0) == frozenset({0})
    never = mk([[0.8, 0.2, 0.5], [0.2, 0.8, 0.5]], 0)
    assert sb.models_with_optimal_arm(never, 2) == frozenset()


def test_optimistic_models(fig_right):
    assert sb.optimistic_models(fig_right, 2) == frozenset({1})
    assert sb.optimistic_models(fig_right, 1) == frozenset({3})
    # strictly-greater test excludes the true model on its own arm
    assert fig_right.true_index not in sb.optimistic_models(fig_right, 0)
    assert sb.optimistic_models(fig_right, 0) == frozenset()


def test_psi_examples(fig_right):
    value, argmin = sb.psi(fig_right, (1,), (0, 1, 2, 3))
    assert value == pytest.approx(0.16, abs=1e-12)
    assert argmin == 1
    value, argmin = sb.psi(fig_right, (1,), (2,))
    assert value == pytest.approx(0.0576, abs=1e-12)
    assert argmin == 1
    value, argmin = sb.psi(fig_right, (0, 1, 2), (0, 1, 2, 3))
    assert value == 0.0
    assert argmin == fig_right.true_index


def test_psi_conventions(fig_right):
    assert sb.psi(fig_right, (), (0,)) == (math.inf, None)
    with pytest.raises(ValueError):
        sb.psi(fig_right, (0, 1), ())
    tie = mk([[0.5, 0.3], [0.7, 0.3], [0.3, 0.1]], 0)
    value, argmin = sb.psi(tie, (1, 2), (0,))
    assert value == pytest.approx(0.04, abs=1e-12)
    assert argmin == 1  # lowest model index on ties


def test_gamma_star(fig_right, fig_left):
    assert sb.gamma_star(fig_right) == 0.0
    assert sb.gamma_star(mk([[0.4, 0.9]], 0)) == math.inf
    # region-1 midpoint true model: continuum value 0.025 plus half a grid step
    expected = 0.025 + 0.4 * (0.5 / 17)
    assert sb.gamma_star(fig_left) == pytest.approx(expected, abs=1e-12)
    assert sb.gamma_star(fig_left) == pytest.approx(0.025, abs=0.02)


def test_delta_floor(fig_right):
    assert sb.delta_floor(fig_right) == pytest.approx(0.04, abs=1e-12)
    assert sb.delta_floor(mk([[0.4, 0.9]], 0)) == math.inf
    two = mk([[0.6, 0.3], [0.55, 0.8]], 0)
    assert sb.delta_floor(two) == pytest.approx(0.25, abs=1e-12)


def test_classify_fig_right(fig_right):
    result = sb.classify(fig_right)
    # arm 2's only optimistic model is visible on arm 3, so worst-case fails
    assert result.in_worst_case is False
    assert result.in_optimality is None
    # competitors touch arms other than their own optimal and the true one
    assert result.in_constant_regret is False
    sequences = sb.deterministic_sequences(fig_right, alpha=4.0, beta=2.0, n=500000)
    assert sb.classify(fig_right, sequences).in_optimality is True


def test_classify_product_grid_is_worst_case():
    rows = [(a, b) for a in (0.2, 0.5, 0.8) for b in (0.3, 0.6, 0.9)]
    grid = mk(rows, rows.index((0.5, 0.6)))
    assert sb.classify(grid).in_worst_case is True


def test_classify_constant_regret_construction():
    g = 1e-4
    rows = [[0.5, 0.3, 0.2], [0.5 - g, 0.6, 0.2], [0.5 - g, 0.3, 0.7]]
    structure = mk(rows, 0)
    result = sb.classify(structure)
    assert result.in_constant_regret is True
    assert sb.gamma_star(structure) == pytest.approx(g, abs=1e-12)
    # disturb one invisible arm and membership is lost
    rows[1][2] = 0.25
    assert sb.classify(mk(rows, 0)).in_constant_regret is False


@settings(max_examples=60, deadline=None)
@given(structures_strategy(), st.data())
def test_psi_matches_oracle_and_is_monotone(structure, data):
    model_count = structure.model_count
    arm_count = structure.arm_count
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(0, model_count - 1)))))
    arms = tuple(sorted(data.draw(
        st.sets(st.integers(0, arm_count - 1), min_size=1))))
    value, argmin = sb.psi(structure, subset, arms)
    assert (value, argmin) == oracles.oracle_psi(structure, subset, arms)
    # enlarging the arm set can only increase the separation
    full_arms = tuple(range(arm_count))
    bigger, _ = sb.psi(structure, subset, full_arms)
    assert bigger >= value
    # enlarging the model subset can only decrease it
    smaller, _ = sb.psi(structure, tuple(range(model_count)), arms)
    assert smaller <= value


@settings(max_examples=60, deadline=None)
@given(structures_strategy())
def test_scalars_match_oracles(structure):
    assert sb.gamma_star(structure) == oracles.oracle_gamma_star(structure)
    assert sb.delta_floor(structure) == oracles.oracle_delta_floor(structure)
    assert sb.optimal_arm_set(structure) == oracles.oracle_optimal_arm_set(structure)
    result = sb.classify(structure)
    assert result.in_worst_case == oracles.oracle_in_wc(structure)
    assert result.in_constant_regret == oracles.oracle_in_cr(structure)


@settings(max_examples=60, deadline=None)
@given(structures_strategy())
def test_set_and_floor_invariants(structure):
    true = structure.true_model
    i_star = structure.optimal_arm
    floor = sb.delta_floor(structure)
    for arm in range(structure.arm_count):
        optimistic = sb.optimistic_models(structure, arm)
        assert optimistic <= sb.models_with_optimal_arm(structure, arm)
    for model in structure.models:
        if model.optimal_arm != i_star:
            assert model.optimal_mean - model.means[i_star] >= floor - 1e-15
