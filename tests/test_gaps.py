"""Gap primitives, psi, and the structure classifiers."""

import math
import pickle
from dataclasses import replace

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_structure_optimal_arms():
    assert mk([REGION1, REGION4, REGION3], 0).optimal_arms.tolist() == [0, 1, 3]
    assert mk([REGION4, REGION1], 0).optimal_arm == 1
    assert mk([(1.0,)], 0).optimal_arm == 0


def test_structure_stored_optimum():
    # optimal_arms is set once on creation; equality sees the means, the
    # true index, the reward and the provenance, a structure is unhashable,
    # and a pickled copy or a replace() rebuilds both arrays read-only
    structure = mk([(0.2, 0.9, 0.4), (0.5, 0.1, 0.3)], 1)
    assert structure.optimal_arms.tolist() == [1, 0]
    assert structure.means.max(axis=1).tolist() == [0.9, 0.5]
    assert structure == mk([[0.2, 0.9, 0.4], [0.5, 0.1, 0.3]], 1)
    assert structure != mk([[0.2, 0.9, 0.4], [0.5, 0.1, 0.3]], 0)
    assert structure != mk([[0.2, 0.9, 0.4], [0.5, 0.1, 0.25]], 1)
    assert structure != replace(structure, provenance={"builder": "x"})
    assert structure != structure.means.tolist()
    with pytest.raises(TypeError):
        hash(structure)
    gaussian = replace(structure, reward=sb.RewardSpec("gaussian", 0.5))
    for copy in (pickle.loads(pickle.dumps(structure)), gaussian):
        assert np.array_equal(copy.means, structure.means)
        assert copy.optimal_arms.tolist() == [1, 0]
        assert not copy.means.flags.writeable and not copy.optimal_arms.flags.writeable
    assert pickle.loads(pickle.dumps(structure)) == structure
    assert gaussian.reward == sb.RewardSpec("gaussian", 0.5) and gaussian != structure


def test_structure_mean_validation():
    # the first offender names its model and arm: the lowest model, then
    # its lowest arm, a mean outside [0, 1] before a tie in the same model
    for rows, message in (
            ([(0.5, 1.2)], r"^model 0, arm 1: mean 1\.2 outside \[0, 1\]$"),
            ([(0.5, 0.2), (-0.1, 0.5)], r"^model 1, arm 0: mean -0\.1 outside \[0, 1\]$"),
            ([(0.5, 0.2), (0.7, 0.7)], r"^model 1, arms 0 and 1: tied optimal means; "
                                        r"a model needs a unique maximum$"),
            ([(0.7, 0.7, 1.5)], r"^model 0, arm 2: mean 1\.5 outside"),
            ([(0.7, 0.2, 0.7), (0.5, 2.0, 0.1)], r"^model 0, arms 0 and 2: tied"),
            ([(0.5, 0.2), (0.3, math.nan)], r"^model 1, arm 1: mean nan outside"),
            ([(0.5, 10 ** 400)], r"^model 0, arm 1: mean 1000+ outside"),
            ([(1.0, 1.0)], r"^model 0, arms 0 and 1: tied"),
            # numbers only, named before any range or tie: np.array parses
            # "0.5" and takes True for 1
            ([("0.5", "0.25")], r"^model 0, arm 0: mean '0\.5' is not a number$"),
            ([(True, 0.25), (0.2, 0.6)], r"^model 0, arm 0: mean True is not a number$"),
            ([(0.2, 0.6), (0.5, 1.5), (2.0, False)],
             r"^model 2, arm 1: mean False is not a number$"),
            ([(0.7, 0.7), (0.2, "x")], r"^model 1, arm 1: mean 'x' is not a number$")):
        with pytest.raises(ValueError, match=message):
            mk(rows, 0)


# integers, nan, values just outside [0, 1], subnormals, both zeros, ties at 1.0
_MEANS = st.one_of(
    st.sampled_from([0, 1, 2, -1, 10 ** 400, -10 ** 400, 0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.0000000000000002, 0.9999999999999999,
                     math.nan, math.inf]),
    st.floats(-0.25, 1.25))


@st.composite
def _row_sets(draw):
    models, arms = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    extra = 2 if draw(st.booleans()) else 0  # rows of unequal length
    rows = [draw(st.lists(_MEANS, min_size=arms, max_size=arms + extra)) for _ in range(models)]
    return rows, draw(st.integers(-1, models))


@settings(max_examples=300, deadline=None)
@given(_row_sets())
@example(([[1.0, 1], [5e-324, 0.0]], 0))  # a tie at 1.0 between an int and a float
@example(([[5e-324, 0.0], [0.25, 0.5]], 1))  # a subnormal maximum
@example(([[0.5, 0.7, 0.7], [0.5, 10 ** 400]], 0))  # a tie before an int past the floats
def test_structure_checks_match_per_model_rules(case):
    # Structure accepts exactly the row sets the per-model rules accept, and
    # names the same first offender; unequal rows are refused by both
    rows, true_index = case
    expected = oracles.oracle_structure_error(rows, true_index)
    try:
        structure = sb.Structure(rows, true_index)
    except ValueError as exc:
        assert expected is not None, rows
        if len({len(row) for row in rows}) <= 1:
            assert str(exc) == expected, rows
    else:
        assert expected is None, rows
        assert structure.means.tolist() == [[float(m) for m in row] for row in rows]
        assert structure.optimal_arms.tolist() == [row.index(max(row)) for row in rows]


def test_structure_validation():
    with pytest.raises(ValueError, match="^structure needs at least one model$"):
        sb.Structure((), true_index=0)
    with pytest.raises(ValueError, match="^model 0, no means; a model needs at least one arm$"):
        sb.Structure([(), ()], true_index=0)
    with pytest.raises(ValueError, match="^model 1 has 3 arms, expected 2 like model 0$"):
        mk([[0.1, 0.5], [0.1, 0.5, 0.9]], 0)
    with pytest.raises(ValueError, match="^true_index 3 out of range for 1 models$"):
        mk([[0.1, 0.5]], 3)


def test_suboptimality_gap_examples():
    assert sb.suboptimality_gap(REGION1, 2) == pytest.approx(0.2, abs=1e-12)
    assert sb.suboptimality_gap(REGION1, 0) == 0.0
    assert sb.suboptimality_gap((0.8, 0.2, 0.86), 1) == pytest.approx(0.66, abs=1e-12)
    assert sb.suboptimality_gap(mk([REGION3], 0).means[0], 1) == pytest.approx(0.48, abs=1e-12)
    with pytest.raises(ValueError):
        sb.suboptimality_gap(REGION1, 4)


def test_model_gap_examples():
    a, b = REGION1, REGION3
    assert sb.model_gap(a, b, 3) == pytest.approx(0.38, abs=1e-12)
    assert sb.model_gap(a, b, 3) == sb.model_gap(b, a, 3)
    assert sb.model_gap(a, a, 1) == 0.0
    assert sb.model_gap(a, REGION2, 0) == 0.0
    means = sb.build_figure_right().means
    assert sb.model_gap(means[0], means[2], 3) == sb.model_gap(a, b, 3)
    with pytest.raises(ValueError):
        sb.model_gap(a, (0.5, 0.2), 0)


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
    wins = any(flat.optimal_arms[k] == 1 for k in third)
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
    i_star = structure.optimal_arm
    floor = sb.delta_floor(structure)
    for arm in range(structure.arm_count):
        optimistic = sb.optimistic_models(structure, arm)
        assert optimistic <= sb.models_with_optimal_arm(structure, arm)
    for k, means in enumerate(structure.means.tolist()):
        if structure.optimal_arms[k] != i_star:
            assert sb.suboptimality_gap(means, i_star) >= floor - 1e-15
