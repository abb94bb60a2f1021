"""Elimination schedules and closed-form regret guarantees.

The four-model benchmark schedule (beta = 2, alpha = 4, n = 500000) was
executed by hand and its phase sets are frozen here; bound values are
checked against independently evaluated scalar formulas.
"""

import math

import pytest
from hypothesis import given, settings

import structbandit as sb
from helpers import mk, structures_strategy

N_RIGHT = 500_000


@pytest.fixture(scope="module")
def fig_right():
    return sb.build_figure_right()


@pytest.fixture(scope="module")
def right_sequences(fig_right):
    return sb.deterministic_sequences(fig_right, alpha=4.0, beta=2.0, n=N_RIGHT)


def test_k_beta_examples():
    assert sb.k_beta(3.0, 10**9) == pytest.approx(2.0, abs=0.01)
    # log n = 1 makes the slack term exactly 1
    assert sb.k_beta(3.0, math.e) == pytest.approx(0.5 * math.sqrt(17.0), abs=1e-12)
    assert sb.k_beta(1.0, 100) is None
    assert sb.k_beta(0.5, 100) is None
    with pytest.raises(ValueError):
        sb.k_beta(3.0, 1)


def test_sequences_frozen_benchmark(right_sequences):
    seqs = right_sequences
    expected_kb = math.sqrt(9.0 + 1.0 / math.log(N_RIGHT))
    assert seqs.k_beta == pytest.approx(expected_kb, abs=1e-12)
    assert seqs.k_beta == pytest.approx(3.0127, abs=1e-4)
    assert seqs.active == (
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2}),
        frozenset({0}),
    )
    assert seqs.removed == (
        frozenset(),
        frozenset(),
        frozenset({3}),
        frozenset({1, 2}),
    )
    assert seqs.surely_active == (
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1}),
        frozenset({0}),
        frozenset({0}),
    )
    assert seqs.last_active_phase == {3: 2, 1: 3, 2: 3}
    assert seqs.informative_arms == {
        1: frozenset({0, 1}),
        2: frozenset({0, 2}),
        3: frozenset({0, 3}),
    }
    assert seqs.unresolved == frozenset()
    assert seqs.alpha_beta_mismatch is False
    assert sb.deterministic_sequences(
        sb.build_figure_right(), alpha=2.0, beta=2.0, n=N_RIGHT
    ).alpha_beta_mismatch is True


def test_sequences_immediate_elimination():
    # maximal separation: the competitor leaves in phase 0
    structure = mk([[1.0, 0.0], [0.0, 1.0]], 0)
    seqs = sb.deterministic_sequences(structure, alpha=4.0, beta=2.0, n=1000)
    assert seqs.removed[0] == frozenset({1})
    assert seqs.last_active_phase == {1: 0}
    assert seqs.informative_arms == {1: frozenset({0, 1})}


def test_sequences_discount_stale_arms():
    # arm 0 leaves in phase 0, so in phase 3 its gap to model 1 (the only
    # model favouring arm 2) is halved twice: k_beta * max(0.3 / 4, 0.1, 0.2)
    # = 0.245 < 2**-2 keeps arm 2 surely active; the full 0.3 would not
    structure = mk([[0.65, 1.0, 0.8], [0.95, 0.9, 1.0], [0.75, 1.0, 0.9],
                    [0.95, 1.0, 0.25], [0.8, 1.0, 0.9], [0.95, 1.0, 0.4],
                    [1.0, 0.0, 0.95]], 0)
    seqs = sb.deterministic_sequences(structure, alpha=100.0, beta=10.0, n=10_000)
    assert seqs.removed == (frozenset({0}), frozenset(), frozenset(), frozenset({2}))
    assert seqs.surely_active[3] == frozenset({1, 2})
    assert seqs.informative_arms == {0: frozenset({0, 1, 2}), 2: frozenset({1, 2})}


def test_sequences_singleton_optimal_set():
    structure = mk([[0.8, 0.2], [0.6, 0.3]], 0)
    seqs = sb.deterministic_sequences(structure, alpha=4.0, beta=2.0, n=1000)
    assert seqs.active[0] == frozenset({0})
    assert seqs.removed == (frozenset(),)
    assert seqs.informative_arms == {}
    assert seqs.unresolved == frozenset()


def test_sequences_errors(fig_right):
    with pytest.raises(ValueError):
        sb.deterministic_sequences(fig_right, alpha=1.0, beta=1.0, n=1000)
    with pytest.raises(ValueError):
        sb.deterministic_sequences(fig_right, alpha=1.0, beta=0.5, n=1000)
    with pytest.raises(ValueError):
        sb.deterministic_sequences(fig_right, alpha=0.0, beta=2.0, n=1000)
    with pytest.raises(ValueError):
        sb.deterministic_sequences(fig_right, alpha=4.0, beta=2.0, n=1)
    for alpha, beta, name in ((math.nan, 2.0, "alpha"), (math.inf, 2.0, "alpha"),
                              (1.0, math.inf, "beta"), (1.0, math.nan, "beta")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sb.deterministic_sequences(fig_right, alpha=alpha, beta=beta, n=500_000)
    # k_beta squares beta + 1, which must stay a finite float
    for beta in (1e300, 1.5e154):
        with pytest.raises(ValueError, match=r"beta = .* too large: \(beta \+ 1\)\^2 overflows"):
            sb.deterministic_sequences(fig_right, alpha=4.0, beta=beta, n=1000)
    sequences = sb.deterministic_sequences(fig_right, alpha=4.0, beta=1e154, n=1000)
    assert math.isfinite(sequences.k_beta)


@settings(max_examples=40, deadline=None)
@given(structures_strategy())
def test_sequence_invariants(structure):
    seqs = sb.deterministic_sequences(structure, alpha=4.0, beta=2.0, n=1000)
    i_star = structure.optimal_arm
    assert seqs.active[0] == sb.optimal_arm_set(structure)
    assert seqs.surely_active[0] == seqs.active[0]
    for h, gone in enumerate(seqs.removed):
        assert seqs.active[h + 1] == seqs.active[h] - gone
        assert seqs.surely_active[h] <= seqs.active[h]
        assert i_star not in gone
    for arm, h_bar in seqs.last_active_phase.items():
        assert arm in seqs.active[h_bar]
        if arm not in seqs.unresolved:
            assert arm not in seqs.active[h_bar + 1]
    for arm, informative in seqs.informative_arms.items():
        assert arm in informative
        assert informative <= seqs.active[0] | {arm}


def test_sae_bound_scalar_example():
    # one sub-optimal arm, gap 0.2, separation 0.16 on both arms
    structure = mk([[0.7, 0.5], [0.7, 0.9]], 0)
    seqs = sb.TheorySequences(
        alpha=1.0,
        beta=1.0,
        n=10_000,
        k_beta=math.nan,
        active=(frozenset({0, 1}), frozenset({0})),
        removed=(frozenset({1}),),
        surely_active=(frozenset({0, 1}),),
        last_active_phase={1: 0},
        informative_arms={1: frozenset({0, 1})},
        unresolved=frozenset(),
        alpha_beta_mismatch=False,
    )
    report = sb.sae_bound(structure, seqs)
    expected = 8.0 * 0.2 * math.log(10_000) / 0.16 + 4.0
    assert report.value == pytest.approx(expected, rel=1e-12)
    assert report.value == pytest.approx(96.10, abs=0.01)
    assert report.params["c_beta"] == 8.0


def test_sae_bound_benchmark(fig_right, right_sequences):
    report = sb.sae_bound(fig_right, right_sequences)
    log_n = math.log(N_RIGHT)
    c_beta = 4.0 * (1.0 + 4.0)
    expected = (
        c_beta * 0.1 * log_n / 0.0484
        + c_beta * 0.2 * log_n / 0.0576
        + c_beta * 0.3 * log_n / 0.1444
        + 8.0
    )
    assert report.value == pytest.approx(expected, rel=1e-12)
    assert report.constant == 8.0
    by_arm = {t.arm: t for t in report.terms}
    assert set(by_arm) == {1, 2, 3}
    assert by_arm[2].separation == pytest.approx(0.0576, abs=1e-12)
    assert report.flags == {}
    assert report.value == pytest.approx(
        sum(t.value for t in report.terms) + report.constant, rel=1e-12)


def test_sae_bound_no_suboptimal_arms():
    structure = mk([[0.8, 0.2], [0.6, 0.3]], 0)
    seqs = sb.deterministic_sequences(structure, alpha=4.0, beta=2.0, n=1000)
    report = sb.sae_bound(structure, seqs)
    assert report.value == 2.0
    assert report.terms == ()


def test_sae_bound_errors(fig_right):
    short = sb.deterministic_sequences(fig_right, alpha=4.0, beta=2.0, n=63)
    with pytest.raises(ValueError, match="n >= 64, got 63"):
        sb.sae_bound(fig_right, short)


def test_asae_bound_benchmark(fig_right):
    report = sb.asae_bound(fig_right, N_RIGHT)
    by_arm = {t.arm: t for t in report.terms}
    expected_arm2 = 192.0 * 0.2 * math.log(N_RIGHT) / 0.0576
    assert by_arm[2].value == pytest.approx(expected_arm2, rel=1e-12)
    assert by_arm[2].value == pytest.approx(8748.2, abs=0.1)
    assert report.constant == 24.0
    # doubling the horizon adds exactly 192 * gap * ln 2 / separation per arm
    doubled = {t.arm: t for t in sb.asae_bound(fig_right, 2 * N_RIGHT).terms}
    for arm, term in by_arm.items():
        growth = 192.0 * term.gap * math.log(2.0) / term.separation
        assert doubled[arm].value - term.value == pytest.approx(growth, rel=1e-9)


def test_asae_bound_no_suboptimal_arms():
    structure = mk([[0.8, 0.2], [0.6, 0.3]], 0)
    report = sb.asae_bound(structure, 1000)
    assert report.value == 6.0
    with pytest.raises(ValueError):
        sb.asae_bound(structure, 1)


def test_asae_constant_bound_t_bar():
    # three potentially optimal arms, all separated by 0.025 on the best arm
    structure = mk(
        [[0.8, 0.7, 0.6], [0.825, 0.9, 0.6], [0.825, 0.7, 0.95]], 0)
    assert sb.gamma_star(structure) == pytest.approx(0.025, abs=1e-12)
    report = sb.asae_constant_bound(structure)
    expected_t_bar = 60.0 * math.log(2.0) / 0.000625 + 6.0
    assert report.params["t_bar"] == pytest.approx(expected_t_bar, rel=1e-12)
    assert report.params["t_bar"] == pytest.approx(66548.13, abs=0.01)
    log_t = math.log(expected_t_bar)
    expected = (480.0 * 0.1 * log_t / 0.04
                + 480.0 * 0.2 * log_t / 0.1225 + 27.0)
    assert report.value == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(report.value)


def test_asae_constant_bound_edge_cases(fig_right):
    singleton = mk([[0.9, 0.1]], 0)
    report = sb.asae_constant_bound(singleton)
    assert report.params["t_bar"] == 2.0
    assert report.value == 9.0
    with pytest.raises(ValueError):
        sb.asae_constant_bound(fig_right)  # zero separation on the best arm


def test_sucb_bound_benchmark(fig_right):
    report = sb.sucb_bound(fig_right, N_RIGHT)
    by_arm = {t.arm: t for t in report.terms}
    assert by_arm[2].separation == pytest.approx(0.0576, abs=1e-12)
    assert by_arm[2].value == pytest.approx(
        8.0 * 0.2 * math.log(N_RIGHT) / 0.0576, rel=1e-12)


def test_sucb_bound_never_optimistic_arm():
    structure = mk([[0.8, 0.5], [0.7, 0.75]], 0)
    report = sb.sucb_bound(structure, 1000)
    (term,) = report.terms
    assert term.arm == 1
    assert term.value == 0.0
    assert "never" in term.note
    assert report.value == 0.0


def test_ucb_reference_bound(fig_right):
    report = sb.ucb_reference_bound(fig_right, 10_000)
    by_arm = {t.arm: t for t in report.terms}
    assert set(by_arm) == {1, 2, 3}
    assert by_arm[2].value == pytest.approx(368.41, abs=0.01)
    assert by_arm[2].value == pytest.approx(8.0 * math.log(10_000) / 0.2, rel=1e-12)


def test_omega():
    assert sb.omega(1.0) == 1
    assert sb.omega(math.e) == 1
    assert sb.omega(10.0) == 36
    # definition check on an integer grid around the returned point
    y = sb.omega(10.0)
    assert all(z >= 10.0 * math.log(z) for z in range(y, 4 * y))
    assert (y - 1) < 10.0 * math.log(y - 1)
    with pytest.raises(ValueError):
        sb.omega(0.0)
    with pytest.raises(ValueError):
        sb.omega(-2.0)


def _cr_structure(gamma):
    rows = [[0.5, 0.3, 0.2], [0.5 - gamma, 0.6, 0.2], [0.5 - gamma, 0.3, 0.7]]
    return mk(rows, 0)


def test_lower_bound_cr_positive():
    structure = _cr_structure(1e-4)
    report = sb.lower_bound_cr(structure, n=10**9)
    assert math.isfinite(report.value) and report.value > 0.0
    assert report.flags["vacuous"] is False
    assert report.flags["gamma_star_small_enough"] is True
    assert report.flags["horizon_large_enough"] is True
    # reproduce the value from the reported breakdown inputs
    g = report.params["gamma_star"]
    delta = report.params["delta_floor"]
    log_arg = delta * delta / (
        4.0 * math.e**2 * 8.0 * g * g * math.log(1.0 / (g * g)))
    assert report.params["log_argument"] == pytest.approx(log_arg, rel=1e-12)
    expected = (0.2 / (2 * 0.09) + 0.3 / (2 * 0.25)) * math.log(log_arg)
    assert report.value == pytest.approx(expected, rel=1e-12)
    # too-short horizon flips only the horizon flag
    short = sb.lower_bound_cr(structure, n=10**7)
    assert short.flags["horizon_large_enough"] is False
    assert short.value == pytest.approx(report.value, rel=1e-12)


def test_lower_bound_cr_vacuous_and_errors(fig_right):
    report = sb.lower_bound_cr(_cr_structure(0.01))
    assert report.flags["vacuous"] is True
    assert report.value == 0.0
    with pytest.raises(ValueError):
        sb.lower_bound_cr(fig_right)


def test_lower_bound_cr_refuses_zero_separation():
    # the rival favouring arm 1 has arm 1's true mean, so its separation
    # there is 0, and the floor is not vacuous (log argument about 1.35)
    structure = sb.Structure([[1.0, 0.8], [0.001, 0.8]], 0)
    assert sb.classify(structure).in_constant_regret
    assert sb.gamma_star(structure) == pytest.approx(0.999)
    with pytest.raises(ValueError, match="arm 1 have squared separation 0"):
        sb.lower_bound_cr(structure, n=10**6)
    # where the floor is vacuous a zero separation leaves it at 0
    vacuous = sb.Structure([[0.5, 0.3], [0.2, 0.3]], 0)
    report = sb.lower_bound_cr(vacuous)
    assert report.flags["vacuous"] and report.value == 0.0
    assert report.terms[0].separation == 0.0


def test_confidence_failure_bound():
    assert sb.confidence_failure_bound(64, 1.0, 1.0, 3) == pytest.approx(
        0.046875, abs=1e-15)
    assert sb.confidence_failure_bound(64, 1.0, 1.0, 0) == 0.0
    single = sb.confidence_failure_bound(4096, 4.0, 2.0, 1)
    doubled = sb.confidence_failure_bound(4096, 8.0, 2.0, 1)
    assert doubled == pytest.approx(single * 4096 ** (-2.0 * 4.0 / 4.0), rel=1e-9)
    with pytest.raises(ValueError):
        sb.confidence_failure_bound(1, 1.0, 1.0, 3)
    with pytest.raises(ValueError):
        sb.confidence_failure_bound(64, 1.0, 0.5, 3)


def test_bound_report_to_dict(fig_right):
    report = sb.ucb_reference_bound(fig_right, 100)
    doc = report.to_dict()
    assert doc["name"] == report.name
    assert doc["value"] == pytest.approx(
        sum(t["value"] for t in doc["terms"]) + doc["constant"], rel=1e-12)
    assert {t["arm"] for t in doc["terms"]} == {1, 2, 3}
