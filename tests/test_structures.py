"""Structure builders, the random generator, and file persistence."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import structbandit as sb
import oracles
from helpers import mk
from structbandit.structures import _nudge_ties


def test_figure_left_frozen_values():
    structure = sb.build_figure_left()
    assert structure.model_count == 51
    assert structure.arm_count == 3
    assert structure.true_index == 8
    true = structure.means[structure.true_index].tolist()
    assert true == pytest.approx([0.825, 0.8, 0.7], abs=1e-12)
    assert structure.optimal_arm == 0
    # middle region: arm 2 plateaus at 0.86 and arm 1 drops to 0.2
    for k in range(17, 34):
        assert structure.means[k, 2] == pytest.approx(0.86, abs=1e-12)
        assert structure.means[k, 1] == pytest.approx(0.2, abs=1e-12)
    # arm 1 wins the third region where arm 2 has fallen below 0.8
    assert sb.optimal_arm_set(structure) == frozenset({0, 1, 2})
    assert sb.gamma_star(structure) > 0.0  # informative best arm
    assert structure.provenance["builder"] == "figure_left"


def test_figure_left_flat_variant():
    flat = sb.build_figure_left(informative_arm2=False)
    assert all(m[1] == pytest.approx(0.8, abs=1e-12) for m in flat.means.tolist())
    assert sb.optimal_arm_set(flat) == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        sb.build_figure_left(grid_per_region=1)


@pytest.mark.parametrize("informative", [True, False])
@pytest.mark.parametrize("grid", [2, 3, 5, 17, 50, 1000])
def test_figure_left_matches_piecewise_oracle(grid, informative):
    # bit for bit at grids beside the golden one (17)
    structure = sb.build_figure_left(grid, informative)
    rows, true_index = oracles.oracle_figure_left(grid, informative)
    assert structure.means.tobytes() == np.array(rows, dtype=np.float64).tobytes()
    assert structure.true_index == true_index
    assert structure.provenance == {"builder": "figure_left", "seed": None, "flags": {
        "grid_per_region": grid, "informative_arm2": informative}}


def test_figure_right_frozen_values():
    structure = sb.build_figure_right()
    assert structure.model_count == 4
    assert structure.true_index == 0
    rows = structure.means.tolist()
    assert rows[0] == pytest.approx([0.8, 0.7, 0.6, 0.5], abs=1e-12)
    assert rows[1] == pytest.approx([0.8, 0.7, 0.84, 0.1], abs=1e-12)
    assert rows[2] == pytest.approx([0.8, 0.4, 0.6, 0.88], abs=1e-12)
    assert rows[3] == pytest.approx([0.8, 0.92, 0.6, 0.5], abs=1e-12)
    assert structure.optimal_arms[2] == 3
    assert sb.optimal_arm_set(structure) == frozenset({0, 1, 2, 3})


def test_figure_right_override():
    low = sb.build_figure_right(arm1_fourth_model=0.2)
    assert low.means[3].tolist() == pytest.approx([0.8, 0.2, 0.6, 0.5], abs=1e-12)
    assert low.optimal_arms[3] == 0
    assert sb.optimal_arm_set(low) == frozenset({0, 2, 3})


def test_generator_determinism_and_counts():
    spec = sb.GeneratorSpec(arm_count=6, base_model_count=8, hard_model_count=5, seed=7)
    a = sb.generate_random(spec)
    b = sb.generate_random(spec)
    assert a == b
    assert a.model_count == 13
    assert a.arm_count == 6
    other = sb.generate_random(sb.GeneratorSpec(
        arm_count=6, base_model_count=8, hard_model_count=5, seed=8))
    assert other != a


def test_generator_hard_models():
    # at optimistic_scale 1 the smallest spec clamps hard models at 1, so
    # the reference test below, which takes it as an example, sees clamping
    for spec in (sb.GeneratorSpec(arm_count=5, base_model_count=6, hard_model_count=10, seed=3),
                 sb.GeneratorSpec(arm_count=3, base_model_count=1, hard_model_count=8,
                                  optimistic_scale=1.0)):
        structure = sb.generate_random(spec)
        true = structure.means[structure.true_index].tolist()
        i_star = structure.optimal_arm
        clamped = set(structure.provenance["flags"]["clamped_models"])
        for k in range(spec.base_model_count, structure.model_count):
            hard = structure.means[k].tolist()
            diffs = [i for i in range(spec.arm_count) if hard[i] != true[i]]
            assert len(diffs) <= 2
            raised = int(structure.optimal_arms[k])
            assert raised != i_star
            if k not in clamped:
                assert max(hard) > max(true)
                assert k in sb.optimistic_models(structure, raised)
            shrunk = [i for i in diffs if i != raised]
            for i in shrunk:
                assert hard[i] == pytest.approx(spec.shrink_factor * true[i], abs=1e-12)
    assert clamped and len(clamped) < spec.hard_model_count


_SPECS = st.builds(sb.GeneratorSpec, arm_count=st.integers(3, 7),
                   base_model_count=st.integers(1, 6), hard_model_count=st.integers(0, 12),
                   optimistic_scale=st.sampled_from([1.0, 0.5, 0.2, 1e-3]),
                   shrink_factor=st.sampled_from([0.1, 0.5, 0.999]),
                   seed=st.integers(0, 2 ** 32))


@settings(max_examples=300, deadline=None)
@given(_SPECS)
@example(sb.GeneratorSpec(arm_count=3, base_model_count=1, hard_model_count=0,
                          optimistic_scale=1.0))
@example(sb.GeneratorSpec(arm_count=3, base_model_count=1, hard_model_count=8,
                          optimistic_scale=1.0))
def test_generator_matches_model_by_model_reference(spec):
    # the matrix generator draws what the per-model loop drew, bit for bit,
    # and clamps the same hard models (optimistic_scale 1 clamps often)
    structure = sb.generate_random(spec)
    rows, true_index, clamped = oracles.oracle_generate_random(spec)
    assert structure.means.tobytes() == np.array(rows).tobytes()
    assert structure.true_index == true_index
    assert structure.provenance == {
        "builder": "random", "seed": spec.seed,
        "flags": {"arm_count": spec.arm_count, "base_model_count": spec.base_model_count,
                  "hard_model_count": spec.hard_model_count,
                  "optimistic_scale": spec.optimistic_scale,
                  "shrink_factor": spec.shrink_factor, "clamped_models": clamped}}


def test_stuck_tie_is_refused():
    # a tie at the clamp cannot be nudged apart: the message names both
    # means, of the lower row when two are stuck, as the per-row loop did
    near, tied = [1.0, 1.0 - 1e-10], [1.0, 1.0]
    for rows, means in (([near], "1.0 and 0.9999999999"), ([tied], "1.0 and 1.0"),
                        ([[0.5, 0.2], near, tied], "1.0 and 0.9999999999"),
                        ([[0.5, 0.2], tied, near], "1.0 and 1.0")):
        message = rf"^tied optimal arms could not be separated by nudging \(means {means} at"
        with pytest.raises(ValueError, match=message):
            _nudge_ties(rows)
        with pytest.raises(ValueError, match=message):
            [oracles._oracle_nudge_ties(row) for row in rows]
    # below the clamp a near tie is nudged apart, the lowest index winning
    assert _nudge_ties([[0.5, 0.5, 0.2], [0.3, 0.7, 0.7 - 1e-10]]).tolist() == [
        [0.5 + 1e-6, 0.5, 0.2], [0.3, 0.7 + 1e-6, 0.7 - 1e-10]]


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        sb.GeneratorSpec(arm_count=2)
    with pytest.raises(ValueError):
        sb.GeneratorSpec(base_model_count=0)
    with pytest.raises(ValueError):
        sb.GeneratorSpec(hard_model_count=-1)
    with pytest.raises(ValueError):
        sb.GeneratorSpec(optimistic_scale=0.0)
    with pytest.raises(ValueError):
        sb.GeneratorSpec(shrink_factor=1.0)
    for field in ("arm_count", "base_model_count", "hard_model_count", "seed"):
        for value in (4.0, True, "4"):
            with pytest.raises(TypeError, match=field):
                sb.GeneratorSpec(**{field: value})


def test_save_load_round_trip(tmp_path):
    for structure in (
        sb.build_figure_right(),
        sb.build_figure_left(),
        sb.generate_random(sb.GeneratorSpec(
            arm_count=4, base_model_count=5, hard_model_count=3, seed=11)),
        mk([[0.5, 0.25]], 0, reward=sb.RewardSpec("gaussian", 0.5)),
    ):
        path = tmp_path / "s.json"
        sb.save_structure(structure, path)
        # the text json.dumps writes for the whole document, byte for byte
        assert path.read_bytes() == (json.dumps({
            "arm_count": structure.arm_count, "true_index": structure.true_index,
            "reward": {"kind": structure.reward.kind,
                       "params": {"variance": 0.5} if structure.reward.kind == "gaussian" else {}},
            "models": structure.means.tolist(), "provenance": structure.provenance},
            indent=1) + "\n").encode()
        loaded = sb.load_structure(path)
        assert loaded == structure
        assert loaded.reward == structure.reward
        assert loaded.provenance == structure.provenance


def test_load_validation_messages(tmp_path):
    def write(doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        return path

    path = write({"arm_count": 2, "models": [[0.5, 0.2]]})
    with pytest.raises(ValueError, match="true_index"):
        sb.load_structure(path)

    path = write({"arm_count": 2, "true_index": 0, "models": [[0.5, 1.2]]})
    with pytest.raises(ValueError, match=r"model 0, arm 1.*\[0, 1\]"):
        sb.load_structure(path)

    path = write({"arm_count": 3, "true_index": 0, "models": [[0.5, 0.2]]})
    with pytest.raises(ValueError, match="model 0"):
        sb.load_structure(path)

    # a JSON integer too large for a float, NaN, a bool or a string as a mean,
    # and a tied maximum, each named by model and arm
    huge = "1" + "0" * 400
    for row, message in (([0.5, huge], r"model 1, arm 1: mean 1000+ outside \[0, 1\]"),
                         (["0.5", "NaN"], r"model 1, arm 1: mean nan outside \[0, 1\]"),
                         (["true", "0.5"], r"model 1, arm 0: mean True is not a number"),
                         (['"0.5"', "0.2"], r"model 1, arm 0: mean '0.5' is not a number"),
                         (["0.5", "0.5"], r"model 1, arms 0 and 1: tied optimal means")):
        path = write('{"arm_count": 2, "true_index": 0, "models": [[0.5, 0.2], [%s]]}'
                     % ", ".join(map(str, row)))
        with pytest.raises(ValueError, match=message):
            sb.load_structure(path)

    path = write("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        sb.load_structure(path)

    with pytest.raises(FileNotFoundError):
        sb.load_structure(tmp_path / "absent.json")

    # a misspelt key must not leave the Bernoulli default in place
    path = write({"arm_count": 2, "true_index": 0, "models": [[0.5, 0.2]],
                  "rewards": {"kind": "gaussian", "params": {"variance": 0.5}}})
    with pytest.raises(ValueError, match=r"unknown fields \['rewards'\]"):
        sb.load_structure(path)

    path = write({"arm_count": 2, "true_index": 5, "models": [[0.5, 0.2]]})
    with pytest.raises(ValueError):
        sb.load_structure(path)

    # both fields are JSON integers: no bool, float or string stands in
    for key, value in (("true_index", True), ("true_index", 0.0), ("true_index", "0"),
                       ("true_index", None), ("arm_count", 2.0), ("arm_count", True)):
        doc = {"arm_count": 2, "true_index": 0, "models": [[0.5, 0.2]], key: value}
        path = write(doc)
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            sb.load_structure(path)


def test_load_rejects_bad_reward_params(tmp_path):
    path = tmp_path / "g.json"
    sb.save_structure(mk([[0.5, 0.25]], 0, reward=sb.RewardSpec("gaussian", 0.5)), path)
    text = path.read_text()
    assert '"variance": 0.5' in text
    for raw in ("Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400, '"2"', "true", "null"):
        path.write_text(text.replace('"variance": 0.5', f'"variance": {raw}'))
        with pytest.raises(ValueError, match=r"reward\.params\.variance must be a finite number"):
            sb.load_structure(path)
    for raw in ("[]", '"x"', "null"):
        path.write_text(re.sub(r'"params": \{[^}]*\}', f'"params": {raw}', text))
        with pytest.raises(ValueError, match=r"reward\.params must be an object"):
            sb.load_structure(path)
    # a misspelt key must not leave the default variance in place
    path.write_text(text.replace('"variance": 0.5', '"varaince": 0.5'))
    with pytest.raises(ValueError, match=r"unknown reward\.params \['varaince'\]"):
        sb.load_structure(path)
    path.write_text(text.replace('"gaussian"', '"bernoulli"'))
    with pytest.raises(ValueError, match=r"unknown reward\.params \['variance'\]"):
        sb.load_structure(path)
    path.write_text(text.replace('"variance": 0.5', '"variance": 2'))
    assert sb.load_structure(path).reward == sb.RewardSpec("gaussian", 2.0)
    for variance in (math.inf, -math.inf, math.nan):
        for kind in ("gaussian", "bernoulli"):
            with pytest.raises(ValueError, match="finite"):
                sb.RewardSpec(kind, variance)


def test_saved_means_survive_exactly(tmp_path):
    # full-precision floats: an irrational-looking mean must round-trip
    structure = mk([[1 / 3, 0.2, math.sqrt(2) / 2]], 0)
    path = tmp_path / "p.json"
    sb.save_structure(structure, path)
    loaded = sb.load_structure(path)
    assert loaded.means.tolist() == structure.means.tolist()
