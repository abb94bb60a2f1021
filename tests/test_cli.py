"""Command-line interface: exit codes, files, and cross-module wiring."""

import inspect
import json
import os
from dataclasses import replace

import pytest

import structbandit as sb
from structbandit import cli, simulation
from structbandit.cli import main


@pytest.fixture()
def run_config(tmp_path):
    config = {
        "horizon": 120,
        "runs": 3,
        "base_seed": 11,
        "checkpoints": [60, 120],
        "structure": {"builder": "figure_right"},
        "agents": [
            {"algorithm": "sucb", "alpha": 2.0},
            {"algorithm": "sae", "alpha": 2.0, "beta": 1.0},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture()
def right_structure_file(tmp_path):
    path = tmp_path / "right.json"
    sb.save_structure(sb.build_figure_right(), path)
    return str(path)


def test_run_missing_config(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert missing in err
    # a directory, and a file that is not UTF-8, are no config either
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"horizon": 50, "source": "caf\u00e9"}'.encode("latin-1"))
    for path in (str(tmp_path), str(latin)):
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2, path
        assert path in capsys.readouterr().err, path


def test_run_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_run_rejects_bad_variance(tmp_path, capsys):
    structure = tmp_path / "g.json"
    gaussian = replace(sb.build_figure_right(), reward=sb.RewardSpec("gaussian", 0.25))
    sb.save_structure(gaussian, structure)
    text = structure.read_text()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"horizon": 20, "runs": 2, "structure": str(structure),
                                  "agents": [{"algorithm": "ucb1"}]}))
    for raw in ("Infinity", "1e400", '"2"', "true"):
        structure.write_text(text.replace('"variance": 0.25', f'"variance": {raw}'))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2, raw
        assert "reward.params.variance" in capsys.readouterr().err


def test_run_config_validation(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"structure": {"builder": "figure_right"},
                                "agents": [{"algorithm": "sucb"}]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "horizon" in capsys.readouterr().err

    path.write_text(json.dumps({"horizon": 50, "agents": [{"algorithm": "sucb"}]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "structure" in capsys.readouterr().err

    path.write_text(json.dumps({
        "horizon": 50, "runs": 2, "structure": {"builder": "figure_right"},
        "agents": [{"algorithm": "warp"}]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "agent" in capsys.readouterr().err

    path.write_text(json.dumps({
        "horizon": 50, "runs": 2, "structure": {"builder": "figure_left"},
        "fresh_structure_per_run": True, "agents": [{"algorithm": "sucb"}]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "random" in capsys.readouterr().err

    # integer fields take JSON integers only, level any JSON number and
    # fresh_structure_per_run a JSON bool
    base = {"horizon": 50, "runs": 2, "structure": {"builder": "figure_right"},
            "agents": [{"algorithm": "sucb"}]}
    for field, value in (("runs", "abc"), ("runs", 2.9), ("runs", True),
                         ("horizon", 50.5), ("base_seed", "3"), ("base_seed", False),
                         ("checkpoints", [25, 50.0]), ("checkpoints", "50"),
                         ("level", "0.9"), ("level", True),
                         ("fresh_structure_per_run", "no")):
        path.write_text(json.dumps({**base, field: value}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2, (field, value)
        assert f"'{field}" in capsys.readouterr().err, (field, value)
    # agent entries: horizon a JSON integer, alpha, beta, eta and sigma2
    # finite JSON numbers, null only for horizon and sigma2; Infinity and
    # 1e400 both read as inf
    for field, value in (("horizon", 100.5), ("alpha", True), ("sigma2", "1"),
                         ("eta", False), ("alpha", None), ("beta", None), ("eta", None)):
        path.write_text(json.dumps({**base, "agents": [{"algorithm": "sae", field: value}]}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2, (field, value)
        assert f"'agents[0].{field}' must be" in capsys.readouterr().err, (field, value)
    for field in ("alpha", "beta", "eta", "sigma2"):
        for value in ("Infinity", "1e400", "NaN"):
            for algorithm in ("sae", "asae", "sucb", "ucb1"):
                entry = f'{{"algorithm": "{algorithm}", "{field}": {value}}}'
                path.write_text(json.dumps({**base, "agents": []}).replace("[]", f"[{entry}]"))
                assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2, entry
                err = capsys.readouterr().err
                assert f"'agents[0].{field}' must be a finite number" in err, entry
    # an integer too large for a float compares as finite unless the check
    # is made against the largest float
    for field in ("alpha", "beta", "eta", "sigma2"):
        for algorithm in ("sae", "asae", "sucb", "ucb1"):
            entry = f'{{"algorithm": "{algorithm}", "{field}": 1{"0" * 400}}}'
            path.write_text(json.dumps({**base, "agents": []}).replace("[]", f"[{entry}]"))
            assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2, entry
            err = capsys.readouterr().err
            assert f"'agents[0].{field}' must be a finite number" in err, entry
    # so do the batch's integer fields and level, which exited 1 when a float
    # was made of them
    for field, message in (("horizon", "is an integer too large for a float"),
                           ("runs", "is an integer too large for a float"),
                           ("level", "must be a finite number")):
        path.write_text(json.dumps({**base, field: None}).replace("null", "1" + "0" * 400))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2, field
        assert f"'{field}' {message}" in capsys.readouterr().err, field
    # an integer past Python's 4300-digit string limit is no JSON it reads
    path.write_text(json.dumps({**base, "horizon": None}).replace("null", "1" * 5001))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"{path}: not valid JSON" in capsys.readouterr().err
    # a misspelt key is refused, not ignored for its default
    path.write_text(json.dumps({**base, "run": 3}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown config fields ['run']" in capsys.readouterr().err
    # SAE needs horizon >= 2, from its own entry or from the batch, before
    # any run is dispatched
    for config in ({**base, "agents": [{"algorithm": "sae", "horizon": 1}]},
                   {**base, "horizon": 1, "checkpoints": [1],
                    "agents": [{"algorithm": "sucb"}, {"algorithm": "sae"}]}):
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2, config
        assert "sae horizon must be >= 2, got 1" in capsys.readouterr().err, config
    path.write_text(json.dumps([base]))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "JSON object" in capsys.readouterr().err
    path.write_text(json.dumps({**base, "level": 1, "checkpoints": [25, 50]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "level" in capsys.readouterr().err  # 1 is numeric but no valid level
    # below 1, but (1 + level) / 2 rounds to 1, where the t quantile is undefined
    path.write_text(json.dumps({**base, "level": 0.9999999999999999}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "level must be in (0.5, 1)" in capsys.readouterr().err
    # an unknown algorithm names its field
    path.write_text(json.dumps({**base, "agents": [{"algorithm": "nope"}]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config field 'agents[0].algorithm' must be one of" in capsys.readouterr().err


def test_run_writes_outputs(run_config, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run", "--config", str(run_config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "final regret" in stdout
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "sae_pulls.csv", "sae_regret.csv",
                     "sucb_pulls.csv", "sucb_regret.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["structure"]["source"] == "figure_right"
    assert manifest["base_seed"] == 11


def test_run_worker_byte_identity(run_config, tmp_path):
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(["run", "--config", str(run_config), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["run", "--config", str(run_config), "--out", str(out4),
                 "--workers", "4"]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes(), name


def test_workers_below_one(run_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    for workers in ("0", "-1"):
        for argv in (["run", "--config", str(run_config)], ["paper-suite"]):
            assert main([*argv, "--out", out, "--workers", workers]) == 2, argv
            captured = capsys.readouterr()
            assert f"--workers must be >= 1, got {workers}" in captured.err, argv
            assert not captured.out and not os.path.exists(out), argv


def test_run_seed_override(run_config, tmp_path):
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["run", "--config", str(run_config), "--out", str(out_a),
                 "--seed", "99"]) == 0
    override = json.loads((out_a / "manifest.json").read_text())
    assert override["base_seed"] == 99
    assert main(["run", "--config", str(run_config), "--out", str(out_b)]) == 0
    stock = json.loads((out_b / "manifest.json").read_text())
    assert stock["base_seed"] == 11
    assert override["agents"][0]["seeds"] != stock["agents"][0]["seeds"]


def test_run_fresh_structures(tmp_path):
    config = {
        "horizon": 60,
        "runs": 2,
        "checkpoints": [60],
        "structure": {"builder": "random", "arm_count": 4,
                      "base_model_count": 5, "hard_model_count": 2},
        "fresh_structure_per_run": True,
        "agents": [{"algorithm": "sucb", "alpha": 2.0}],
    }
    path = tmp_path / "rand.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "rand_out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["structure"]["source"] == "randomized-per-run"


def test_fresh_structure_config_checked_after_one_structure(tmp_path, monkeypatch, capsys):
    # the batch fields are checked once run 0's structure is drawn, not after all of them
    drawn, real = [], simulation.generate_random
    monkeypatch.setattr(simulation, "generate_random",
                        lambda spec: drawn.append(spec) or real(spec))
    config = {"horizon": 50, "runs": 100, "level": 1.5, "structure": {"builder": "random"},
              "fresh_structure_per_run": True, "agents": [{"algorithm": "sucb"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "level must be in (0.5, 1)" in capsys.readouterr().err
    assert len(drawn) <= 1 and not (tmp_path / "out").exists()


def test_run_refuses_an_overflowing_eta(tmp_path, monkeypatch, capsys):
    # an asae period end past the largest float is refused before any run
    def no_run(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(cli, "run_batch", no_run)
    for eta, horizon in ((1e300, 20), (40.0, 2 ** 41 + 1), (40.0, 2 ** 41)):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"horizon": horizon, "runs": 2,
                                    "structure": {"builder": "figure_right"},
                                    "agents": [{"algorithm": "sucb"},
                                               {"algorithm": "asae", "eta": eta}]}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"agents[1].eta = {eta} overflows the asae period schedule" in err, err
    # the check computes the period ends a run does: at horizon 1 a run
    # never ends its first period, at horizon 2 it computes the next end
    right, asae = sb.build_figure_right(), sb.AgentConfig("asae", eta=1e300)
    sb.ExperimentConfig(right, (asae,), horizon=1, runs=2)
    sb.ExperimentConfig(right, (sb.AgentConfig("asae", eta=40.0),), horizon=2 ** 41 - 1, runs=2)
    run = sb.simulate(sb.make_agent(right, asae), sb.Environment(right, 0), 1)
    assert sum(run.pull_counts) == 1
    with pytest.raises(ValueError, match=r"agents\[0\]\.eta"):
        sb.ExperimentConfig(right, (asae,), horizon=2, runs=2)
    with pytest.raises(OverflowError):
        sb.simulate(sb.make_agent(right, asae), sb.Environment(right, 0), 2)


def test_out_paths_checked_before_any_work(tmp_path, run_config, right_structure_file,
                                           monkeypatch, capsys):
    a_file, a_dir = tmp_path / "file", tmp_path / "dir"
    a_dir.mkdir()
    # a file output may replace a file
    assert main(["gen", "--builder", "figure_right", "--out", str(a_file)]) == 0
    assert sb.load_structure(a_file) == sb.build_figure_right()
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_run_config", "_structure_from_entry", "load_structure"):
        monkeypatch.setattr(cli, name, no_work)
    for argv in (["run", "--config", str(run_config), "--out", str(a_file)],
                 ["run", "--config", str(run_config), "--out", str(a_file / "sub")],
                 ["paper-suite", "--out", str(a_file)],
                 ["gen", "--builder", "figure_right", "--out", str(a_dir)],
                 ["gen", "--builder", "figure_right", "--out", str(a_file / "s.json")],
                 ["theory", "--structure", right_structure_file, "--bound", "ucb", "--n", "100",
                  "--out", str(a_dir)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert f"--out {argv[-1]} cannot be made a" in captured.err and not captured.out, argv
    # a name longer than the file system allows (255 bytes on common ones),
    # as the output or as a directory to be made on the way to it
    long = "a" * 300
    for argv in (["run", "--config", str(run_config), "--out", str(a_dir / long)],
                 ["paper-suite", "--out", str(tmp_path / "new" / long / "suite")],
                 ["gen", "--builder", "figure_right", "--out", str(a_dir / f"{long}.json")],
                 ["theory", "--structure", right_structure_file, "--bound", "ucb", "--n", "100",
                  "--out", str(tmp_path / long / "t.json")]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (f"--out {argv[-1]} cannot be made a" in captured.err
                and "a name in it is longer than the" in captured.err and not captured.out), argv
    assert sb.load_structure(a_file) == sb.build_figure_right() and not os.listdir(a_dir)


def test_run_structure_entry_errors(tmp_path, capsys):
    base = {"horizon": 50, "runs": 2, "agents": [{"algorithm": "sucb"}]}
    path = tmp_path / "c.json"
    # a bad random-builder option reads the same with and without fresh structures
    # (out of range, and of the wrong JSON type)
    for arm_count in (2, 4.0):
        messages = []
        for fresh in (False, True):
            path.write_text(json.dumps({**base, "fresh_structure_per_run": fresh,
                                        "structure": {"builder": "random", "arm_count": arm_count}}))
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert "bad structure options for builder 'random'" in messages[0]
        assert "arm_count" in messages[0]
    # the figure builders' options are typed too: a number, not a string or a
    # bool, that a float can hold; a bool; an integer
    for builder, option, value in (("figure_right", "arm1_fourth_model", '"0.5"'),
                                   ("figure_right", "arm1_fourth_model", "true"),
                                   ("figure_right", "arm1_fourth_model", "1" + "0" * 400),
                                   ("figure_left", "informative_arm2", "0"),
                                   ("figure_left", "grid_per_region", "17.0"),
                                   ("figure_left", "grid_per_region", "1" + "0" * 400),
                                   ("random", "optimistic_scale", "true"),
                                   ("random", "shrink_factor", '"0.1"')):
        entry = f'{{"builder": "{builder}", "{option}": {value}}}'
        path.write_text(json.dumps({**base, "structure": None}).replace("null", entry))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2, entry
        assert f"config field 'structure.{option}'" in capsys.readouterr().err, entry
    # a path entry takes no builder options
    structure_path = tmp_path / "s.json"
    sb.save_structure(sb.build_figure_right(), structure_path)
    path.write_text(json.dumps({**base, "structure": {
        "path": str(structure_path), "builder": "random", "arm_count": 7}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "['arm_count', 'builder']" in capsys.readouterr().err
    # a path must be a string, not a number that open() reads as a descriptor
    path.write_text(json.dumps({**base, "structure": {"path": 3}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config field 'structure.path' must be a string, got 3" in capsys.readouterr().err
    # fresh structures are seeded per run, so a random builder's seed is refused
    # rather than replaced
    path.write_text(json.dumps({**base, "fresh_structure_per_run": True,
                                "structure": {"builder": "random", "seed": 5}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config field 'structure.seed' is not used" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_checks_every_annotated_field(tmp_path, capsys):
    # agent entries and builder options are checked against the annotations
    # of the constructors they go to, so a parameter added later is covered
    # here without a new table
    path = tmp_path / "c.json"
    base = {"horizon": 50, "runs": 2, "agents": [{"algorithm": "sucb"}]}
    builders = {sb.GeneratorSpec: "random", sb.build_figure_left: "figure_left",
                sb.build_figure_right: "figure_right"}
    cases = 0
    for make in (sb.AgentConfig, *builders):
        for name, parameter in inspect.signature(make).parameters.items():
            kind = parameter.annotation.partition(" | ")[0]
            for value in ["1"] + [True] * (kind != "bool") + [1.5] * (kind == "int"):
                if make is sb.AgentConfig:
                    where = "agents[0]"
                    config = {**base, "structure": {"builder": "figure_right"},
                              "agents": [{"algorithm": "sucb", name: value}]}
                else:
                    where = "structure"
                    config = {**base, "structure": {"builder": builders[make], name: value}}
                path.write_text(json.dumps(config))
                case = (make.__name__, name, value)
                assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2, case
                assert f"config field '{where}.{name}'" in capsys.readouterr().err, case
                cases += 1
    assert cases == 35
    assert not (tmp_path / "o").exists()


def test_run_null_means_unset(tmp_path, capsys):
    # null is accepted for an agent's horizon and sigma2 only
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "horizon": 50, "runs": 2, "checkpoints": [50], "structure": {"builder": "figure_right"},
        "agents": [{"algorithm": "sae", "alpha": 2.0, "beta": 1.0,
                    "horizon": None, "sigma2": None}]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_run_refuses_fields_the_algorithm_does_not_read(tmp_path, capsys):
    # a field the algorithm never reads would go to the manifest as if used
    path = tmp_path / "c.json"
    base = {"horizon": 1000, "runs": 2, "structure": {"builder": "figure_right"}}
    valid = {"alpha": 1.5, "beta": 2.0, "eta": 0.5, "horizon": 100, "sigma2": 0.25}
    assert set(valid) == set(inspect.signature(sb.AgentConfig).parameters) - {"algorithm"}
    cases = 0
    for algorithm, reads in sb.algorithms.READ_FIELDS.items():
        for name in sorted(set(valid) - set(reads)):
            path.write_text(json.dumps({**base, "agents": [
                {"algorithm": "sucb"}, {"algorithm": algorithm, name: valid[name]}]}))
            case = (algorithm, name)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2, case
            assert f"not config field 'agents[1].{name}'" in capsys.readouterr().err, case
            cases += 1
    assert cases == 11
    path.write_text(json.dumps({**base, "agents": [
        {"algorithm": "sucb", "horizon": 50, "eta": 7.0}]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert ("sucb reads only alpha/sigma2, not config field 'agents[0].horizon' or "
            "'agents[0].eta'") in capsys.readouterr().err
    # the type and range checks come first
    for entry, message in (({"algorithm": "sucb", "eta": "7"}, "'agents[0].eta' must be"),
                           ({"algorithm": "ucb1", "beta": 0.5}, "beta must be finite and >= 1")):
        path.write_text(json.dumps({**base, "agents": [entry]}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2, entry
        assert message in capsys.readouterr().err, entry
    assert not (tmp_path / "o").exists()
    # every field each algorithm reads, and null for one it does not, runs
    path.write_text(json.dumps({**base, "horizon": 50, "agents": [
        {"algorithm": algorithm, "sigma2": None, **{name: valid[name] for name in reads}}
        for algorithm, reads in sb.algorithms.READ_FIELDS.items()]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_gen_and_classify(tmp_path, capsys):
    structure_path = str(tmp_path / "gen.json")
    assert main(["gen", "--builder", "random", "--out", structure_path,
                 "--seed", "4", "--arms", "5", "--base-models", "6",
                 "--hard-models", "3"]) == 0
    capsys.readouterr()
    loaded = sb.load_structure(structure_path)
    assert loaded.model_count == 9
    assert loaded.arm_count == 5

    assert main(["classify", "--structure", structure_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"in_worst_case", "in_optimality", "in_constant_regret"}
    assert doc["in_optimality"] is None  # no n given, no sequences

    assert main(["gen", "--builder", "figure_right",
                 "--out", str(tmp_path / "fr.json")]) == 0
    capsys.readouterr()
    assert main(["classify", "--structure", str(tmp_path / "fr.json"),
                 "--alpha", "4", "--beta", "2", "--n", "500000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"in_worst_case": False, "in_optimality": True,
                   "in_constant_regret": False}


def test_gen_validation(tmp_path, capsys):
    assert main(["gen", "--builder", "random", "--out",
                 str(tmp_path / "x.json"), "--arms", "2"]) == 2
    assert "arm_count" in capsys.readouterr().err


def test_gen_refuses_flags_of_other_builders(tmp_path, capsys):
    out = tmp_path / "x.json"
    for builder, flags in (("figure_right", ["--arms", "7"]),
                           ("figure_right", ["--no-informative-arm2"]),
                           ("random", ["--arm1-fourth", "0.3"]),
                           ("random", ["--no-informative-arm2"]),
                           ("figure_left", ["--seed", "5"]),
                           ("figure_left", ["--shrink-factor", "0.2"])):
        assert main(["gen", "--builder", builder, "--out", str(out), *flags]) == 2, flags
        captured = capsys.readouterr()
        assert f"{flags[0]} is not an option of builder '{builder}'" in captured.err
        assert not captured.out and not out.exists(), flags
    # a flag given at its builder's default writes the default's file
    for builder, flags in (("figure_right", ["--arm1-fourth", "0.92"]),
                           ("random", ["--seed", "0", "--arms", "50"])):
        assert main(["gen", "--builder", builder, "--out", str(tmp_path / "a.json"),
                     *flags]) == 0
        assert main(["gen", "--builder", builder, "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    capsys.readouterr()


def test_gen_refusals_name_the_flag(tmp_path, capsys):
    out = tmp_path / "x.json"
    for builder, flag, value, message in (
            ("random", "--optimistic-scale", "nan", "must be a finite number, got nan"),
            ("random", "--shrink-factor", "inf", "must be a finite number, got inf"),
            ("random", "--seed", "1" + "0" * 400, "is an integer too large for a float"),
            ("figure_right", "--arm1-fourth", "inf", "must be a finite number, got inf")):
        argv = ["gen", "--builder", builder, "--out", str(out), f"{flag}={value}"]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert f"error: {flag} {message}" in captured.err, argv
        assert "config field" not in captured.err and not out.exists(), argv


def test_builders_refuse_more_than_max_means(tmp_path, capsys):
    # each sizing option one step above the bound; the check comes before any
    # array is built, so nothing here allocates
    assert sb.structures.MAX_MEANS == 10**6
    sb.GeneratorSpec(arm_count=50, base_model_count=19_950, hard_model_count=50)  # at the bound
    out = str(tmp_path / "s.json")
    for flags in (["--arms", "6667"], ["--arms", "50", "--base-models", "19951"],
                  ["--arms", "50", "--hard-models", "19901"]):
        assert main(["gen", "--builder", "random", "--out", out, *flags]) == 2, flags
        err = capsys.readouterr().err
        assert "bad structure options for builder 'random'" in err, flags
        assert ("(base_model_count + hard_model_count) x arm_count is 1000050 means, "
                "above the limit of 1000000") in err, flags
    path = tmp_path / "c.json"
    base = {"horizon": 50, "runs": 2, "agents": [{"algorithm": "sucb"}]}
    for fresh, entry, fields in (
            (False, {"builder": "figure_left", "grid_per_region": 111_112}, "grid_per_region"),
            (False, {"builder": "random", "arm_count": 6667}, "arm_count"),
            (True, {"builder": "random", "base_model_count": 19_951, "arm_count": 50},
             "base_model_count"),
            (True, {"builder": "random", "hard_model_count": 19_901, "arm_count": 50},
             "hard_model_count")):
        path.write_text(json.dumps({**base, "structure": entry, "fresh_structure_per_run": fresh}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2, entry
        err = capsys.readouterr().err
        assert f"bad structure options for builder {entry['builder']!r}" in err, entry
        assert fields in err and "1000000" in err, entry
    assert not os.path.exists(out) and not (tmp_path / "o").exists()


def test_classify_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["classify", "--structure", missing]) == 2
    assert missing in capsys.readouterr().err
    # a directory and a file that is not UTF-8, through --structure and a
    # run config's structure entry
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"arm_count": 1, "provenance": "caf\u00e9"}'.encode("latin-1"))
    config = tmp_path / "c.json"
    for path in (str(tmp_path), str(latin)):
        assert main(["classify", "--structure", path]) == 2, path
        assert path in capsys.readouterr().err, path
        config.write_text(json.dumps({"horizon": 50, "runs": 2, "structure": path,
                                      "agents": [{"algorithm": "sucb"}]}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2, path
        assert path in capsys.readouterr().err, path


def test_classify_rejects_bool_true_index(right_structure_file, capsys):
    # json true used to load model 1 silently
    text = open(right_structure_file).read()
    assert '"true_index": 0' in text
    with open(right_structure_file, "w") as handle:
        handle.write(text.replace('"true_index": 0', '"true_index": true'))
    assert main(["classify", "--structure", right_structure_file]) == 2
    assert "true_index must be an integer, got True" in capsys.readouterr().err


def test_theory_bounds_and_notes(right_structure_file, capsys):
    assert main(["theory", "--structure", right_structure_file,
                 "--bound", "asae", "--bound", "const", "--bound", "lower",
                 "--n", "500000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [b["name"] for b in doc["bounds"]]
    assert names == ["anytime_phased_elimination"]
    arm2 = [t for t in doc["bounds"][0]["terms"] if t["arm"] == 2]
    assert arm2[0]["separation"] == pytest.approx(0.0576, abs=1e-12)
    assert any("Assumption 1 violated" in note for note in doc["notes"])
    assert any(note.startswith("lower:") for note in doc["notes"])


def test_theory_lower_refuses_zero_separation(tmp_path, capsys):
    # in the constant-regret family, with a rival that matches the true mean
    # on the arm it favours: the floor is a note, not a crash
    path = tmp_path / "cr.json"
    sb.save_structure(sb.Structure([[1.0, 0.8], [0.001, 0.8]], 0), path)
    assert main(["theory", "--structure", str(path), "--bound", "lower",
                 "--n", "1000000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"] == []
    assert doc["notes"] == ["lower: the models favouring arm 1 have squared separation 0 "
                            "on it; the floor divides by it"]


def test_theory_sequences_document(right_structure_file, tmp_path, capsys):
    out = str(tmp_path / "seq.json")
    assert main(["theory", "--structure", right_structure_file, "--sequences",
                 "--alpha", "4", "--beta", "2", "--n", "500000",
                 "--out", out]) == 0
    capsys.readouterr()
    doc = json.loads(open(out).read())
    seq = doc["sequences"]
    assert seq["last_active_phase"] == {"1": 3, "2": 3, "3": 2}
    assert seq["informative_arms"] == {"1": [0, 1], "2": [0, 2], "3": [0, 3]}
    assert [p["active"] for p in seq["phases"]][2:] == [[0, 1, 2, 3], [0, 1, 2], [0]]


def test_theory_builds_schedule_once(right_structure_file, monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sb.deterministic_sequences(*args, **kwargs)

    monkeypatch.setattr(cli, "deterministic_sequences", counting)
    assert main(["theory", "--structure", right_structure_file, "--bound", "sae",
                 "--sequences", "--alpha", "4", "--beta", "2", "--n", "500000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [b["name"] for b in doc["bounds"]] == ["phased_elimination"]
    assert doc["sequences"]["n"] == 500000
    assert len(calls) == 1


def test_main_calls_share_no_state(right_structure_file, capsys):
    # one parser serves every call in the process; no call sees another's flags
    assert cli._parser() is cli._parser()
    assert main(["theory", "--structure", right_structure_file, "--bound", "sucb",
                 "--bound", "ucb", "--sequences", "--beta", "2", "--n", "1000"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["classify", "--structure", right_structure_file]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "in_worst_case", "in_optimality", "in_constant_regret"}
    assert main(["theory", "--structure", right_structure_file, "--bound", "asae",
                 "--n", "1000"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert [b["name"] for b in first["bounds"]] == [
        "optimistic_confidence_set", "index_policy_reference"]
    assert first["sequences"]["beta"] == 2.0
    assert [b["name"] for b in second["bounds"]] == ["anytime_phased_elimination"]
    assert "sequences" not in second


def test_theory_usage_errors(right_structure_file, capsys):
    assert main(["theory", "--structure", right_structure_file,
                 "--bound", "sae"]) == 2
    assert "--n" in capsys.readouterr().err
    assert main(["theory", "--structure", right_structure_file,
                 "--sequences", "--n", "1000"]) == 2  # default beta = 1
    assert "beta" in capsys.readouterr().err
    # non-finite alpha or beta would write NaN/Infinity, which is not JSON
    for command, flags, name in (
            ("theory", ["--bound", "sae", "--alpha", "nan", "--beta", "2"], "alpha"),
            ("theory", ["--sequences", "--beta", "inf"], "beta"),
            ("theory", ["--sequences", "--beta", "nan"], "beta"),
            ("theory", ["--sequences", "--alpha", "4", "--beta", "1e300"], "beta"),
            ("classify", ["--alpha", "4", "--beta", "1e300"], "beta"),
            ("classify", ["--alpha", "inf", "--beta", "2"], "alpha")):
        argv = [command, "--structure", right_structure_file, "--n", "500000", *flags]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert name in captured.err and not captured.out, argv


def test_theory_refuses_n_below_one(right_structure_file, capsys):
    # lower_bound_cr's refusals become notes, so --n is checked up front
    for n in ("0", "-5"):
        for bound in ("lower", "const", "ucb"):
            argv = ["theory", "--structure", right_structure_file, "--bound", bound, "--n", n]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert f"--n must be >= 1, got {n}" in captured.err and not captured.out, argv


def test_structure_mean_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"arm_count": 2, "true_index": 0, "models": [[0.5, 0.2], [0.1, 1%s]]}'
                    % ("0" * 400))
    for argv in (["classify", "--structure", str(path)],
                 ["theory", "--structure", str(path), "--bound", "ucb", "--n", "100"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "model 1, arm 1: mean 1000" in captured.err and not captured.out, argv


def test_paper_suite_pull_checks():
    # the fig3c arm-3 checks on the criterion-6 seeds at a short horizon:
    # five sucb runs pull arm 3, asae pulls it in every run
    batch = sb.run_batch(sb.ExperimentConfig(
        structure=sb.build_figure_right(),
        agents=(sb.AgentConfig("asae", eta=0.01), sb.AgentConfig("sucb")),
        horizon=3000, runs=25, base_seed=7))
    assert cli._check(batch, "unpulled", "sucb", 3) == (
        "sucb leaves arm 3 unpulled in most runs (20/25)", True)
    assert cli._check(batch, "pulls", "sucb", "asae", 3) == (
        "pulls of arm 3: sucb < asae with separated CIs", True)
    assert not cli._check(batch, "pulls", "asae", "sucb", 3)[1]
    # the final regrets (80.1+/-7.4 and 95.0+/-6.2) are separated; the arm-1
    # pulls (298.4+/-42.4 and 351.0+/-32.7) overlap, so neither order holds
    assert cli._check(batch, "regret", "asae", "sucb") == (
        "regret(asae) < regret(sucb) with separated CIs", True)
    assert not cli._check(batch, "pulls", "asae", "sucb", 1)[1]


def test_paper_suite_exit_code(capsys):
    checks = [("fig3a", "asae < sucb", True), ("fig3c", "sae < sucb", False)]
    assert cli._report_checks(checks, "suite") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["PASS fig3a: asae < sucb", "FAIL fig3c: sae < sucb",
                     "1/2 checks passed; outputs in suite"]
    assert cli._report_checks(checks[:1], "suite") == 0
    assert capsys.readouterr().out.endswith("1/1 checks passed; outputs in suite\n")


def test_paper_suite_end_to_end(tmp_path, monkeypatch, capsys):
    # the table's rows at a tiny horizon and run count, one worker
    tiny = {figure: {**row, "config": {**row["config"], "horizon": 200, "runs": 3}}
            for figure, row in cli.SUITE.items()}
    tiny["fig3c"]["desk_runs"] = 2
    monkeypatch.setattr(cli, "SUITE", tiny)
    out = tmp_path / "suite"
    code = main(["paper-suite", "--out", str(out), "--scale", "desk", "--workers", "1"])
    assert sorted(os.listdir(out)) == ["fig3a", "fig3b", "fig3c", "fig3d", "fig4"]
    for figure in ("fig3a", "fig3b", "fig3c", "fig3d"):
        manifest = json.loads((out / figure / "manifest.json").read_text())
        assert manifest["runs"] == (2 if figure == "fig3c" else 3)
    copies = sorted(os.listdir(out / "fig4"))
    assert copies == sorted(f"fig4{letter}_{tag}_pulls.csv" for letter in "abc"
                            for tag in ("sae", "asae", "sucb", "ucb1"))
    for copy in copies:
        label, tag, _ = copy.split("_")
        source = out / f"fig3{label[-1]}" / f"{tag}_pulls.csv"
        assert (out / "fig4" / copy).read_bytes() == source.read_bytes(), copy
    lines = capsys.readouterr().out.splitlines()
    results = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    checks = [(figure, check) for figure, row in tiny.items() for check in row["checks"]]
    assert len(results) == len(checks) == 10
    for line, (figure, (kind, *args)) in zip(results, checks):
        status, _, text = line.partition(f" {figure}: ")
        if kind == "unpulled":
            unpulled, runs = map(int, text.rpartition("(")[2].rstrip(")").split("/"))
            assert text.startswith(f"{args[0]} leaves arm {args[1]} unpulled"), line
            assert (status == "PASS") == (2 * unpulled > runs), line
            continue
        # the verdict from the written CSVs: the final regret row, or the arm's pulls row
        low, high, *arm = args
        ends = []
        for tag in (low, high):
            table = (out / figure / f"{tag}_{kind}.csv").read_text().splitlines()
            _, mean, half = table[arm[0] + 1 if arm else -1].split(",")
            ends.append((float(mean), float(half)))
        assert low in text and high in text and ("arm" in text) == bool(arm), line
        assert (status == "PASS") == (ends[0][0] + ends[0][1] < ends[1][0] - ends[1][1]), line
    passed = sum(line.startswith("PASS") for line in results)
    assert lines[-1] == f"{passed}/10 checks passed; outputs in {out}"
    assert code == (0 if passed == 10 else 1)
    # the checks that passed, alone, exit 0; the ones that failed exit 1
    verdicts = {check: line.startswith("PASS") for check, line in zip(checks, results)}
    for keep in (True, False):
        monkeypatch.setattr(cli, "SUITE", {
            figure: {**row, "checks": tuple(c for c in row["checks"]
                                            if verdicts[figure, c] == keep)}
            for figure, row in tiny.items()})
        target = tmp_path / str(keep)
        code = main(["paper-suite", "--out", str(target), "--scale", "desk", "--workers", "1"])
        count = sum(verdict == keep for verdict in verdicts.values())
        assert code == (0 if keep or not count else 1), keep
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"{count if keep else 0}/{count} checks passed; outputs in {target}")
