"""Golden outputs: sha256 of every file that `run`, `gen` and `theory` write
on tiny versions of the four paper-suite figures, plus `theory` (the regret
floor among its bounds) and `classify` on a constant-regret structure, and
`theory` and `classify` on a full-size random structure with hard models.

The digests pin today's numbers byte for byte, so a change that must leave
outputs alone (a refactor, an optimisation) is checked here.  Update them
only with an intended output change, and say so where the change is
recorded; `python tests/test_golden.py` prints the current digests.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from structbandit.cli import SUITE, main

# the paper-suite figures' structures and agents, at the tiny horizon and run
# count that produce() sets
FIGURES = {figure: {key: row["config"][key] for key in
                    ("structure", "agents", "fresh_structure_per_run") if key in row["config"]}
           for figure, row in SUITE.items()}

GEN_ARGS = ["gen", "--builder", "random", "--out", "structure.json", "--seed", "3",
            "--arms", "6", "--base-models", "10", "--hard-models", "0"]
THEORY_ARGS = ["theory", "--structure", "structure.json", "--bound", "sae",
               "--bound", "asae", "--bound", "const", "--bound", "sucb", "--bound", "ucb",
               "--sequences", "--alpha", "3", "--beta", "2", "--n", "100000",
               "--out", "theory.json"]

# the criterion-10 constant-regret structure at gamma = 1e-3
_GAMMA = 1e-3
LOWER_STRUCTURE = {"arm_count": 3, "true_index": 0,
                   "models": [[0.5, 0.3, 0.2], [0.5 - _GAMMA, 0.6, 0.2],
                              [0.5 - _GAMMA, 0.3, 0.7]]}
_LOWER_PARAMS = ["--alpha", "4", "--beta", "2", "--n", "500000"]
LOWER_THEORY_ARGS = ["theory", "--structure", "structure.json", "--bound", "lower",
                     "--bound", "const", "--bound", "sae", "--sequences",
                     *_LOWER_PARAMS, "--out", "theory.json"]
LOWER_CLASSIFY_ARGS = ["classify", "--structure", "structure.json", *_LOWER_PARAMS]

# a default-size random structure (150 models x 50 arms, 50 of them hard) at
# the benchmark's theory parameters; its schedule removes arms over nine
# phases, and without the staleness discount on removed arms it would differ
FULL_GEN_ARGS = ["gen", "--builder", "random", "--out", "structure.json", "--seed", "30"]
_FULL_PARAMS = ["--alpha", "4", "--beta", "2", "--n", "500000"]
FULL_THEORY_ARGS = ["theory", "--structure", "structure.json", "--bound", "sae",
                    "--bound", "asae", "--bound", "const", "--bound", "sucb", "--bound", "ucb",
                    "--sequences", *_FULL_PARAMS, "--out", "theory.json"]
FULL_CLASSIFY_ARGS = ["classify", "--structure", "structure.json", *_FULL_PARAMS]

GOLDEN = {
    "fig3a": {
        "asae_pulls.csv":
            "bc1a9402a857f926bd4bf8d5c0742b1671d6def92876a766f1710665fbb60ab4",
        "asae_regret.csv":
            "8848ac58c154fc3971b426ad32e89e4c89177ab4b00bb556fe5e51628b37e098",
        "manifest.json":
            "30b3876a5498100f54a924d9c768ef76e8b9c273ce5be19ab7bee217c5911193",
        "sae_pulls.csv":
            "dbf7e3dddf73bf69d8e4dc32771f95dbc5da2bbd0bd393e9d8a494ffc6827d13",
        "sae_regret.csv":
            "cf29c18b45e0a5eb77e95e339ca0f08fb3d0da7fe0d5628119e3ce20eefce837",
        "sucb_pulls.csv":
            "ef55c99f4a8b0fcf2c452e30915425b9d255784a2adbbe1d4e752e6c5343cdbe",
        "sucb_regret.csv":
            "29b1188a59643e13b3a7f0add1c84c81d657ebc0590212ecd9177eb039a13d43",
        "ucb1_pulls.csv":
            "12452317ff83c53f1b53f0d931448d8f5d63c15f250455bff49d1a77722c39c4",
        "ucb1_regret.csv":
            "9b3dfef08fca6b6604a56e2d87c20e265057e718e82c8a05eaf6813ec5608f6c",
    },
    "fig3b": {
        "asae_pulls.csv":
            "440a64e95cbd5bebded468f40abf1a13739f497ace659817d218ad674b7cd5b2",
        "asae_regret.csv":
            "7a74c3bfd321eaca631bb7c979271ff6a5896f6170d8ee40e5790b0cad2264e1",
        "manifest.json":
            "88060e2995f08e5f6378518535ed96675665746f2958cd846c52c678fee880d9",
        "sae_pulls.csv":
            "a486f80276a7b6ecfb80c69a7c7c24c2d52a5befcb5e05d07e07f8c8329e6d76",
        "sae_regret.csv":
            "c2c3dbddc748469041123df09e75faced88111bff7fabbc39495c0c72d4eb8e7",
        "sucb_pulls.csv":
            "ef55c99f4a8b0fcf2c452e30915425b9d255784a2adbbe1d4e752e6c5343cdbe",
        "sucb_regret.csv":
            "29b1188a59643e13b3a7f0add1c84c81d657ebc0590212ecd9177eb039a13d43",
        "ucb1_pulls.csv":
            "12452317ff83c53f1b53f0d931448d8f5d63c15f250455bff49d1a77722c39c4",
        "ucb1_regret.csv":
            "9b3dfef08fca6b6604a56e2d87c20e265057e718e82c8a05eaf6813ec5608f6c",
    },
    "fig3c": {
        "asae_pulls.csv":
            "a3ff688b4f39c593900b1471079082d22ee3640624993e91f3086e8140fa7cd0",
        "asae_regret.csv":
            "8bed73b7f5cd7e9855ffe0390f58c2969e8965273c605fab8bc02a41fadb1903",
        "manifest.json":
            "853ae659a861056aad941866a2cbb1c944e3433ef6150265f66aa04ec43c0c8d",
        "sae_pulls.csv":
            "954ed30175046010be595cc3354c9c2b7c59dee045d5d76380611d845bff580e",
        "sae_regret.csv":
            "4e3cefe106a859917d96567b28c4906e17206d5a2c367d28b04d52d3f9d21787",
        "sucb_pulls.csv":
            "d3e470f7c8b6391b0795b6fde8b52c14b181000f287015f67d0f132399d64244",
        "sucb_regret.csv":
            "1ce6271cb001590db6c2322e22ed68eb2be09cf3404ecba8dfb5d7ee845c13e9",
        "ucb1_pulls.csv":
            "aba41b914ad0d82645d3dcb9d3fefd2fb51b67119d3ec52204cdc93e3750abf2",
        "ucb1_regret.csv":
            "5cc8f5fbbf9755e6e1720438bbe1d2bf6742822feccd1d9395eb2e154b87f5f2",
    },
    "fig3d": {
        "asae_pulls.csv":
            "933da5125c4fa77e1a8d279d5f72a79c52985e62307bae3f9fe9a1728ae32b43",
        "asae_regret.csv":
            "f2893bd09899ae68391e5b49193eb013f21b52256f2194725552fcba678f772c",
        "manifest.json":
            "9a317b275958cf4cd48c00f0fe79389a7f30b0c43d141eb48c0588aaf5b93d43",
        "sae_pulls.csv":
            "ceb44b99c1ac1ac419f18ee766b34a72f739776282f9f9e799f580d849559513",
        "sae_regret.csv":
            "e6ea16a6c8dd2c029cd261ce37839fb53771d9b8831e880fe7861048f060b0e8",
        "sucb_pulls.csv":
            "eb9d307305e16c11ea88f92512f2be61f1341e65795e567a2aaed60c6cc17834",
        "sucb_regret.csv":
            "5db566159f44998a44ad80f007d9b3ffaf60705a3e04473d751011ce62bd0928",
        "ucb1_pulls.csv":
            "3dac3d0b5efbce884172ce88ee813f7e544de9f68d1f82429aea8c19d9e277ff",
        "ucb1_regret.csv":
            "f2f6bbd2086cc2e6d465ac325d3fe63ba593dbf4c6243b9363cf9d87deab0cd1",
    },
    "theory": {
        "structure.json":
            "7cfadea718b8af2db656039a9da8e6796b81faf463580b1980072483ae47caec",
        "theory.json":
            "d111188296a9806263fb50566bf17d9ed5dbf87975d91d03584b3e06ef9808d5",
    },
    "full": {
        "classify.json":
            "5c347ffdb72ca1e830c11c5c9e2ab917ee3336c73924f4a12048e3ec5141a676",
        "structure.json":
            "094e94e2c123d7bdf14b4b62c013af63e0678998b587fb20ee5f44bd883e1d52",
        "theory.json":
            "6d323895947a0a9bbdcee254aabeaaab4159cc1796959e78b4a52c93f9790d3a",
    },
    "lower": {
        "classify.json":
            "7fd59d172d58f4671f57f994a497d26d17a56b2a4fac7d50019f963017d58339",
        "structure.json":
            "4d79b1c10d49e459f3dacfc841f11f80c58bd4cced77bb830a4de713164a3890",
        "theory.json":
            "5d1766f7aefeff5e7fc29876101a1c74597828d94be296cf4aacfd35683d4e1b",
    },
}


def _digests(directory):
    return {name: hashlib.sha256(open(os.path.join(directory, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(directory))}


def produce(workdir):
    """Write every golden output under workdir; return {output: {file: sha256}}."""
    out = {}
    for figure, entry in FIGURES.items():
        config = {"horizon": 300, "runs": 2, **entry}
        path = os.path.join(workdir, f"{figure}.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        target = os.path.join(workdir, figure)
        assert main(["run", "--config", path, "--out", target]) == 0, figure
        out[figure] = _digests(target)
    # theory echoes the structure path into its JSON, so run it from its
    # own directory with relative paths
    target = os.path.join(workdir, "theory")
    os.makedirs(target)
    cwd = os.getcwd()
    os.chdir(target)
    try:
        assert main(GEN_ARGS) == 0
        assert main(THEORY_ARGS) == 0
    finally:
        os.chdir(cwd)
    out["theory"] = _digests(target)
    target = os.path.join(workdir, "lower")
    os.makedirs(target)
    os.chdir(target)
    try:
        with open("structure.json", "w") as handle:
            json.dump(LOWER_STRUCTURE, handle)
        assert main(LOWER_THEORY_ARGS) == 0
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(LOWER_CLASSIFY_ARGS) == 0
        with open("classify.json", "w") as handle:
            handle.write(printed.getvalue())
    finally:
        os.chdir(cwd)
    out["lower"] = _digests(target)
    target = os.path.join(workdir, "full")
    os.makedirs(target)
    os.chdir(target)
    try:
        assert main(FULL_GEN_ARGS) == 0
        assert main(FULL_THEORY_ARGS) == 0
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(FULL_CLASSIFY_ARGS) == 0
        with open("classify.json", "w") as handle:
            handle.write(printed.getvalue())
    finally:
        os.chdir(cwd)
    out["full"] = _digests(target)
    return out


def test_golden_outputs(tmp_path, capsys):
    produced = produce(str(tmp_path))
    capsys.readouterr()
    assert produced == GOLDEN


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        digests = produce(workdir)
    json.dump(digests, sys.stdout, indent=4, sort_keys=True)
    print()
