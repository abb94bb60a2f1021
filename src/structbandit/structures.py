"""Builders for concrete structures and the structure file format.

Two hand-coded three-region / four-region demonstration structures, a
seeded random generator that plants optimistic variants of the true model,
JSON save/load with full validation, and the one reader and field checker
for every JSON input.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .gaps import RewardSpec, Structure

# A model whose top two means are closer than this gets its optimal arm
# nudged upward so the maximum is unique.
_TIE_WIDTH = 1e-9
_TIE_NUDGE = 1e-6

# The most means (models x arms) a builder makes, 8 MB as float64: 133 times
# the largest reference structure (150 x 50), checked before any allocation.
MAX_MEANS = 10**6


# a JSON kind, as a constructor annotation names it -> (Python types, words)
_JSON_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a finite number"),
               "bool": (bool, "true or false"), "str": (str, "a string"), "list": (list, "a list")}


def json_value(value, kind: str, name: str):
    """``value`` if it is a JSON value of ``kind``: "int", "float", "bool",
    "str" or "list", optionally followed by "| None".  A bool is never a
    number, an integer must fit in a float, and a float must be finite;
    anything else raises a ValueError naming ``name``."""
    base, _, nullable = kind.partition(" | ")
    types, words = _JSON_KINDS[base]
    if value is None and nullable == "None":
        return value
    # an int compares with the largest float exactly; nan and inf fail too
    if (not isinstance(value, types) or isinstance(value, bool) != (base == "bool")
            or base == "float" and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be {words}, got {value!r}")
    if base == "int" and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} is an integer too large for a float")
    return value


def read_json(path):
    """The JSON document in the UTF-8 file at ``path``: an OSError if the
    file cannot be read, a ValueError naming it if it holds no JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also bad UTF-8 and over-long integers
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def _nudge_ties(rows) -> np.ndarray:
    """The mean rows, at least two a row, as a float matrix.  Where a row's
    largest mean (the lowest index on ties) is within _TIE_WIDTH of its next
    largest, that mean is raised by _TIE_NUDGE, at most to 1; a ValueError
    names the lowest row that this leaves tied."""
    rows = np.array(rows, dtype=np.float64)
    top = rows.argmax(axis=1)
    second = np.partition(rows, -2, axis=1)[:, -2]
    tied = np.flatnonzero(rows.max(axis=1) - second < _TIE_WIDTH)
    rows[tied, top[tied]] = np.minimum(rows[tied, top[tied]] + _TIE_NUDGE, 1.0)
    stuck = tied[rows[tied, top[tied]] - second[tied] < _TIE_WIDTH]
    if len(stuck):
        k = stuck[0]
        raise ValueError("tied optimal arms could not be separated by nudging "
                         f"(means {float(rows[k, top[k]])} and {float(second[k])} at the clamp)")
    return rows


def _segment(f: float, start: float, end: float) -> float:
    return start + (end - start) * f


def build_figure_left(grid_per_region: int = 17, informative_arm2: bool = True) -> Structure:
    """Three arms whose means are piecewise linear over three parameter regions.

    Arm 0 falls from 0.85 to 0.8 in the first region, from 0.8 to 0.4 in
    the second, and stays at 0.4.  Arm 2 rises from 0.6 to 0.8, plateaus at
    0.86, then falls back from 0.8 to 0.6.  Arm 1 sits at 0.8 except in the
    middle region where it drops to 0.2; with ``informative_arm2=False``
    it is 0.8 everywhere, which removes the cheap way of recognising
    middle-region models.

    Each region contributes ``grid_per_region`` models at the midpoints of
    a uniform partition, so region endpoints (where arms tie) are never
    sampled.  The true model is the one nearest the centre of the first
    region.
    """
    if grid_per_region < 2:
        raise ValueError(f"grid_per_region must be at least 2, got {grid_per_region}")
    if 9 * grid_per_region > MAX_MEANS:  # 3 * grid_per_region models x 3 arms
        raise ValueError(f"grid_per_region must be at most {MAX_MEANS // 9} (3 arms x 3 regions "
                         f"x grid_per_region means, at most {MAX_MEANS}), got {grid_per_region}")

    def arm0(region: int, f: float) -> float:
        return (_segment(f, 0.85, 0.8), _segment(f, 0.8, 0.4), 0.4)[region]

    def arm1(region: int, f: float) -> float:
        if not informative_arm2:
            return 0.8
        return (0.8, 0.2, 0.8)[region]

    def arm2(region: int, f: float) -> float:
        return (_segment(f, 0.6, 0.8), 0.86, _segment(f, 0.8, 0.6))[region]

    rows = []
    for region in range(3):
        for j in range(grid_per_region):
            f = (j + 0.5) / grid_per_region
            rows.append([arm0(region, f), arm1(region, f), arm2(region, f)])

    # Model nearest the centre of region 1 (grid index closest to f = 1/2).
    true_index = min(
        range(grid_per_region),
        key=lambda j: (abs((j + 0.5) / grid_per_region - 0.5), j),
    )
    return Structure(
        _nudge_ties(rows),
        true_index=true_index,
        reward=RewardSpec("bernoulli"),
        provenance={
            "builder": "figure_left",
            "seed": None,
            "flags": {
                "grid_per_region": grid_per_region,
                "informative_arm2": informative_arm2,
            },
        },
    )


def build_figure_right(arm1_fourth_model: float = 0.92) -> Structure:
    """Four arms, four models, one per region, constants throughout.

    The first model is the true one.  ``arm1_fourth_model`` sets the mean
    of arm 1 in the fourth model: with the default 0.92 that model is the
    most optimistic in the structure, with a low value (such as 0.2) it is
    not optimistic at all.
    """
    rows = [
        (0.8, 0.7, 0.6, 0.5),
        (0.8, 0.7, 0.84, 0.1),
        (0.8, 0.4, 0.6, 0.88),
        (0.8, float(arm1_fourth_model), 0.6, 0.5),
    ]
    return Structure(
        _nudge_ties(rows),
        true_index=0,
        reward=RewardSpec("bernoulli"),
        provenance={
            "builder": "figure_right",
            "seed": None,
            "flags": {"arm1_fourth_model": float(arm1_fourth_model)},
        },
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the random structure generator.

    ``base_model_count`` models are drawn with independent uniform means
    and one of them becomes the true model.  ``hard_model_count`` extra
    models are copies of the true model with one non-optimal arm i raised
    above the true best mean by ``optimistic_scale`` times a uniform draw u
    (clamped at 1) and one other arm j scaled by ``shrink_factor``.  Such a
    model is optimistic, but not close to the truth: it sits
    Delta_i + optimistic_scale * u away on arm i and
    (1 - shrink_factor) * mu_j away on arm j.
    """

    arm_count: int = 50
    base_model_count: int = 100
    hard_model_count: int = 50
    optimistic_scale: float = 0.2
    shrink_factor: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):  # each field of the JSON kind its annotation names
            try:
                json_value(getattr(self, spec.name), spec.type, spec.name)
            except ValueError as exc:
                raise TypeError(str(exc)) from None
        if self.arm_count < 3:
            raise ValueError(
                f"arm_count must be at least 3 so a hard model can raise one arm "
                f"and shrink another, got {self.arm_count}"
            )
        if self.base_model_count < 1:
            raise ValueError("base_model_count must be positive")
        if self.hard_model_count < 0:
            raise ValueError("hard_model_count must be non-negative")
        means = (self.base_model_count + self.hard_model_count) * self.arm_count
        if means > MAX_MEANS:
            raise ValueError(f"(base_model_count + hard_model_count) x arm_count is {means} "
                             f"means, above the limit of {MAX_MEANS}")
        if not 0 < self.optimistic_scale <= 1:
            raise ValueError("optimistic_scale must be in (0, 1]")
        if not 0 < self.shrink_factor < 1:
            raise ValueError("shrink_factor must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def generate_random(spec: GeneratorSpec) -> Structure:
    """Draw a structure from ``spec``; the same spec always yields the same
    structure, independent of platform."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    base = _nudge_ties(rng.random((spec.base_model_count, spec.arm_count)))
    true_index = int(rng.integers(spec.base_model_count))
    true_means = base[true_index]
    i_star = int(true_means.argmax())

    # per hard model, in draw order: the raised arm's place among the arms
    # but i_star, a uniform in [1e-6, 1), the shrunk arm's place among the rest
    draws = []
    for _ in range(spec.hard_model_count):
        raise_at, eps = rng.integers(spec.arm_count - 1), rng.random()
        while eps < 1e-6:
            eps = rng.random()
        draws.append((raise_at, eps, rng.integers(spec.arm_count - 2)))
    raise_at, eps, shrink_at = np.array(draws).reshape(-1, 3).T
    raised = (raise_at + (raise_at >= i_star)).astype(np.intp)
    shrunk = shrink_at + (shrink_at >= np.minimum(raised, i_star))
    shrunk = (shrunk + (shrunk >= np.maximum(raised, i_star))).astype(np.intp)
    lifted = true_means[i_star] + spec.optimistic_scale * eps

    hard = np.tile(true_means, (spec.hard_model_count, 1))
    models = np.arange(spec.hard_model_count)
    hard[models, raised] = np.minimum(lifted, 1.0)
    hard[models, shrunk] *= spec.shrink_factor
    rows = np.vstack([base, _nudge_ties(hard)])
    clamped = (spec.base_model_count + np.flatnonzero(lifted > 1.0)).tolist()

    return Structure(
        rows,
        true_index=true_index,
        reward=RewardSpec("bernoulli"),
        provenance={
            "builder": "random",
            "seed": spec.seed,
            "flags": {
                "arm_count": spec.arm_count,
                "base_model_count": spec.base_model_count,
                "hard_model_count": spec.hard_model_count,
                "optimistic_scale": spec.optimistic_scale,
                "shrink_factor": spec.shrink_factor,
                "clamped_models": clamped,
            },
        },
    )


def save_structure(structure: Structure, path) -> None:
    """Write a structure as a self-describing JSON document."""
    reward_params = {}
    if structure.reward.kind == "gaussian":
        reward_params["variance"] = structure.reward.variance
    doc = {
        "arm_count": structure.arm_count,
        "true_index": structure.true_index,
        "reward": {"kind": structure.reward.kind, "params": reward_params},
        "models": None,
        "provenance": structure.provenance,
    }
    # json writes a finite float as its repr; the rows go in as that text,
    # indented as json.dumps(doc, indent=1) would indent them
    head, tail = json.dumps(doc, indent=1).split('\n "models": null', 1)
    rows = ",\n  ".join("[\n   " + ",\n   ".join(map(repr, row)) + "\n  ]"
                        for row in structure.means.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head}\n "models": [\n  {rows}\n ]{tail}\n')


# the structure file's required fields and their JSON kinds
_FILE_FIELDS = {"arm_count": "int", "true_index": "int", "models": "list"}


def load_structure(path) -> Structure:
    """Read and validate a structure document written by :func:`save_structure`."""
    doc = read_json(path)
    try:
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object at top level")
        unknown = sorted(set(doc) - {*_FILE_FIELDS, "reward", "provenance"})
        if unknown:
            raise ValueError(f"unknown fields {unknown}")
        for key, kind in _FILE_FIELDS.items():
            if key not in doc:
                raise ValueError(f"missing required field {key!r}")
            json_value(doc[key], kind, key)
        if not doc["models"]:
            raise ValueError("'models' must be a non-empty list of mean arrays")
        for k, row in enumerate(doc["models"]):
            if not isinstance(row, list) or len(row) != doc["arm_count"]:
                raise ValueError(f"model {k} has {len(row) if isinstance(row, list) else 'no'} "
                                 f"means, expected arm_count = {doc['arm_count']}")

        reward = doc.get("reward", {"kind": "bernoulli"})
        if (not isinstance(reward, dict) or "kind" not in reward
                or not set(reward) <= {"kind", "params"}):
            raise ValueError(f"'reward' must be an object of a 'kind' and optional 'params', "
                             f"got {reward!r}")
        params = reward.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"reward.params must be an object, got {params!r}")
        extra = sorted(set(params) - ({"variance"} if reward["kind"] == "gaussian" else set()))
        if extra:
            raise ValueError(f"unknown reward.params {extra} for kind {reward['kind']!r}")
        variance = json_value(params.get("variance", 1.0), "float", "reward.params.variance")
        return Structure(doc["models"], true_index=doc["true_index"],
                         reward=RewardSpec(reward["kind"], float(variance)),
                         provenance=doc.get("provenance"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
