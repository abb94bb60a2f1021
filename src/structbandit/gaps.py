"""Model structures and the gap quantities used by the agents and the bounds.

A structure is a finite collection of candidate mean vectors ("models"), one
of which is the true model: it is its means matrix, one row per model,
checked once, as a matrix.  Everything downstream works off two kinds of
gaps: the sub-optimality gap of an arm within one model, and the per-arm
separation between two models.  The separation of a model subset measured on
an arm subset (``psi``) drives all the regret bounds in :mod:`theory`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Comparisons between derived real quantities use this absolute tolerance.
TOLERANCE = 1e-12

_REWARD_KINDS = ("bernoulli", "gaussian")


@dataclass(frozen=True)
class RewardSpec:
    """Reward distribution attached to a structure.

    ``bernoulli`` draws are in {0, 1} with the arm mean as success
    probability; ``gaussian`` draws are normal with the arm mean and
    ``variance``.
    """

    kind: str = "bernoulli"
    variance: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}; expected one of {_REWARD_KINDS}")
        if not math.isfinite(self.variance):
            raise ValueError(f"reward variance must be finite, got {self.variance}")
        if self.kind == "gaussian" and not self.variance > 0:
            raise ValueError(f"gaussian reward needs variance > 0, got {self.variance}")


@dataclass(frozen=True, eq=False)
class Structure:
    """A finite set of candidate models together with the true one.

    The structure is its means matrix: ``means`` holds one row of arm means
    per model (M x K), given as any sequence of equal-length number
    sequences and kept read-only as float64, and ``optimal_arms`` each
    row's arm of largest mean, which is unique, with every mean in [0, 1].
    ``means[true_index]`` is the model the environment draws rewards from;
    the agents receive the matrix but never the true index.  ``reward`` and
    ``provenance`` travel with the structure so that a saved file is self
    describing.  Structures compare by these four fields, and are unhashable.
    """

    means: np.ndarray
    true_index: int
    reward: RewardSpec = RewardSpec()
    provenance: dict | None = None
    optimal_arms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = self.means
        if len(rows) == 0:
            raise ValueError("structure needs at least one model")
        arms = len(rows[0])
        if arms == 0:
            raise ValueError("model 0, no means; a model needs at least one arm")
        k = next((k for k, n in enumerate(map(len, rows)) if n != arms), None)
        if k is not None:
            raise ValueError(f"model {k} has {len(rows[k])} arms, expected {arms} like model 0")
        if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf"):
            for k, row in enumerate(rows):  # numbers only: np.array parses strings and bools
                if not set(map(type, row)) <= {int, float}:
                    i = next((i for i, m in enumerate(row) if isinstance(m, bool)
                              or not isinstance(m, (int, float, np.integer, np.floating))), None)
                    if i is not None:
                        raise ValueError(f"model {k}, arm {i}: mean {row[i]!r} is not a number")
        try:
            means = np.array(rows, dtype=np.float64)
        except OverflowError:  # an int too large for a float, out of range like nan
            means = np.array([[m if 0 <= m <= 1 else math.nan for m in row] for row in rows])
        outside = ~((0.0 <= means) & (means <= 1.0))  # nan too
        top = means == means.max(axis=1, keepdims=True)
        faulty = outside.any(axis=1) | (top.sum(axis=1) > 1)
        if faulty.any():  # the lowest model, then its lowest arm
            k = int(faulty.argmax())
            if outside[k].any():
                i = int(outside[k].argmax())
                raise ValueError(f"model {k}, arm {i}: mean {rows[k][i]} outside [0, 1]")
            i, j = np.flatnonzero(top[k])[:2].tolist()
            raise ValueError(f"model {k}, arms {i} and {j}: tied optimal means; "
                             "a model needs a unique maximum")
        if not (0 <= self.true_index < len(means)):
            raise ValueError(f"true_index {self.true_index} out of range for {len(means)} models")
        optimal = means.argmax(axis=1)
        means.flags.writeable = optimal.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "optimal_arms", optimal)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Structure) and np.array_equal(self.means, other.means)
                and (self.true_index, self.reward, self.provenance)
                == (other.true_index, other.reward, other.provenance))

    def __reduce__(self):
        # pickles as its fields; loading rebuilds the arrays, read-only
        return Structure, (self.means, self.true_index, self.reward, self.provenance)

    @property
    def arm_count(self) -> int:
        return self.means.shape[1]

    @property
    def model_count(self) -> int:
        return len(self.means)

    @property
    def optimal_arm(self) -> int:
        return int(self.optimal_arms[self.true_index])


def suboptimality_gap(means, arm: int) -> float:
    """Gap of ``arm`` in the mean vector ``means``: its best mean minus the arm's."""
    if not 0 <= arm < len(means):
        raise ValueError(f"arm index out of range: {arm} (model has {len(means)} arms)")
    return float(max(means) - means[arm])


def true_gaps(structure: Structure) -> tuple[float, ...]:
    """Sub-optimality gaps of every arm under the true model."""
    true = structure.means[structure.true_index]
    return tuple((true.max() - true).tolist())


def model_gap(a, b, arm: int) -> float:
    """Separation of two mean vectors on one arm: absolute mean difference."""
    if len(a) != len(b):
        raise ValueError(f"arm-count mismatch: {len(a)} vs {len(b)}")
    if not 0 <= arm < len(a):
        raise ValueError(f"arm index out of range: {arm} (models have {len(a)} arms)")
    return float(abs(a[arm] - b[arm]))


def separations(structure: Structure) -> np.ndarray:
    """Per-arm separations ``|mu_kj - mu*_j|`` of the models from the true one (M x K)."""
    return np.abs(structure.means - structure.means[structure.true_index])


def optimistic_mask(structure: Structure) -> np.ndarray:
    """Models whose best mean beats the true best mean, as a boolean array."""
    means, arms = structure.means, structure.optimal_arms
    return means[np.arange(len(arms)), arms] > means[structure.true_index, structure.optimal_arm]


def worst_separations(structure: Structure, extra=(), sep=None) -> np.ndarray:
    """Per model, its largest separation from the true model over its
    optimal arm i and the arms of ``extra``, or of ``extra[i]`` when it is a
    dict.  ``sep`` stands in for ``separations(structure)`` when given."""
    sep = separations(structure) if sep is None else sep
    arms = structure.optimal_arms
    if isinstance(extra, dict):
        arm_sets = np.zeros((structure.arm_count,) * 2, dtype=bool)
        counts = list(map(len, extra.values()))
        arm_sets[np.fromiter(extra, int, len(extra)).repeat(counts),
                 np.fromiter(itertools.chain.from_iterable(extra.values()), int)] = True
        where = arm_sets[arms]
    else:
        where = np.zeros(structure.arm_count, dtype=bool)
        where[list(extra)] = True
    # separations are >= +0.0, so zeroing the arms outside `where` keeps the max's bits
    worst = np.where(where, sep, 0.0).max(axis=1)
    return np.maximum(worst, sep[np.arange(len(arms)), arms])


def closest_separations(structure: Structure, values: np.ndarray, models=None) -> list[float]:
    """Per arm i, the least of ``values`` over the models favouring i, only
    those in the boolean mask ``models`` when given; ``inf`` for none.  Of
    :func:`worst_separations` this is ``psi`` of each arm, unsquared."""
    arms = structure.optimal_arms
    if models is not None:
        arms, values = arms[models], values[models]
    closest = np.full(structure.arm_count, math.inf)
    np.minimum.at(closest, arms, values)
    return closest.tolist()


def _checked(indices, count: int, kind: str) -> list[int]:
    out = sorted(set(indices))
    if out and not (0 <= out[0] and out[-1] < count):
        bad = next(i for i in out if not 0 <= i < count)
        raise ValueError(f"{kind} index {bad} out of range for {count} {kind}s")
    return out


def optimal_arm_set(structure: Structure, subset=None) -> frozenset[int]:
    """Arms that are optimal in at least one model of ``subset``.

    ``subset`` holds model indices and defaults to the whole structure.
    An explicitly empty subset is an error: the set of plausible arms is
    undefined without at least one model.
    """
    if subset is None:
        return frozenset(structure.optimal_arms.tolist())
    models = _checked(subset, structure.model_count, "model")
    if not models:
        raise ValueError("optimal_arm_set needs a non-empty model subset")
    return frozenset(structure.optimal_arms[models].tolist())


def models_with_optimal_arm(structure: Structure, arm: int) -> frozenset[int]:
    """Indices of the models whose optimal arm is ``arm``."""
    _checked((arm,), structure.arm_count, "arm")
    return frozenset(np.flatnonzero(structure.optimal_arms == arm).tolist())


def optimistic_models(structure: Structure, arm: int) -> frozenset[int]:
    """Models with optimal arm ``arm`` whose best mean beats the true best mean."""
    _checked((arm,), structure.arm_count, "arm")
    mask = (structure.optimal_arms == arm) & optimistic_mask(structure)
    return frozenset(np.flatnonzero(mask).tolist())


def psi(structure: Structure, subset, arms) -> tuple[float, int | None]:
    """Smallest squared worst-arm separation from the true model.

    For each model in ``subset`` take the largest squared per-arm gap to the
    true model over ``arms``, then minimise over the subset.  Returns the
    value and the minimising model index (lowest index on ties).  An empty
    subset yields ``(inf, None)``; an empty arm set is an error because the
    inner maximum would be over nothing.
    """
    arm_list = _checked(arms, structure.arm_count, "arm")
    if not arm_list:
        raise ValueError("psi needs a non-empty arm set")
    model_list = _checked(subset, structure.model_count, "model")
    if not model_list:
        return math.inf, None
    means = structure.means
    worst = np.abs(means[np.ix_(model_list, arm_list)]
                   - means[structure.true_index, arm_list]).max(axis=1)
    # fl(x**2) is monotone, so the square of the worst gap is the worst
    # squared gap; squares can tie where gaps do not, and the first one wins
    squares = [w ** 2 for w in worst.tolist()]
    best = min(squares)
    return best, model_list[squares.index(best)]


def gamma_star(structure: Structure) -> float:
    """Smallest optimal-arm separation between the true model and any model
    that disagrees with it about the optimal arm.  ``inf`` when every model
    agrees.  Positive iff identifying the optimal arm is possible from pulls
    of the optimal arm alone.
    """
    i_star = structure.optimal_arm
    means = structure.means
    column = means[structure.optimal_arms != i_star, i_star]
    return min(np.abs(column - means[structure.true_index, i_star]).tolist(), default=math.inf)


def delta_floor(structure: Structure) -> float:
    """Smallest sub-optimality gap of the true optimal arm across the models
    that disagree about the optimal arm.  ``inf`` when every model agrees.
    """
    i_star = structure.optimal_arm
    rivals = structure.means[structure.optimal_arms != i_star]
    return min((rivals.max(axis=1) - rivals[:, i_star]).tolist(), default=math.inf)


@dataclass(frozen=True)
class StructureClass:
    """Classification of a structure against the three special families.

    ``in_worst_case``: pulling a sub-optimal arm itself is as informative as
    any optimistic model for that arm allows (per-arm separation equality).

    ``in_optimality``: the phased elimination sets achieve the same
    separation on optimistic models as on all models favouring the arm;
    ``None`` when no elimination sequences were supplied.

    ``in_constant_regret``: every model that disagrees about the optimal arm
    differs from the true model by exactly the minimal separation on the
    optimal arm and is indistinguishable elsewhere except on its own
    optimal arm.
    """

    in_worst_case: bool
    in_optimality: bool | None
    in_constant_regret: bool


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCE


def classify(structure: Structure, sequences=None) -> StructureClass:
    """Evaluate the three structure-family predicates.

    ``sequences`` is a :class:`structbandit.theory.TheorySequences` for this
    structure; it is required only for the optimality predicate, which needs
    the per-arm elimination sets.
    """
    i_star = structure.optimal_arm
    sep = separations(structure)
    rows, arms = np.arange(structure.model_count), structure.optimal_arms
    rivals = arms != i_star
    optimistic = rivals & optimistic_mask(structure)

    def same(values, lhs, rhs) -> bool:
        # psi of each arm over the models in lhs and in rhs agree, as squares
        pairs = zip(closest_separations(structure, values, lhs),
                    closest_separations(structure, values, rhs))
        return all(x == y or _close(x ** 2, y ** 2) for x, y in pairs)

    # optimistic models that the arms but their own cannot see at all
    hidden = sep[optimistic]
    hidden[np.arange(len(hidden)), arms[optimistic]] = 0.0
    blind = optimistic.copy()
    blind[optimistic] = hidden.max(axis=1, initial=0.0) <= TOLERANCE
    in_wc = same(sep[rows, arms], optimistic, blind)

    in_opt: bool | None = None
    if sequences is not None:
        worst = worst_separations(structure, sequences.informative_arms, sep)
        in_opt = same(worst, optimistic, rivals)

    # every rival at gamma_star on the optimal arm and blind but on its own
    column = sep[rivals, i_star]
    hidden = sep[rivals]
    hidden[np.arange(len(hidden)), arms[rivals]] = hidden[:, i_star] = 0.0
    in_cr = bool(np.all(np.abs(column - min(column.tolist(), default=math.inf)) <= TOLERANCE)
                 and np.all(hidden.max(axis=1, initial=0.0) <= TOLERANCE))

    return StructureClass(in_worst_case=in_wc, in_optimality=in_opt, in_constant_regret=in_cr)
