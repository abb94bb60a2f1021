"""Model structures and the gap quantities used by the agents and the bounds.

A structure is a finite collection of candidate mean vectors ("models"), one
of which is the true model.  Everything downstream works off two kinds of
gaps: the sub-optimality gap of an arm within one model, and the per-arm
separation between two models.  The separation of a model subset measured on
an arm subset (``psi``) drives all the regret bounds in :mod:`theory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class BanditModel:
    """One candidate assignment of mean rewards, one per arm.

    Means live in [0, 1] and the largest mean must be unique so that every
    model has a well defined optimal arm, stored with its mean on creation.
    """

    means: tuple[float, ...]
    optimal_arm: int = field(init=False, compare=False, repr=False)
    optimal_mean: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.means) == 0:
            raise ValueError("a model needs at least one arm")
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        for i, m in enumerate(self.means):
            if not (0.0 <= m <= 1.0) or math.isnan(m):
                raise ValueError(f"mean of arm {i} is {m}, outside [0, 1]")
        best = max(self.means)
        if self.means.count(best) > 1:
            raise ValueError("tied optimal arms; model means must have a unique maximum")
        object.__setattr__(self, "optimal_arm", self.means.index(best))
        object.__setattr__(self, "optimal_mean", best)

    @property
    def arm_count(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class Structure:
    """A finite set of candidate models together with the true one.

    ``models[true_index]`` is the model the environment actually draws
    rewards from.  The agents receive the model list but never the true
    index.  ``reward`` and ``provenance`` travel with the structure so that
    a saved file is self describing.
    """

    models: tuple[BanditModel, ...]
    true_index: int
    reward: RewardSpec = RewardSpec()
    provenance: dict | None = field(default=None, compare=True)

    def __post_init__(self) -> None:
        if len(self.models) == 0:
            raise ValueError("structure needs at least one model")
        object.__setattr__(self, "models", tuple(self.models))
        arms = self.models[0].arm_count
        for k, model in enumerate(self.models):
            if model.arm_count != arms:
                raise ValueError(
                    f"model {k} has {model.arm_count} arms, expected {arms} like model 0"
                )
        if not (0 <= self.true_index < len(self.models)):
            raise ValueError(
                f"true_index {self.true_index} out of range for {len(self.models)} models"
            )

    @property
    def arm_count(self) -> int:
        return self.models[0].arm_count

    @property
    def model_count(self) -> int:
        return len(self.models)

    @property
    def true_model(self) -> BanditModel:
        return self.models[self.true_index]

    @property
    def optimal_arm(self) -> int:
        return self.true_model.optimal_arm


def suboptimality_gap(model: BanditModel, arm: int) -> float:
    """Gap of ``arm`` inside ``model``: best mean minus the arm's mean."""
    if not 0 <= arm < model.arm_count:
        raise ValueError(f"arm index out of range: {arm} (model has {model.arm_count} arms)")
    return model.optimal_mean - model.means[arm]


def true_gaps(structure: Structure) -> tuple[float, ...]:
    """Sub-optimality gaps of every arm under the true model."""
    true = structure.true_model
    return tuple(suboptimality_gap(true, i) for i in range(structure.arm_count))


def model_gap(a: BanditModel, b: BanditModel, arm: int) -> float:
    """Separation of two models on one arm: absolute mean difference."""
    if a.arm_count != b.arm_count:
        raise ValueError(f"arm-count mismatch: {a.arm_count} vs {b.arm_count}")
    if not 0 <= arm < a.arm_count:
        raise ValueError(f"arm index out of range: {arm} (models have {a.arm_count} arms)")
    return abs(a.means[arm] - b.means[arm])


def _worst_gap(model: BanditModel, true: BanditModel, arms, stale=None) -> float:
    """Largest per-arm separation of ``model`` from ``true`` over ``arms``
    (0 for no arms).  With ``stale``, the gap on arm ``j`` is first halved
    ``stale.get(j, 0)`` times.
    """
    a, b = model.means, true.means
    if stale is None:
        return max((abs(a[j] - b[j]) for j in arms), default=0.0)
    return max((abs(a[j] - b[j]) / 2.0 ** stale.get(j, 0) for j in arms), default=0.0)


def _check_model_subset(structure: Structure, subset) -> list[int]:
    out = sorted(set(subset))
    for k in out:
        if not (0 <= k < structure.model_count):
            raise ValueError(f"model index {k} out of range for {structure.model_count} models")
    return out


def _check_arm_subset(structure: Structure, arms) -> list[int]:
    out = sorted(set(arms))
    for i in out:
        if not (0 <= i < structure.arm_count):
            raise ValueError(f"arm index {i} out of range for {structure.arm_count} arms")
    return out


def optimal_arm_set(structure: Structure, subset=None) -> frozenset[int]:
    """Arms that are optimal in at least one model of ``subset``.

    ``subset`` holds model indices and defaults to the whole structure.
    An explicitly empty subset is an error: the set of plausible arms is
    undefined without at least one model.
    """
    if subset is None:
        models = range(structure.model_count)
    else:
        models = _check_model_subset(structure, subset)
        if not models:
            raise ValueError("optimal_arm_set needs a non-empty model subset")
    return frozenset(structure.models[k].optimal_arm for k in models)


def models_with_optimal_arm(structure: Structure, arm: int) -> frozenset[int]:
    """Indices of the models whose optimal arm is ``arm``."""
    _check_arm_subset(structure, (arm,))
    return frozenset(
        k for k, model in enumerate(structure.models) if model.optimal_arm == arm
    )


def optimistic_models(structure: Structure, arm: int) -> frozenset[int]:
    """Models with optimal arm ``arm`` whose best mean beats the true best mean."""
    best = structure.true_model.optimal_mean
    return frozenset(
        k for k in models_with_optimal_arm(structure, arm)
        if structure.models[k].optimal_mean > best
    )


def psi(structure: Structure, subset, arms) -> tuple[float, int | None]:
    """Smallest squared worst-arm separation from the true model.

    For each model in ``subset`` take the largest squared per-arm gap to the
    true model over ``arms``, then minimise over the subset.  Returns the
    value and the minimising model index (lowest index on ties).  An empty
    subset yields ``(inf, None)``; an empty arm set is an error because the
    inner maximum would be over nothing.
    """
    arm_list = _check_arm_subset(structure, arms)
    if not arm_list:
        raise ValueError("psi needs a non-empty arm set")
    model_list = _check_model_subset(structure, subset)
    true = structure.true_model
    best_value = math.inf
    best_model: int | None = None
    for k in model_list:
        # fl(x**2) is monotone: the square of the worst gap is the worst squared gap
        worst = _worst_gap(structure.models[k], true, arm_list) ** 2
        if worst < best_value:
            best_value = worst
            best_model = k
    return best_value, best_model


def _competitors(structure: Structure) -> list[BanditModel]:
    """Models that disagree with the true model about the optimal arm."""
    i_star = structure.optimal_arm
    return [model for model in structure.models if model.optimal_arm != i_star]


def gamma_star(structure: Structure) -> float:
    """Smallest optimal-arm separation between the true model and any model
    that disagrees with it about the optimal arm.  ``inf`` when every model
    agrees.  Positive iff identifying the optimal arm is possible from pulls
    of the optimal arm alone.
    """
    i_star = structure.optimal_arm
    true = structure.true_model
    return min((model_gap(model, true, i_star) for model in _competitors(structure)),
               default=math.inf)


def delta_floor(structure: Structure) -> float:
    """Smallest sub-optimality gap of the true optimal arm across the models
    that disagree about the optimal arm.  ``inf`` when every model agrees.
    """
    i_star = structure.optimal_arm
    return min((suboptimality_gap(model, i_star) for model in _competitors(structure)),
               default=math.inf)


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
    true = structure.true_model
    arms = range(structure.arm_count)

    in_wc = True
    for i in arms:
        if i == i_star:
            continue
        opt = optimistic_models(structure, i)
        # Optimistic models that the other arms cannot see at all.
        others = [j for j in arms if j != i]
        blind = frozenset(
            k for k in opt if _worst_gap(structure.models[k], true, others) <= TOLERANCE
        )
        full, _ = psi(structure, opt, (i,))
        restricted, _ = psi(structure, blind, (i,))
        if not _close(full, restricted):
            in_wc = False
            break

    in_opt: bool | None
    if sequences is None:
        in_opt = None
    else:
        in_opt = True
        for i in sorted(optimal_arm_set(structure)):
            if i == i_star:
                continue
            arm_set = sequences.informative_arms[i]
            lhs, _ = psi(structure, optimistic_models(structure, i), arm_set)
            rhs, _ = psi(structure, models_with_optimal_arm(structure, i), arm_set)
            if not _close(lhs, rhs):
                in_opt = False
                break

    g_star = gamma_star(structure)
    in_cr = all(
        _close(model_gap(model, true, i_star), g_star)
        and _worst_gap(model, true, set(arms) - {model.optimal_arm, i_star}) <= TOLERANCE
        for model in _competitors(structure)
    )

    return StructureClass(in_worst_case=in_wc, in_optimality=in_opt, in_constant_regret=in_cr)
