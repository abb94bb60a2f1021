"""Exact evaluators for the deterministic elimination sequences and the
regret guarantees of the phased and optimistic agents.

Everything here is pure arithmetic on a structure: no simulation, no
randomness.  Bound evaluators return a :class:`BoundReport` with the
per-arm breakdown so callers can see where a guarantee comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gaps import (
    Structure,
    classify,
    closest_separations,
    delta_floor,
    gamma_star,
    optimal_arm_set,
    optimistic_mask,
    separations,
    true_gaps,
    worst_separations,
)


def k_beta(beta: float, n: int) -> float | None:
    """Slack constant of the elimination sequences.

    Returns ``None`` for ``beta <= 1`` where the expression divides by
    zero (the sequences are undefined there).
    """
    if n < 2:
        raise ValueError(f"k_beta needs n >= 2, got {n}")
    if beta <= 1.0:
        return None
    return math.sqrt((beta + 1.0) ** 2 + 1.0 / math.log(n)) / (beta - 1.0)


@dataclass(frozen=True)
class TheorySequences:
    """Deterministic phase-by-phase elimination schedule of a structure.

    ``active[h]`` is the arm set the phased agent is guaranteed to be
    playing in phase ``h`` (under the usual concentration event),
    ``removed[h]`` the arms it discards at the end of phase ``h``, and
    ``surely_active[h]`` the arms whose removal threshold provably has not
    been reached yet.  ``informative_arms[i]`` is the arm set whose pulls
    suffice to discard every model favouring arm ``i``.
    """

    alpha: float
    beta: float
    n: int
    k_beta: float
    active: tuple[frozenset[int], ...]
    removed: tuple[frozenset[int], ...]
    surely_active: tuple[frozenset[int], ...]
    last_active_phase: dict[int, int]
    informative_arms: dict[int, frozenset[int]]
    unresolved: frozenset[int]
    alpha_beta_mismatch: bool


def deterministic_sequences(
    structure: Structure, alpha: float, beta: float, n: int
) -> TheorySequences:
    """Compute the elimination schedule for given exploration parameters.

    Phases are evaluated in increasing order.  Arms still active at phase
    ``h`` have not left yet, so the staleness discount applied to their
    separation is 1; arms already removed are discounted by how long ago
    they stopped being pulled.  Arms that survive past phase
    ``ceil(log2(n))`` cannot be resolved at this horizon and are reported
    in ``unresolved`` with the cap as their last phase.
    """
    if not 1.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 1, got {beta}; k_beta diverges at beta = 1")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    try:
        kb = k_beta(beta, n)
    except OverflowError:
        raise ValueError(f"beta = {beta} is too large: (beta + 1)^2 overflows") from None
    i_star = structure.optimal_arm
    a_star = sorted(optimal_arm_set(structure))
    sep = separations(structure)
    cap = math.ceil(math.log2(n))

    # closest[i]: worst gap of the closest model favouring i (each favours an arm
    # of a_star); unsquared, unlike psi, as t <= s and t * t <= fl(s * s) can disagree
    active: list[frozenset[int]] = [frozenset(a_star)]
    removed: list[frozenset[int]] = []
    surely: list[frozenset[int]] = []
    last: dict[int, int] = {}

    for h in range(cap + 1):
        arms_h = active[h]
        if h == 0:
            under = frozenset(a_star)
        else:
            # a removed arm's gap is halved for each phase since its last one
            stale = sep / [2.0 ** max(h - last[j] - 1, 0) if j in last else 1.0
                           for j in range(structure.arm_count)]
            closest = closest_separations(structure, worst_separations(structure, a_star, stale))
            under = frozenset(i for i in arms_h if 2.0 ** (-(h - 1)) > kb * closest[i])
        surely.append(under)

        closest = closest_separations(structure, worst_separations(structure, under, sep))
        gone = frozenset(i for i in arms_h if 2.0 ** (-h) <= closest[i])
        removed.append(gone)
        for i in gone:
            last[i] = h
        nxt = frozenset(arms_h - gone)
        active.append(nxt)
        if nxt <= {i_star}:
            break

    unresolved = frozenset(active[-1] - {i_star})
    last.update(dict.fromkeys(unresolved, len(removed) - 1))

    informative = {i: frozenset(surely[last[i]] | {i})
                   for i in a_star if i != i_star and i in last}

    return TheorySequences(
        alpha=alpha,
        beta=beta,
        n=n,
        k_beta=kb,
        active=tuple(active),
        removed=tuple(removed),
        surely_active=tuple(surely),
        last_active_phase=last,
        informative_arms=informative,
        unresolved=unresolved,
        alpha_beta_mismatch=(alpha != beta * beta),
    )


@dataclass(frozen=True)
class BoundTerm:
    arm: int
    gap: float
    separation: float
    value: float
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    """A regret guarantee broken into per-arm terms plus an additive constant.

    ``value`` always equals the sum of the term values plus ``constant``
    (infinities propagate).  ``flags`` carries validity information such as
    violated premises; a flagged report still evaluates the formula.
    """

    name: str
    value: float
    terms: tuple[BoundTerm, ...]
    constant: float
    params: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "constant": self.constant,
            "params": dict(self.params),
            "flags": dict(self.flags),
            # each term's fields, in their order
            "terms": [dict(vars(t)) for t in self.terms],
        }


def _report(name: str, terms: list[BoundTerm], constant: float, params: dict,
            flags: dict) -> BoundReport:
    value = constant
    for t in terms:
        value += t.value
    return BoundReport(name=name, value=value, terms=tuple(terms),
                       constant=constant, params=params, flags=flags)


_UNBOUNDED = "zero separation on the informative arms; term unbounded"


def _separation_terms(structure: Structure, coeff: float, log_factor: float,
                      extra, flags: dict, models=None,
                      zero_note: str = _UNBOUNDED) -> list[BoundTerm]:
    """One term coeff * gap * log_factor / separation per potentially-optimal
    sub-optimal arm.

    Arm ``i``'s separation is ``psi`` over the models favouring it, only
    those in the boolean mask ``models`` when given, on ``i`` and the arms
    of ``extra`` (see :func:`worst_separations`).  No such model means
    the agent never pulls the arm (term 0); a zero separation makes the term
    infinite and sets ``flags["unbounded_term"]``.
    """
    i_star = structure.optimal_arm
    gaps = true_gaps(structure)
    closest = closest_separations(structure, worst_separations(structure, extra), models)
    terms = []
    for i in sorted(optimal_arm_set(structure)):
        if i == i_star:
            continue
        if math.isinf(closest[i]):
            terms.append(BoundTerm(arm=i, gap=gaps[i], separation=math.inf, value=0.0,
                                   note="never pulled under optimism"))
            continue
        separation = closest[i] ** 2
        if separation == 0.0:
            value = math.inf
            note = zero_note
            flags["unbounded_term"] = True
        else:
            value = coeff * gaps[i] * log_factor / separation
            note = ""
        terms.append(BoundTerm(arm=i, gap=gaps[i], separation=separation,
                               value=value, note=note))
    return terms


def sae_bound(structure: Structure, sequences: TheorySequences) -> BoundReport:
    """Phased-elimination regret guarantee at the sequences' horizon ``n``.

    Needs the elimination schedule because each arm's term is measured on
    the arms still informative when it gets discarded.  Stated for
    ``alpha = beta**2`` and ``n >= 64``; an alpha mismatch is flagged, a
    too-small horizon is an error.
    """
    n = sequences.n
    if n < 64:
        raise ValueError(f"the guarantee requires n >= 64, got {n}")
    beta = sequences.beta
    c_beta = 4.0 * (1.0 + beta * beta)

    flags: dict = {}
    if sequences.alpha_beta_mismatch:
        flags["alpha_beta_mismatch"] = True
    if sequences.unresolved:
        flags["unresolved_arms"] = sorted(sequences.unresolved)
    terms = _separation_terms(structure, c_beta, math.log(n), sequences.informative_arms,
                              flags)

    constant = 2.0 * len(optimal_arm_set(structure))
    return _report("phased_elimination", terms, constant,
                   {"alpha": sequences.alpha, "beta": beta, "n": n, "c_beta": c_beta}, flags)


def asae_bound(structure: Structure, n: int) -> BoundReport:
    """Anytime phased-elimination guarantee at horizon ``n``.

    Fixed constants; each arm is measured on the pair (itself, optimal arm)
    so no schedule is needed.  Stated for doubling periods with alpha = 2,
    beta = 1.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    flags: dict = {}
    terms = _separation_terms(structure, 192.0, math.log(n), (structure.optimal_arm,), flags)

    constant = 6.0 * len(optimal_arm_set(structure))
    return _report("anytime_phased_elimination", terms, constant, {"n": n}, flags)


def asae_constant_bound(structure: Structure) -> BoundReport:
    """Horizon-independent guarantee, available when every model that
    disagrees about the optimal arm is separated on the optimal arm itself.
    """
    g_star = gamma_star(structure)
    if g_star == 0.0:
        raise ValueError(
            "constant-regret guarantee needs a positive separation on the optimal arm "
            "(some model disagrees about the optimal arm yet matches its mean exactly)"
        )
    a_star = optimal_arm_set(structure)

    if math.isinf(g_star):
        t_bar = 2.0 * len(a_star)
    else:
        t_bar = 20.0 * len(a_star) * math.log(2.0) / (g_star * g_star) + 2.0 * len(a_star)

    flags: dict = {}
    log_t_bar = math.log(t_bar) if t_bar > 0 else 0.0
    terms = _separation_terms(structure, 480.0, log_t_bar, (structure.optimal_arm,), flags)

    constant = 9.0 * len(a_star)
    return _report("anytime_constant_regret", terms, constant,
                   {"gamma_star": g_star, "t_bar": t_bar}, flags)


# The leading constant c of the optimistic bounds (additive constant 0): width
# sqrt(2 log t / T) times the two-sided factor 4 (Auer, Cesa-Bianchi & Fischer
# 2002 for the index policy; UCB-S, Lattimore & Munos 2014)
_C = 8.0


def sucb_bound(structure: Structure, n: int) -> BoundReport:
    """Optimistic-agent guarantee with the leading constant surfaced.

    Each potentially-optimal arm pays ``8 * gap * log(n)`` divided by its
    separation measured on the arm itself over its optimistic models.  Arms
    with no optimistic models contribute nothing: optimism never selects
    them.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    flags: dict = {}
    terms = _separation_terms(
        structure, _C, math.log(n), (), flags, optimistic_mask(structure),
        zero_note="optimistic model indistinguishable on the arm itself")

    return _report("optimistic_confidence_set", terms, 0.0,
                   {"n": n, "c": _C, "c_prime": 0.0}, flags)


def ucb_reference_bound(structure: Structure, n: int) -> BoundReport:
    """Structure-blind index-policy reference: ``8 log n / gap`` per arm.

    Sums over every arm with a positive gap, not just the potentially
    optimal ones, since a blind policy explores them all.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    gaps = true_gaps(structure)
    log_n = math.log(n)
    terms = []
    for i, gap in enumerate(gaps):
        if gap > 0.0:
            terms.append(BoundTerm(arm=i, gap=gap, separation=gap * gap,
                                   value=_C * log_n / gap))
    return _report("index_policy_reference", terms, 0.0,
                   {"n": n, "c": _C, "c_prime": 0.0}, {})


def omega(x: float) -> int:
    """Smallest natural number y such that z >= x * log(z) for every z >= y.

    For x <= e the inequality holds everywhere, so y = 1.  Beyond that the
    answer is the ceiling of the larger root of z = x log z, found by
    bisection and then verified against the neighbouring integers.
    """
    if not x > 0 or math.isnan(x):
        raise ValueError(f"omega needs x > 0, got {x}")
    if x <= math.e:
        return 1

    def f(z: float) -> float:
        return z - x * math.log(z)

    lo = x
    hi = 2.0 * x * math.log(x)
    while f(hi) < 0.0:  # defensive; the bracket is valid for all x > e
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    y = math.ceil(hi - 1e-12)
    while y - 1 >= x and f(float(y - 1)) >= 0.0:
        y -= 1
    while f(float(y)) < 0.0:
        y += 1
    return max(y, 1)


def lower_bound_cr(structure: Structure, n: int | None = None) -> BoundReport:
    """Regret floor for structures in the constant-regret family.

    It is stated against the optimistic agent's concentration constant 8,
    as in :func:`sucb_bound`.  The report carries two validity flags: the
    horizon must exceed ``1 / gamma_star**2`` and ``gamma_star`` must be
    small against the aggregate squared gaps.  When the logarithmic factor
    is not positive the floor degenerates to 0 and is flagged vacuous;
    otherwise a sub-optimal arm of zero separation is refused.
    """
    record = classify(structure)
    if not record.in_constant_regret:
        raise ValueError("structure is not in the constant-regret family")
    g_star = gamma_star(structure)
    if math.isinf(g_star):
        raise ValueError("no model disagrees about the optimal arm; the floor is undefined")
    if not 0.0 < g_star < 1.0:
        raise ValueError(f"the floor needs 0 < gamma_star < 1, got {g_star}")

    i_star = structure.optimal_arm
    a_star = sorted(optimal_arm_set(structure))
    gaps = true_gaps(structure)
    delta = delta_floor(structure)

    d = sum(1.0 / (gaps[i] * gaps[i]) for i in range(structure.arm_count) if i != i_star)
    omega_value = omega(2.0 * _C * d)
    gamma_ok = g_star <= math.sqrt(1.0 / omega_value)
    horizon_ok = None if n is None else (n >= 1.0 / (g_star * g_star))

    log_arg = (delta * delta) / (
        4.0 * math.e ** 2 * _C * g_star * g_star * math.log(1.0 / (g_star * g_star))
    )
    vacuous = log_arg <= 1.0
    log_factor = 0.0 if vacuous else math.log(log_arg)

    closest = closest_separations(structure, worst_separations(structure))
    terms = []
    for i in a_star:
        if i == i_star:
            continue
        separation = closest[i] ** 2
        if not vacuous and separation == 0.0:
            raise ValueError(f"the models favouring arm {i} have squared separation 0 on "
                             "it; the floor divides by it")
        value = 0.0 if vacuous else gaps[i] / (2.0 * separation) * log_factor
        terms.append(BoundTerm(arm=i, gap=gaps[i], separation=separation, value=value))

    flags = {
        "vacuous": vacuous,
        "gamma_star_small_enough": gamma_ok,
    }
    if horizon_ok is not None:
        flags["horizon_large_enough"] = horizon_ok

    return _report("constant_regret_floor", terms, 0.0,
                   {"c": _C, "n": n, "gamma_star": g_star, "delta_floor": delta,
                    "aggregate_inverse_gaps": d, "omega": omega_value, "log_argument": log_arg},
                   flags)


def confidence_failure_bound(n: int, alpha: float, beta: float, a_star_count: int) -> float:
    """Probability bound on the true model ever leaving the phased agent's
    confidence set within a run of horizon ``n``.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta < 1:
        raise ValueError(f"beta must be at least 1, got {beta}")
    if a_star_count < 0:
        raise ValueError(f"a_star_count must be non-negative, got {a_star_count}")
    return a_star_count * n ** (-2.0 * alpha / (beta * beta)) * (math.log2(n) + 2.0) ** 2
