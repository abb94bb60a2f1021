"""Independent brute-force references for the gap and classifier quantities.

Everything here is written as plain double loops straight off the
definitions, reading only model means and the true index.  The package
implementations are tested against these for exact agreement.  The one
exception is SUCB's confidence set, kept as the dense per-step recompute
the agent once ran, so that the incremental agent can be held to its bits.
"""

import math

import numpy as np

TOL = 1e-12


def _means(structure):
    return structure.means.tolist()


def _argmax(row):
    best = 0
    for j in range(1, len(row)):
        if row[j] > row[best]:
            best = j
    return best


def oracle_optimal_arm_set(structure, subset=None):
    means = _means(structure)
    if subset is None:
        subset = range(len(means))
    return frozenset(_argmax(means[k]) for k in subset)


def oracle_psi(structure, subset, arms):
    means = _means(structure)
    true = means[structure.true_index]
    best_value = math.inf
    best_model = None
    for k in subset:
        worst = -math.inf
        for j in arms:
            gap = abs(means[k][j] - true[j])
            # ** 2 as the package squares: it rounds as pow() does, which
            # differs from gap * gap by one ulp for some gaps
            sq = gap ** 2
            if sq > worst:
                worst = sq
        if worst < best_value:
            best_value = worst
            best_model = k
    return best_value, best_model


def oracle_gamma_star(structure):
    means = _means(structure)
    true = means[structure.true_index]
    i_star = _argmax(true)
    best = math.inf
    for k, row in enumerate(means):
        if _argmax(row) == i_star:
            continue
        gap = abs(row[i_star] - true[i_star])
        if gap < best:
            best = gap
    return best


def oracle_delta_floor(structure):
    means = _means(structure)
    true = means[structure.true_index]
    i_star = _argmax(true)
    best = math.inf
    for k, row in enumerate(means):
        if _argmax(row) == i_star:
            continue
        gap = row[_argmax(row)] - row[i_star]
        if gap < best:
            best = gap
    return best


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL


def oracle_in_wc(structure):
    means = _means(structure)
    true = means[structure.true_index]
    i_star = _argmax(true)
    mu_star = true[i_star]
    arm_count = len(true)
    for i in range(arm_count):
        if i == i_star:
            continue
        optimistic = [k for k, row in enumerate(means)
                      if _argmax(row) == i and row[i] > mu_star]
        blind = [k for k in optimistic
                 if all(abs(means[k][j] - true[j]) <= TOL
                        for j in range(arm_count) if j != i)]
        full, _ = oracle_psi(structure, optimistic, (i,))
        restricted, _ = oracle_psi(structure, blind, (i,))
        if not _close(full, restricted):
            return False
    return True


def oracle_in_opt(structure, informative_arms):
    """Optimality predicate given per-arm elimination sets."""
    means = _means(structure)
    true = means[structure.true_index]
    i_star = _argmax(true)
    mu_star = true[i_star]
    for i in sorted(oracle_optimal_arm_set(structure)):
        if i == i_star:
            continue
        arm_set = sorted(informative_arms[i])
        favouring = [k for k, row in enumerate(means) if _argmax(row) == i]
        optimistic = [k for k in favouring if means[k][i] > mu_star]
        lhs, _ = oracle_psi(structure, optimistic, arm_set)
        rhs, _ = oracle_psi(structure, favouring, arm_set)
        if not _close(lhs, rhs):
            return False
    return True


def oracle_in_cr(structure):
    means = _means(structure)
    true = means[structure.true_index]
    i_star = _argmax(true)
    g_star = oracle_gamma_star(structure)
    for k, row in enumerate(means):
        own = _argmax(row)
        if own == i_star:
            continue
        if not _close(abs(row[i_star] - true[i_star]), g_star):
            return False
        for j in range(len(row)):
            if j in (own, i_star):
                continue
            if abs(row[j] - true[j]) > TOL:
                return False
    return True


def sucb_active_mask(structure, pulls, rewards, t, coeff):
    """SUCB's model confidence set at step t, rebuilt densely.

    Model k passes pulled arm i when (mu_ki - S_i/T_i)^2 <
    coeff*log(max(t,2))/T_i, in the float64 expressions and order SUCB
    uses; the set is the models passing every pulled arm.
    """
    means = np.array(_means(structure), dtype=np.float64)
    pull_arr = np.array(pulls, dtype=np.float64)
    pulled = pull_arr > 0.0
    if not pulled.any():
        return np.ones(len(means), dtype=bool)
    counts = pull_arr[pulled]
    emp = np.array(rewards, dtype=np.float64)[pulled] / counts
    rad2 = coeff * math.log(max(t, 2)) / counts
    diff = means[:, pulled] - emp
    return (diff * diff < rad2).all(axis=1)


def sucb_arm(structure, mask, pulls, rewards):
    """SUCB's pick for a confidence set: the most optimistic arm, lowest
    index on ties, or the best empirical mean among pulled arms when the
    set is empty."""
    if mask.any():
        means = np.array(_means(structure), dtype=np.float64)
        return int(np.argmax(means[mask].max(axis=0)))
    best, best_mean = -1, -math.inf
    for i, count in enumerate(pulls):
        if count and rewards[i] / count > best_mean:
            best, best_mean = i, rewards[i] / count
    return best


def oracle_sequences(structure, beta, n):
    """The elimination schedule as the per-model loops computed it before the
    means matrix: (active, removed, surely_active, last_active_phase,
    informative_arms, unresolved).  ``beta`` must be finite and > 1."""
    means = _means(structure)
    true = means[structure.true_index]
    i_star = _argmax(true)
    kb = math.sqrt((beta + 1.0) ** 2 + 1.0 / math.log(n)) / (beta - 1.0)
    a_star = sorted(oracle_optimal_arm_set(structure))
    favouring = {i: [k for k, row in enumerate(means) if _argmax(row) == i] for i in a_star}
    cap = math.ceil(math.log2(n))

    def separation(i, arms, stale=None):
        best = math.inf
        for k in favouring[i]:
            worst = 0.0
            for j in arms:
                gap = abs(means[k][j] - true[j])
                if stale is not None:
                    gap = gap / 2.0 ** stale.get(j, 0)
                if gap > worst:
                    worst = gap
            if worst < best:
                best = worst
        return best

    active = [frozenset(a_star)]
    removed, surely, last = [], [], {}
    for h in range(cap + 1):
        arms_h = active[h]
        if h == 0:
            under = frozenset(a_star)
        else:
            stale = {j: max(h - h_j - 1, 0) for j, h_j in last.items()}
            under = frozenset(i for i in arms_h
                              if 2.0 ** (-(h - 1)) > kb * separation(i, a_star, stale))
        surely.append(under)
        threshold = 2.0 ** (-h)
        gone = frozenset(i for i in arms_h if threshold <= separation(i, under | {i}))
        removed.append(gone)
        for i in gone:
            last[i] = h
        nxt = frozenset(arms_h - gone)
        active.append(nxt)
        if nxt <= {i_star}:
            break
    unresolved = frozenset(active[-1] - {i_star})
    for i in unresolved:
        last[i] = len(removed) - 1
    informative = {i: frozenset(surely[last[i]] | {i})
                   for i in a_star if i != i_star and i in last}
    return tuple(active), tuple(removed), tuple(surely), last, informative, unresolved


def oracle_filter_models(structure, base_models, pulls, rewards, alpha, log_nk):
    """The eliminators' model filter as a per-model loop: the models of
    ``base_models`` within sqrt(alpha*log_nk/T_i) of every pulled arm's
    empirical mean, strictly."""
    constraints = []
    for i, count in enumerate(pulls):
        if count > 0:
            constraints.append((i, rewards[i] / count, math.sqrt(alpha * log_nk / count)))
    rows = _means(structure)
    kept = []
    for k in base_models:
        means = rows[k]
        if all(abs(mean - means[i]) < radius for i, mean, radius in constraints):
            kept.append(k)
    return kept


def oracle_structure_error(rows, true_index):
    """The message of the first rule that the mean rows break, or None.

    The rules are the per-model ones that held before a structure was one
    means matrix: each model in order must have an arm, every mean in
    [0, 1] (compared exactly, so nan and an int past the floats fail) and
    a unique largest mean; then every model needs model 0's arm count, and
    ``true_index`` must name a model.
    """
    if not rows:
        return "structure needs at least one model"
    for k, row in enumerate(rows):
        if not row:
            return f"model {k}, no means; a model needs at least one arm"
        for i, mean in enumerate(row):
            if not 0.0 <= mean <= 1.0:
                return f"model {k}, arm {i}: mean {mean} outside [0, 1]"
        best = max(row)
        top = [i for i, mean in enumerate(row) if mean == best]
        if len(top) > 1:
            return (f"model {k}, arms {top[0]} and {top[1]}: tied optimal means; "
                    "a model needs a unique maximum")
    for k, row in enumerate(rows):
        if len(row) != len(rows[0]):
            return f"model {k} has {len(row)} arms, expected {len(rows[0])} like model 0"
    if not 0 <= true_index < len(rows):
        return f"true_index {true_index} out of range for {len(rows)} models"
    return None


def _oracle_nudge_ties(means):
    top = means.index(max(means))  # the lowest index on ties
    second = max(means[:top] + means[top + 1:], default=float("-inf"))
    if means[top] - second < 1e-9:
        means = list(means)
        means[top] = min(means[top] + 1e-6, 1.0)
        if means[top] - second < 1e-9:
            raise ValueError(
                "tied optimal arms could not be separated by nudging "
                f"(means {means[top]} and {second} at the clamp)"
            )
    return means


def oracle_figure_left(grid, informative):
    """figure_left's mean rows and true index off the builder's docstring:
    per region, a model at each midpoint f = (j + 0.5) / grid, where arm 0
    falls 0.85 -> 0.8, falls 0.8 -> 0.4, then stays at 0.4; arm 1 is 0.8,
    but 0.2 in the middle region when informative; arm 2 rises 0.6 -> 0.8,
    stays at 0.86, then falls 0.8 -> 0.6.  The true model is the first-region
    model nearest f = 1/2."""
    def line(start, end, f):
        return start + (end - start) * f

    rows = []
    for region in range(3):
        for j in range(grid):
            f = (j + 0.5) / grid
            if region == 0:
                means = [line(0.85, 0.8, f), 0.8, line(0.6, 0.8, f)]
            elif region == 1:
                means = [line(0.8, 0.4, f), 0.2 if informative else 0.8, 0.86]
            else:
                means = [0.4, 0.8, line(0.8, 0.6, f)]
            rows.append(_oracle_nudge_ties(means))
    distance = [abs((j + 0.5) / grid - 0.5) for j in range(grid)]
    return rows, distance.index(min(distance))


def oracle_generate_random(spec):
    """The random generator as it was written one model at a time, over
    lists of Python floats, with the same Philox draws in the same order."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    base = rng.random((spec.base_model_count, spec.arm_count))
    true_index = int(rng.integers(spec.base_model_count))

    rows = [_oracle_nudge_ties(list(map(float, row))) for row in base]
    true_means = rows[true_index]
    i_star = max(range(spec.arm_count), key=lambda i: (true_means[i], -i))
    best = true_means[i_star]

    clamped = []
    for h in range(spec.hard_model_count):
        means = list(true_means)
        raise_pool = [i for i in range(spec.arm_count) if i != i_star]
        raised = raise_pool[int(rng.integers(len(raise_pool)))]
        eps = float(rng.random())
        while eps < 1e-6:
            eps = float(rng.random())
        lifted = best + spec.optimistic_scale * eps
        if lifted > 1.0:
            lifted = 1.0
            clamped.append(spec.base_model_count + h)
        means[raised] = lifted
        shrink_pool = [i for i in range(spec.arm_count) if i not in (i_star, raised)]
        shrunk = shrink_pool[int(rng.integers(len(shrink_pool)))]
        means[shrunk] = spec.shrink_factor * means[shrunk]
        rows.append(_oracle_nudge_ties(means))
    return rows, true_index, clamped
