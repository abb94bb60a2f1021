"""Bandit agents and the simulation loop.

Four agents behind one select/observe interface:

* ``SaeAgent`` -- phased round-robin elimination: one never-ending
  elimination period of horizon n.
* ``AsaeAgent`` -- the same period rerun on the eta schedule of horizons,
  carrying the confidence set and the pull counts across periods.
* ``SucbAgent`` -- optimism baseline (UCB-S) that keeps the model confidence
  set as one contiguous run of models per arm, refitting only the arm pulled
  last, and pulls the optimal arm of the most optimistic active model.
* ``Ucb1Agent`` -- structure-blind index baseline.

``Environment`` draws rewards for the true model; ``simulate`` runs one agent
against one environment and records pseudo-regret at checkpoints.

``simulate`` advances by plays: each agent's ``_play(env, limit)`` takes 1
to `limit` steps, all from the current draw chunk, and returns the arms
pulled.  The base play is one select/pull/observe.  Between phase and
period boundaries no reward changes an eliminator's arm: it plays a round
robin fixed by its counts and phase target, or one settled arm (the lone
active arm, or the empty-set fallback), so its play is that whole block:
``Environment.take`` hands out the block's rewards from the chunk and the
agent folds them into its counts at once (a settled arm's Bernoulli
rewards only as their count of ones, ``Environment.hits``).  SUCB's arm
changes only with its confidence set, so after a select/observe step its
play goes on with that arm while a per-step check proves that a select
would change nothing.  ``simulate`` adds each play's gaps to the regret
left to right (``np.add.accumulate``), keeping the bits of the step-by-step
path.  The scalar ``select``/``observe`` path stays the public interface
and the tests' oracle.

UCB1's arm choice depends on every reward, so it has no blocks; instead
``simulate_ucb1`` steps the R runs of a batch together on R x K arrays,
with the bits of R ``simulate`` calls.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .gaps import RewardSpec, Structure, optimal_arm_set, true_gaps

# each algorithm and the AgentConfig fields it reads
READ_FIELDS = {"sae": ("alpha", "beta", "horizon"), "asae": ("alpha", "beta", "eta"),
               "sucb": ("alpha", "sigma2"), "ucb1": ("alpha",)}
ALGORITHMS = tuple(READ_FIELDS)

_DRAW_CHUNK = 8192
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class AgentConfig:
    """Shared agent parameters.

    alpha scales every confidence radius, beta the elimination margin, eta
    the period growth exponent (ASAE only).  horizon is required by SAE;
    SUCB and UCB1 are anytime and ignore it.  sigma2, when given, switches
    the SUCB radius to its sub-Gaussian form 2*alpha*sigma2*log(t)/T.
    READ_FIELDS names the fields each algorithm reads.
    """

    algorithm: str
    alpha: float = 2.0
    beta: float = 1.0
    eta: float = 1.0
    horizon: int | None = None
    sigma2: float | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        # chained comparisons fail for nan and inf, and for an int too large
        # for a float, since an int compares with the largest float exactly
        if not 0.0 < self.alpha <= _FLOAT_MAX:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 1.0 <= self.beta <= _FLOAT_MAX:
            raise ValueError(f"beta must be finite and >= 1, got {self.beta}")
        if not 0.0 < self.eta <= _FLOAT_MAX:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        least = 2 if self.algorithm == "sae" else 1
        if self.horizon is not None and self.horizon < least:
            raise ValueError(f"{self.algorithm} horizon must be >= {least}, got {self.horizon}")
        if self.sigma2 is not None and not 0.0 < self.sigma2 <= _FLOAT_MAX:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")


@dataclass(frozen=True)
class AgentState:
    """Read-only diagnostic snapshot of an agent; the eliminators' history
    holds one per opened phase.

    phase, removal_threshold, period, period_horizon and phase_start_counts
    carry information for the eliminators: SAE reports period 0 with its
    horizon n and zero counts, ASAE its current period.  SUCB and UCB1
    report phase 0, threshold 1, period 0 / horizon None / zero counts and
    every arm active.
    """

    pull_counts: tuple[int, ...]
    reward_sums: tuple[float, ...]
    active_models: tuple[int, ...]
    active_arms: tuple[int, ...]
    phase: int
    removal_threshold: float
    period: int
    period_horizon: int | None
    phase_start_counts: tuple[int, ...]


class _Agent:
    """Alternation bookkeeping shared by every agent."""

    def __init__(self, arm_count: int, config: AgentConfig, reward: RewardSpec | None) -> None:
        self.arm_count = arm_count
        self.config = config
        self._reward = reward
        self._pulls = [0] * arm_count
        self._rewards = [0.0] * arm_count
        self._step = 0
        self._pending: int | None = None
        # the phase state of an agent without phases: every arm active in
        # phase 0 of one open-ended period
        self._active_arms = list(range(arm_count))
        self._phase, self._threshold = 0, 1.0
        self._period, self._period_horizon = 0, None
        self._period_start = [0] * arm_count

    def _play(self, env: Environment, limit: int) -> tuple[int | np.ndarray, int]:
        """(arms, steps): take 1 to `limit` steps, all from env's current
        draw chunk, which holds at least `limit` unread draws.  Here one
        select/pull/observe; agents that can prove later choices take more."""
        arm = self.select()
        self.observe(arm, env.pull(arm))
        return arm, 1

    def select(self) -> int:
        if self._pending is not None:
            raise RuntimeError("select called again before observe")
        arm = self._choose()
        self._pending = arm
        return arm

    def observe(self, arm: int, reward: float) -> None:
        if self._pending is None:
            raise RuntimeError("observe called before select")
        if arm != self._pending:
            raise ValueError(f"observe got arm {arm}, last selected was {self._pending}")
        self._check_reward(reward)
        self._pending = None
        self._pulls[arm] += 1
        self._rewards[arm] += reward
        self._step += 1
        self._after_observe(arm)

    def _check_reward(self, reward: float) -> None:
        if self._reward is not None and self._reward.kind == "bernoulli":
            if reward != 0.0 and reward != 1.0:
                raise ValueError(f"bernoulli reward must be 0 or 1, got {reward}")
        elif not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")

    def _choose(self) -> int:
        raise NotImplementedError

    def _after_observe(self, arm: int) -> None:
        pass

    def snapshot(self) -> AgentState:
        """The agent's state now; an eliminator's history holds one per phase."""
        return AgentState(
            pull_counts=tuple(self._pulls),
            reward_sums=tuple(self._rewards),
            active_models=self._active_model_ids(),
            active_arms=tuple(self._active_arms),
            phase=self._phase,
            removal_threshold=self._threshold,
            period=self._period,
            period_horizon=self._period_horizon,
            phase_start_counts=tuple(self._period_start),
        )

    def _active_model_ids(self) -> tuple[int, ...]:
        return ()


def _fold(total: float, values: np.ndarray) -> float:
    """total + values[0] + values[1] + ..., added strictly left to right."""
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


def _empirical_best(pulls: list[int], rewards: list[float]) -> int:
    """Best empirical-mean arm among pulled ones, lowest index on ties."""
    best, best_mean = -1, -math.inf
    for i, count in enumerate(pulls):
        if count == 0:
            continue
        mean = rewards[i] / count
        if mean > best_mean:
            best, best_mean = i, mean
    if best < 0:
        raise RuntimeError("no arm pulled yet")
    return best


class _EliminationAgent(_Agent):
    """Phased round-robin elimination over periods of fixed horizon n_k.

    Each period restarts the removal threshold at 1.  A phase pulls the
    active arms round-robin until each total count reaches
    ceil(alpha*log(n_k)*(1+1/beta)^2 / threshold^2), then refilters the
    period's starting model set with radii sqrt(alpha*log(n_k)/T_i), keeps
    the arms optimal for some surviving model and halves the threshold.  A
    single active arm is played on; an empty model set falls back to the
    empirical-best arm.  Counts never reset, so a phase already paid for
    passes at once.  The next period starts from the carried model set,
    with its active arms recomputed (arms re-enter only there).
    """

    # SAE's single period never closes; ASAE opens the next one at n_k
    _periods_close = True

    def __init__(self, structure: Structure, config: AgentConfig, horizon: int) -> None:
        super().__init__(structure.arm_count, config, structure.reward)
        self.structure = structure
        self._margin = (1.0 + 1.0 / config.beta) ** 2
        self._all_models = tuple(range(structure.model_count))
        self._history: list[AgentState] = []
        # _model_set's memo: ASAE's carried set recurs at each period start
        self._model_sets: dict[tuple[int, ...], tuple] = {}
        self._start_period(horizon, self._all_models)

    @property
    def history(self) -> tuple[AgentState, ...]:
        """One snapshot per opened phase, taken as it opens, in order."""
        return tuple(self._history)

    @property
    def fallback_arm(self) -> int | None:
        return self._fallback

    def _start_period(self, horizon: int, models) -> None:
        self._period_horizon = horizon
        self._log_nk = math.log(horizon)
        # the period's base models and their rows of the means matrix
        self._base_models, self._base_means, arms = self._model_set(models)
        self._active_models = list(models)
        self._active_arms = sorted(arms)
        self._period_start = list(self._pulls)
        self._fallback: int | None = None
        self._open_phase(0)

    def _open_phase(self, phase: int) -> None:
        """Open `phase` on the active sets already in place: threshold
        2^-phase, its pull target, the round robin from the first active
        arm, and a snapshot appended to history."""
        self._phase = phase
        self._threshold = 2.0 ** -phase
        self._target = math.ceil(self.config.alpha * self._log_nk * self._margin
                                 / (self._threshold * self._threshold))
        self._rr_pos = 0
        self._history.append(self.snapshot())

    def _choose(self) -> int:
        if self._fallback is not None:
            return self._fallback
        arms = self._active_arms
        m = len(arms)
        if m == 1:
            return arms[0]
        for off in range(m):
            arm = arms[(self._rr_pos + off) % m]
            if self._pulls[arm] < self._target:
                self._rr_pos = (self._rr_pos + off + 1) % m
                return arm
        raise RuntimeError("all active arms met the phase target; boundary was not processed")

    def _play(self, env: Environment, limit: int) -> tuple[int | np.ndarray, int]:
        """Take the steps up to the next point where a reward can change the
        arm choice, at most `limit`, as one block.

        A settled agent plays one arm, the fallback or the lone active arm,
        whatever the rewards.  Otherwise arms is the array of the round
        robin to the phase end, which no reward changes either: pass j
        visits, in cyclic order from _rr_pos, every active arm still more
        than j pulls below the target.  Both are capped at the period end
        (SAE's never comes).
        """
        if self._pending is not None:
            raise RuntimeError("select called again before observe")
        if self._periods_close:
            limit = min(limit, self._period_horizon - self._step)
        arms, block = self._active_arms, self._fallback
        if block is None and len(arms) == 1:
            block = arms[0]
        if block is None:
            order = arms[self._rr_pos:] + arms[:self._rr_pos]
            need = [self._target - self._pulls[a] for a in order]
            passes, done, n = [], 0, 0
            while n < limit:
                live = [a for a, d in zip(order, need) if d > done]
                if not live:
                    break
                # the passes until the next live arm meets its target repeat `live`
                reps = min(min(d for d in need if d > done) - done, -((n - limit) // len(live)))
                passes.append(np.tile(live, reps))
                done += reps
                n += reps * len(live)
            block = np.concatenate(passes)[:limit]
            limit = len(block)
        if isinstance(block, np.ndarray):
            self._observe_block(block, env.take(block, limit))
        elif env.reward.kind == "bernoulli":
            # rewards drawn as 0/1 sum to their count of ones
            self._observe_settled(block, limit, self._rewards[block] + env.hits(block, limit))
        else:
            self._observe_settled(block, limit, _fold(self._rewards[block], env.take(block, limit)))
        return block, limit

    def _observe_block(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        """Observe a round robin from _play at once, with its rewards.

        Leaves the state that as many select/observe calls leave: the same
        counts, reward sums and round-robin position, then the boundary
        work of the last step (inside a block no earlier step has any).
        Sums of 0/1 rewards are integers, exact in any order; other sums
        are folded per arm left to right.
        """
        bernoulli = self._reward.kind == "bernoulli"
        last = int(arms[-1])
        self._rr_pos = (self._active_arms.index(last) + 1) % len(self._active_arms)
        counts = np.bincount(arms, minlength=self.arm_count).tolist()
        if bernoulli:
            ones = np.bincount(arms, weights=rewards, minlength=self.arm_count).tolist()
        for a, count in enumerate(counts):
            if count:
                self._pulls[a] += count
                self._rewards[a] = (self._rewards[a] + ones[a] if bernoulli
                                    else _fold(self._rewards[a], rewards[arms == a]))
        self._step += len(rewards)
        self._after_observe(last)

    def _observe_settled(self, arm: int, k: int, total: float) -> None:
        """Observe k pulls of one arm that leave its reward sum at total."""
        self._pulls[arm] += k
        self._rewards[arm] = total
        self._step += k
        self._after_observe(arm)

    def _after_observe(self, arm: int) -> None:
        self._catch_up()
        if self._periods_close and self._step >= self._period_horizon:
            self._advance_period()
            self._catch_up()

    def _catch_up(self) -> None:
        # phases already paid for by carried counts pass back to back,
        # each one still refiltering the model set
        while (self._fallback is None and len(self._active_arms) > 1
               and all(self._pulls[a] >= self._target for a in self._active_arms)):
            self._advance_phase()

    def _advance_phase(self) -> None:
        kept = self._filter_models()
        keep = self._model_set(kept)[2] if kept else ()
        self._active_models = kept
        self._active_arms = [a for a in self._active_arms if a in keep]
        if not self._active_arms:
            self._fallback = _empirical_best(self._pulls, self._rewards)
        self._open_phase(self._phase + 1)

    def _advance_period(self) -> None:
        self._period += 1
        self._start_period(next_period_end(self._period_horizon, self.config.eta),
                           self._active_models or self._all_models)

    def _filter_models(self) -> list[int]:
        """Models of the period's base set consistent with every pulled
        arm's empirical mean.

        Strict inequality; arms with zero pulls impose no constraint.
        """
        pulls = np.array(self._pulls, dtype=np.float64)
        pulled = pulls > 0.0
        counts = pulls[pulled]
        means = np.array(self._rewards)[pulled] / counts
        radii = np.sqrt(self.config.alpha * self._log_nk / counts)
        near = np.abs(self._base_means[:, pulled] - means) < radii
        return self._base_models[near.all(axis=1)].tolist()

    def _model_set(self, models) -> tuple[np.ndarray, np.ndarray, frozenset[int]]:
        """The models as an index array, their rows of the means matrix and
        their optimal arms."""
        key = tuple(models)
        found = self._model_sets.get(key)
        if found is None:
            index = np.array(key)
            found = (index, self.structure.means[index], optimal_arm_set(self.structure, key))
            self._model_sets[key] = found
        return found

    def _active_model_ids(self) -> tuple[int, ...]:
        return tuple(self._active_models)


class SaeAgent(_EliminationAgent):
    """Successive-arm-elimination agent for a known horizon n: a single
    period of horizon n that never closes, so the model set is always
    refiltered from the full set."""

    _periods_close = False

    def __init__(self, structure: Structure, config: AgentConfig) -> None:
        if config.horizon is None:
            raise ValueError("sae requires a horizon")
        super().__init__(structure, config, config.horizon)


def next_period_end(n: int, eta: float) -> int:
    """ASAE's period end after n: ceil(n^(1+eta)), at least n + 1 (a tiny eta
    stalls in floats); OverflowError past the largest float."""
    return max(math.ceil(n ** (1.0 + eta)), n + 1)


class AsaeAgent(_EliminationAgent):
    """Anytime eliminator: the elimination period rerun on the eta schedule.

    Period k spans absolute steps (n_{k-1}, n_k] with n_0 = 2 and
    n_{k+1} = ceil(n_k^(1+eta)).
    """

    def __init__(self, structure: Structure, config: AgentConfig) -> None:
        super().__init__(structure, config, 2)


class SucbAgent(_Agent):
    """Structured UCB (the optimistic rule of UCB-S): confidence set plus optimism.

    At step t the active models are those within radius
    sqrt(coeff*log(max(t,2))/T_i) of every pulled arm's empirical mean,
    where coeff = alpha, or 2*alpha*sigma2 when sigma2 is set: model k
    passes arm i when (mu_ki - S_i/T_i)^2 < coeff*log(max(t,2))/T_i, in
    float64.  The arm with the largest supremum mean over active models is
    pulled, lowest index on ties; an empty set falls back to the
    empirical-best pulled arm.

    The set is kept incrementally and is, step for step, the set the dense
    test above gives: the same float expressions decide every comparison.
    On each arm the passing models form one contiguous run of that arm's
    column sorted by (mean, model index), since the rounded squared
    deviation never shrinks away from the empirical mean.  Between pulls of
    an arm only log(t) moves, so its run can only widen, past its outer
    neighbours.  Each step refits the run of the arm pulled last and every
    run whose nearer outer neighbour now passes (each arm keeps the scale
    coeff*log(t) at which that happens), and counts for each model the
    pulled arms whose run excludes it; the active models are those with
    count zero.  The optimistic arm is recomputed only when that set
    changes, as the optimal arm of the first active model in the optimism
    order (decreasing optimal mean, then optimal arm): an active mean equal
    to the largest is its model's unique optimal mean, so that is the lowest
    arm reaching the supremum.  A play is one select/observe and a stretch
    (``_stretch``) of further pulls of that arm, one check per step while
    no refit could move a run.
    """

    def __init__(self, structure: Structure, config: AgentConfig) -> None:
        super().__init__(structure.arm_count, config, structure.reward)
        self.structure = structure
        if config.sigma2 is None:
            self._coeff = config.alpha
        else:
            self._coeff = 2.0 * config.alpha * config.sigma2
        means = structure.means
        model_count = structure.model_count
        order = np.argsort(means, axis=0, kind="stable")
        self._order = order.T.tolist()
        self._column = np.take_along_axis(means, order, axis=0).T.tolist()
        # an unpulled arm keeps the full run and excludes no model
        self._lo = [0] * self.arm_count
        self._hi = [model_count] * self.arm_count
        # per arm, a lower bound on the scale coeff*log(t) at which its run
        # next widens; inf while unpulled
        self._wake = [math.inf] * self.arm_count
        self._excluded = [0] * model_count
        ranked = sorted(zip((-means.max(axis=1)).tolist(), structure.optimal_arms.tolist(),
                            range(model_count)))
        self._optimism = [(k, arm) for _, arm, k in ranked]
        # the optimistic arm, None while the set is empty; set by the first select
        self._arm: int | None = None
        self._changed = True
        self._observed: int | None = None

    def _choose(self) -> int:
        scaled = self._coeff * math.log(max(self._step + 1, 2))
        if self._observed is not None:
            self._refit(self._observed, scaled)
            self._observed = None
            if min(self._wake) <= scaled:
                for arm, wake in enumerate(self._wake):
                    if wake <= scaled:
                        self._refit(arm, scaled)
        if self._changed:
            self._changed = False
            excluded = self._excluded
            self._arm = next((arm for k, arm in self._optimism if not excluded[k]), None)
        if self._arm is None:
            return _empirical_best(self._pulls, self._rewards)
        return self._arm

    def _after_observe(self, arm: int) -> None:
        self._observed = arm

    def _play(self, env: Environment, limit: int) -> tuple[int, int]:
        arm, _ = super()._play(env, limit)
        return arm, 1 + self._stretch(env, limit - 1)

    def _stretch(self, env: Environment, limit: int) -> int:
        """After a select/observe of arm a, take up to `limit` more steps of a
        while a select would return a and change nothing but a's wake
        scale; returns the number taken.  Their rewards come from env's
        current draw chunk, which must hold `limit` unread draws.

        Step s qualifies when no other arm wakes at coeff*log(s) and, with
        the mean and count after step s-1, a's refit keeps [lo, hi): the
        run's end models pass and its outer neighbours fail.  The passing
        models being contiguous, that is exactly the refit's outcome.
        """
        arm = self._observed
        lo, hi = self._lo[arm], self._hi[arm]
        if self._arm is None or lo >= hi:
            return 0
        draws, start = env.draw_list(), env._pos
        column = self._column[arm]
        inner_lo, inner_hi = column[lo], column[hi - 1]
        # an absent neighbour never passes: inf * inf < rad2 is false
        outer_lo = column[lo - 1] if lo > 0 else math.inf
        outer_hi = column[hi] if hi < len(column) else math.inf
        wake = min(self._wake[:arm] + self._wake[arm + 1:], default=math.inf)
        mu, sigma, binary = env._means[arm], env._sigma, env.reward.kind == "bernoulli"
        coeff, count, total, step = self._coeff, self._pulls[arm], self._rewards[arm], self._step
        n = 0
        while n < limit:
            # step >= 1 here, so log(step + 1) is the scalar log(max(t, 2))
            scaled = coeff * math.log(step + 1)
            mean = total / count
            rad2 = scaled / count
            a, b, c, d = inner_lo - mean, inner_hi - mean, outer_lo - mean, outer_hi - mean
            if not (scaled < wake and a * a < rad2 and b * b < rad2
                    and not c * c < rad2 and not d * d < rad2):
                break
            # the reward pull gives
            draw = draws[start + n]
            total += (1.0 if draw < mu else 0.0) if binary else mu + sigma * draw
            count += 1
            step += 1
            n += 1
        self._pulls[arm], self._rewards[arm], self._step = count, total, step
        env._pos += n
        return n

    def _refit(self, arm: int, scaled: float) -> None:
        """Move arm's run to the models passing it at log-radius scale `scaled`.

        Below the split (the first sorted mean >= the empirical mean) the
        passing models are a suffix, from the split on a prefix; each end is
        found by walking from its old position.
        """
        count = self._pulls[arm]
        mean = self._rewards[arm] / count
        rad2 = scaled / count
        column = self._column[arm]
        size = len(column)
        split = bisect.bisect_left(column, mean)
        lo, hi = self._lo[arm], self._hi[arm]

        def passes(j: int) -> bool:
            d = column[j] - mean
            return d * d < rad2

        new_lo = min(lo, split)
        while new_lo < split and not passes(new_lo):
            new_lo += 1
        while new_lo > 0 and passes(new_lo - 1):
            new_lo -= 1
        new_hi = max(hi, split)
        while new_hi > split and not passes(new_hi - 1):
            new_hi -= 1
        while new_hi < size and passes(new_hi):
            new_hi += 1

        if new_lo != lo or new_hi != hi:
            order = self._order[arm]
            excluded = self._excluded
            for start, stop in ((lo, min(hi, new_lo)), (max(lo, new_hi), hi)):
                for j in range(start, stop):
                    k = order[j]
                    excluded[k] += 1
                    if excluded[k] == 1:
                        self._changed = True
            for start, stop in ((new_lo, min(new_hi, lo)), (max(new_lo, hi), new_hi)):
                for j in range(start, stop):
                    k = order[j]
                    excluded[k] -= 1
                    if excluded[k] == 0:
                        self._changed = True
            self._lo[arm], self._hi[arm] = new_lo, new_hi

        nearest = math.inf
        if new_lo > 0:
            d = column[new_lo - 1] - mean
            nearest = d * d
        if new_hi < size:
            d = column[new_hi] - mean
            nearest = min(nearest, d * d)
        # the neighbour passes once fl(scaled / count) > nearest, which needs
        # scaled > nearest * count in exact arithmetic; one ulp below the
        # rounded product never wakes late, and an early wake refits to the
        # same run
        self._wake[arm] = math.nextafter(nearest * count, 0.0)

    def _active_model_ids(self) -> tuple[int, ...]:
        return tuple(k for k, count in enumerate(self._excluded) if not count)


class Ucb1Agent(_Agent):
    """Plain UCB1 over arm indices; never sees the model set.

    Each arm is played once, in index order; from then on step t plays the
    first arm with the largest index S/N + sqrt(alpha*log(t)/N).  Batches
    run it through ``simulate_ucb1``; this scalar path is that kernel's
    oracle.
    """

    def __init__(self, arm_count: int, config: AgentConfig) -> None:
        super().__init__(arm_count, config, None)
        if arm_count < 1:
            raise ValueError("ucb1 requires at least one arm")

    def _choose(self) -> int:
        if self._step < self.arm_count:
            return self._step
        c = self.config.alpha * math.log(self._step + 1)
        best, best_index = 0, -math.inf
        for arm, (total, count) in enumerate(zip(self._rewards, self._pulls)):
            index = total / count + math.sqrt(c / count)
            if index > best_index:
                best, best_index = arm, index
        return best


def make_agent(structure: Structure, config: AgentConfig) -> _Agent:
    """Build the agent named by config.algorithm."""
    if config.algorithm == "sae":
        return SaeAgent(structure, config)
    if config.algorithm == "asae":
        return AsaeAgent(structure, config)
    if config.algorithm == "sucb":
        return SucbAgent(structure, config)
    return Ucb1Agent(structure.arm_count, config)


class Environment:
    """Reward source for the true model of a structure, by its reward spec.

    Draws are buffered in fixed-size chunks from a counter-based generator,
    so a given seed always yields the same reward stream.
    """

    def __init__(self, structure: Structure, seed: int | None = 0) -> None:
        self.structure = structure
        self.seed = seed
        self.reward = structure.reward
        self._mean_array = structure.means[structure.true_index]
        self._means = self._mean_array.tolist()
        self._sigma = math.sqrt(self.reward.variance)
        self._rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self._buf = np.empty(0)
        self._list: list[float] | None = None
        self._pos = 0

    @property
    def arm_count(self) -> int:
        return self.structure.arm_count

    def _refill(self) -> None:
        if self.reward.kind == "bernoulli":
            self._buf = self._rng.random(_DRAW_CHUNK)
        else:
            self._buf = self._rng.standard_normal(_DRAW_CHUNK)
        self._list = None
        self._pos = 0

    def pull(self, arm: int) -> float:
        if self._pos == len(self._buf):
            self._refill()
        draw = self._buf[self._pos]
        self._pos += 1
        if self.reward.kind == "bernoulli":
            return 1.0 if draw < self._means[arm] else 0.0
        return float(self._means[arm] + self._sigma * draw)

    def room(self) -> int:
        """Draws left in the current chunk, refilled first where pull would."""
        if self._pos == len(self._buf):
            self._refill()
        return len(self._buf) - self._pos

    def take(self, arms: int | np.ndarray, k: int) -> np.ndarray:
        """Rewards of the next k <= room() pulls, of one arm or of arms[i]
        at the i-th, as pull calls give them."""
        draws = self._buf[self._pos:self._pos + k]
        self._pos += k
        means = self._mean_array[arms]
        if self.reward.kind == "bernoulli":
            return (draws < means).astype(np.float64)
        return means + self._sigma * draws

    def hits(self, arm: int, k: int) -> int:
        """Ones among the Bernoulli rewards of the next k <= room() pulls
        of arm, as take would give them."""
        draws = self._buf[self._pos:self._pos + k]
        self._pos += k
        return int(np.count_nonzero(draws < self._means[arm]))

    def draw_list(self) -> list[float]:
        """The current draw chunk as a list; the draws from _pos on are unread."""
        if self._list is None:
            self._list = self._buf.tolist()
        return self._list


@dataclass(frozen=True)
class RunResult:
    """One seeded trajectory: regret at each checkpoint plus final pulls.

    actions holds the per-step arm log, only filled in audit mode, and is
    excluded from equality so that a run compares equal with or without it.
    """

    algorithm: str
    checkpoints: tuple[int, ...]
    regret: tuple[float, ...]
    pull_counts: tuple[int, ...]
    seed: int | None
    actions: tuple[int, ...] | None = field(default=None, compare=False)

    def final_regret(self) -> float:
        return self.regret[-1]


def check_integer(value, name: str) -> int:
    """value as an int if it is a Python or numpy integer (a bool is not
    one), else a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checkpoint_list(horizon: int, checkpoints) -> list[int]:
    """Checked checkpoints of a run; the default is the single final step."""
    check_integer(horizon, "horizon")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if checkpoints is None:
        checkpoints = (horizon,)
    cps = [check_integer(c, f"checkpoints[{i}]") for i, c in enumerate(checkpoints)]
    if any(b < a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be sorted")
    if cps and (cps[0] < 1 or cps[-1] > horizon):
        raise ValueError("checkpoints must lie in [1, horizon]")
    return cps


def simulate(agent, environment: Environment, horizon: int,
             checkpoints=None, audit: bool = False) -> RunResult:
    """Run one agent/environment pair for `horizon` steps.

    Regret is pseudo-regret: the running sum of the true model's gaps at the
    pulled arms, not realized-reward regret.  Checkpoints must be sorted and
    within the horizon; the default is the single final step.  audit keeps
    the full per-step arm log (small horizons only).

    Each iteration is one play (``_play``): 1 to `limit` steps, all from
    the current draw chunk.  An eliminator plays blocks up to its next
    decision (see the module docstring), SUCB a select/observe step with
    the stretch that follows it, UCB1 and any other object with
    select/observe one select/pull/observe step.  A play's gaps are added
    to the regret strictly left to right by ``np.add.accumulate``, with the
    bits of adding one at a time; a single step, or a one-arm play of gap
    0.0, is one float addition.
    """
    if agent.arm_count != environment.arm_count:
        raise ValueError(f"agent has {agent.arm_count} arms, environment {environment.arm_count}")
    # blocks and stretches fold the drawn rewards unchecked: one check here
    reward = getattr(agent, "_reward", None)
    if reward is not None and reward.kind != environment.reward.kind:
        raise ValueError(f"agent expects {reward.kind} rewards, environment draws "
                         f"{environment.reward.kind}")
    cps = _checkpoint_list(horizon, checkpoints)
    gaps = true_gaps(environment.structure)
    gap_array = np.array(gaps)
    play = agent._play if isinstance(agent, _Agent) else partial(_Agent._play, agent)
    regret = 0.0
    out = []
    actions = [] if audit else None
    pos = 0
    t = 0
    while t < horizon:
        arms, k = play(environment, min(horizon - t, environment.room()))
        marks = []
        while pos < len(cps) and cps[pos] <= t + k:
            marks.append(cps[pos] - t)
            pos += 1
        # partial sums keep the bits of `regret += gap` step by step (a
        # pairwise sum or k * gap would not): add.accumulate folds strictly
        # left to right, and regret >= +0.0 makes regret + 0.0 regret itself
        if isinstance(arms, np.ndarray) or (k > 1 and gaps[arms]):
            increments = np.empty(k + 1)
            increments[0] = regret
            increments[1:] = gap_array[arms]
            folded = np.add.accumulate(increments)
            out += folded[marks].tolist()
            regret = float(folded[k])
        else:
            regret += gaps[arms]
            out += [regret] * len(marks)
        if actions is not None:
            actions.extend(np.broadcast_to(arms, k).tolist())
        t += k
    return RunResult(
        algorithm=agent.config.algorithm,
        checkpoints=tuple(cps),
        regret=tuple(out),
        pull_counts=agent.snapshot().pull_counts,
        seed=environment.seed,
        actions=None if actions is None else tuple(actions),
    )


def simulate_ucb1(structures, config: AgentConfig, horizon: int, checkpoints,
                  seeds) -> tuple[RunResult, ...]:
    """Run UCB1 on each (structures[r], seeds[r]) pair, all runs in lockstep.

    Result r equals ``simulate(Ucb1Agent(K, config), Environment(structures[r],
    seeds[r]), horizon, checkpoints)``.  The state is R x K float64 pull
    counts and reward sums.  Every run takes one draw per step, so the R
    environments refill on the same step and their chunks are stacked,
    each Philox stream unchanged.  Indices are computed elementwise in the
    scalar order, S/N + sqrt(c/N) with c = alpha*log(t) a Python float, and
    the first largest wins, so every output keeps the scalar bits.
    """
    if config.algorithm != "ucb1":
        raise ValueError(f"simulate_ucb1 runs ucb1, got {config.algorithm!r}")
    if not seeds or len(structures) != len(seeds):
        raise ValueError(f"need one structure per seed, got {len(structures)} and {len(seeds)}")
    arm_count = structures[0].arm_count
    if any(s.arm_count != arm_count for s in structures):
        raise ValueError("structures of one block must have the same arm count")
    cps = _checkpoint_list(horizon, checkpoints)
    envs = [Environment(s, seed) for s, seed in zip(structures, seeds)]
    gaussian = envs[0].reward.kind == "gaussian"
    if any((env.reward.kind == "gaussian") != gaussian for env in envs):
        raise ValueError("structures of one block must have the same reward kind")
    runs = len(envs)
    # flat index row * K + arm addresses each run's entry of an R x K array
    means = np.array([env._means for env in envs], dtype=np.float64).ravel()
    gaps = np.array([true_gaps(s) for s in structures], dtype=np.float64).ravel()
    sigma = np.array([env._sigma for env in envs])
    rows = np.arange(runs) * arm_count
    pulls = np.zeros((runs, arm_count))
    sums = np.zeros((runs, arm_count))
    pulls_flat, sums_flat = pulls.reshape(-1), sums.reshape(-1)
    regret = np.zeros(runs)
    marks, at_mark = set(cps), {}
    for t in range(1, horizon + 1):
        j = (t - 1) % _DRAW_CHUNK
        if j == 0:
            for env in envs:
                env._refill()
            draws = np.stack([env._buf for env in envs], axis=1)
            if gaussian:  # a reward is means[arm] + sigma * draw
                draws *= sigma
        if t <= arm_count:
            flat = rows + (t - 1)
        else:
            c = config.alpha * math.log(t)
            flat = (sums / pulls + np.sqrt(c / pulls)).argmax(axis=1) + rows
        mu = means[flat]
        reward = mu + draws[j] if gaussian else draws[j] < mu
        pulls_flat[flat] += 1.0
        sums_flat[flat] += reward
        regret += gaps[flat]
        if t in marks:
            at_mark[t] = regret.tolist()
    counts = pulls.astype(np.int64).tolist()
    return tuple(
        RunResult(
            algorithm=config.algorithm,
            checkpoints=tuple(cps),
            regret=tuple(at_mark[c][r] for c in cps),
            pull_counts=tuple(counts[r]),
            seed=seeds[r],
        )
        for r in range(runs))
