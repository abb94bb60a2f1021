"""Spans around calls into each structbandit module, recorded from outside.

`Tracer.install` replaces public functions and methods on freshly imported
structbandit modules with wrappers.  Per-call functions (one or more calls
per simulated step) get a light wrapper that adds its duration to a
(name, parent) bucket; every other call gets a full span record
[name, start_ns, end_ns, parent].  Both stay in memory until the run ends.

The wrappers live only in the process that installed them and in the
workers it forks.  Spans recorded inside a forked worker are lost with it,
which is why a parallel workload gets a second, one-worker traced call for
its per-step layers.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import Counter

_now = time.perf_counter_ns

ROOT = -1
BOOKKEEPING = "trace.bookkeeping"

# (module, attribute) pairs that may hold each traced function; every
# reference is replaced so callers inside the package see the wrapper.
_SPANNED = {
    "cli.main": [("cli", "main")],
    "simulation.run_batch": [("cli", "run_batch"), ("simulation", "run_batch")],
    "simulation.run_randomized_batch": [("cli", "run_randomized_batch"),
                                        ("simulation", "run_randomized_batch")],
    "simulation.write_batch": [("cli", "write_batch"), ("simulation", "write_batch")],
    "algorithms.simulate": [("simulation", "simulate"), ("algorithms", "simulate")],
    "structures.generate_random": [("cli", "generate_random"),
                                   ("simulation", "generate_random"),
                                   ("structures", "generate_random")],
    "structures.load_structure": [("cli", "load_structure"), ("structures", "load_structure")],
    "gaps.classify": [("cli", "classify"), ("theory", "classify"), ("gaps", "classify")],
}
for _name in ("deterministic_sequences", "sae_bound", "asae_bound", "asae_constant_bound",
              "sucb_bound", "ucb_reference_bound"):
    _SPANNED[f"theory.{_name}"] = [("cli", _name), ("theory", _name)]

_COUNTED = {
    "gaps.psi": [("gaps", "psi"), ("theory", "psi")],
    "gaps.model_gap": [("gaps", "model_gap"), ("theory", "model_gap")],
}

_AGENTS = {"sae": "SaeAgent", "asae": "AsaeAgent", "sucb": "SucbAgent", "ucb1": "Ucb1Agent"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.buckets: dict[tuple[str, int], list[int]] = {}
        self.counts: Counter = Counter()
        self._sucb_prev = None

    # -- recording -----------------------------------------------------

    def _parent(self) -> int:
        return self.stack[-1] if self.stack else ROOT

    def span(self, name: str, fn, on_exit=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else ROOT]
            spans.append(record)
            stack.append(index)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[1], record[2] = start, _now()
                stack.pop()
            if on_exit is not None:
                mark = _now()
                on_exit(args, kwargs, result)
                # after the span closed, so charged to its parent
                self._bookkeeping(_now() - mark, record[3])
            return result
        return wrapper

    def bucket(self, name: str, fn, after=None):
        buckets, stack = self.buckets, self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            start = _now()
            result = fn(*args)
            end = _now()
            key = (name, stack[-1] if stack else ROOT)
            acc = buckets.get(key)
            if acc is None:
                buckets[key] = [1, end - start]
            else:
                acc[0] += 1
                acc[1] += end - start
            if after is not None:
                after(args, result)
                self._bookkeeping(_now() - end, key[1])
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _bookkeeping(self, ns: int, parent: int) -> None:
        """Tracer work done inside a span; charged as a child, not as self time."""
        acc = self.buckets.setdefault((BOOKKEEPING, parent), [0, 0])
        acc[1] += ns

    # -- exact counts gathered at span exit ----------------------------

    def _after_simulate(self, args, kwargs, result) -> None:
        self._sucb_prev = None
        agent = args[0] if args else kwargs["agent"]
        steps = sum(result.pull_counts)
        self.counts["algorithms.steps"] += steps
        history = getattr(agent, "history", None)
        if history is None:
            return
        tag = agent.config.algorithm
        self.counts[f"algorithms.{tag}.phases"] += len(history)
        self.counts["algorithms.elim.steps"] += steps
        # a phase record holds the state from its step to the next record's
        for record, following in zip(history, history[1:] + (None,)):
            if len(record.active_arms) <= 1:
                end = steps if following is None else sum(following.pull_counts)
                self.counts["algorithms.elim.settled_steps"] += end - sum(record.pull_counts)

    def _after_write_batch(self, args, kwargs, result) -> None:
        self.counts["simulation.write_batch_bytes"] += sum(
            os.path.getsize(path) for path in result.values())

    def _after_sucb_select(self, args, result) -> None:
        agent = args[0]
        active = agent.snapshot().active_models
        previous = self._sucb_prev
        if previous is None:  # first step of a run: the set starts as every model
            previous = tuple(range(agent.structure.model_count))
        self.counts["algorithms.sucb.steps"] += 1
        if active != previous:
            self.counts["algorithms.sucb.set_changes"] += 1
        self._sucb_prev = active

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            """Counts tasks and the bytes their chunks pickle to."""

            def map(self, fn, *iterables, timeout=None, chunksize=1):
                mark = _now()
                items = list(zip(*iterables))
                tracer.counts["simulation.dispatch.tasks"] += len(items)
                for i in range(0, len(items), chunksize):
                    chunk = tuple(items[i:i + chunksize])
                    tracer.counts["simulation.dispatch.pickled_bytes"] += len(
                        pickle.dumps((fn, chunk), pickle.HIGHEST_PROTOCOL))
                tracer._bookkeeping(_now() - mark, tracer._parent())
                return super().map(fn, *zip(*items), timeout=timeout, chunksize=chunksize)
        return CountingPool

    # -- installation --------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the traced functions of `modules` (short name -> module)."""
        exits = {"algorithms.simulate": self._after_simulate,
                 "simulation.write_batch": self._after_write_batch}
        for name, places in _SPANNED.items():
            on_exit = exits.get(name)
            original = getattr(modules[places[0][0]], places[0][1])
            wrapped = self.span(name, original, on_exit)
            for module, attr in places:
                setattr(modules[module], attr, wrapped)
        for name, places in _COUNTED.items():
            wrapped = self.counted(name, getattr(modules[places[0][0]], places[0][1]))
            for module, attr in places:
                setattr(modules[module], attr, wrapped)
        algorithms = modules["algorithms"]
        env = algorithms.Environment
        env.pull = self.bucket("algorithms.Environment.pull", env.pull)
        for tag, cls_name in _AGENTS.items():
            cls = getattr(algorithms, cls_name)
            select = cls.select
            after = self._after_sucb_select if tag == "sucb" else None
            cls.select = self.bucket(f"algorithms.{tag}.select", select, after)
            cls.observe = self.bucket(f"algorithms.{tag}.observe", cls.observe)
        simulation = modules["simulation"]
        simulation.ProcessPoolExecutor = self._counting_pool(simulation.ProcessPoolExecutor)

    # -- summaries -----------------------------------------------------

    def self_times(self, outside_ns: float) -> dict[str, list[int]]:
        """name -> [calls, total ns, self ns] over every full span.

        Self time is a span's duration minus its child spans, its per-call
        buckets and tracer bookkeeping, and `outside_ns` for every bucketed
        call (the wrapper's own cost, which lands in the parent).
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent != ROOT:
                child_ns[parent] += end - start
        for (name, parent), (calls, total) in self.buckets.items():
            if parent != ROOT:
                child_ns[parent] += total + calls * outside_ns
        out: dict[str, list[int]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[index]
        return out

    def bucket_totals(self) -> dict[str, list[int]]:
        """name -> [calls, total ns] over every per-call bucket."""
        out: dict[str, list[int]] = {}
        for (name, _), (calls, total) in self.buckets.items():
            row = out.setdefault(name, [0, 0])
            row[0] += calls
            row[1] += total
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
            "buckets": [[name, parent, calls, total]
                        for (name, parent), (calls, total) in sorted(self.buckets.items())],
            "counts": dict(sorted(self.counts.items())),
        }


def wrapper_costs() -> tuple[float, float]:
    """(inside, outside) cost in ns that a bucket wrapper adds to each call.

    Inside is the timer overhead recorded within the call's own duration,
    beyond the cost of the call itself; outside is the rest of the wrapper,
    which lands in the caller's span.  Both come from wrapping a no-op and
    are the least over five trials of 50,000 calls.
    """
    def noop(x):
        return x

    samples = 50_000
    tracer = Tracer()
    wrapped = tracer.bucket("noop", noop)
    inside = outside = None
    for _ in range(5):
        tracer.buckets.clear()
        start = _now()
        for i in range(samples):
            pass
        empty = _now() - start
        start = _now()
        for i in range(samples):
            noop(i)
        bare = _now() - start
        start = _now()
        for i in range(samples):
            wrapped(i)
        traced = _now() - start
        recorded = tracer.buckets[("noop", ROOT)][1]
        trial_in = (recorded - (bare - empty)) / samples
        trial_out = (traced - empty - recorded) / samples
        inside = trial_in if inside is None else min(inside, trial_in)
        outside = trial_out if outside is None else min(outside, trial_out)
    return max(inside, 0.0), max(outside, 0.0)
