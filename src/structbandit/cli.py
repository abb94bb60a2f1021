"""Command-line front end.

Subcommands: run (batch experiment from a JSON config), theory (bound
reports and deterministic elimination tables), classify (structure class
predicates), gen (structure files), paper-suite (the four reference
experiments plus pull tables).

Exit codes: 0 success, 1 runtime failure (or, for paper-suite, a failed
check once every output is written), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import shutil
import sys

from .algorithms import AgentConfig
from .gaps import Structure, classify
from .simulation import (
    BatchResult,
    ExperimentConfig,
    run_batch,
    run_randomized_batch,
    write_batch,
)
from .structures import (
    GeneratorSpec,
    build_figure_left,
    build_figure_right,
    generate_random,
    json_value,
    load_structure,
    read_json,
    save_structure,
)
from .theory import (
    TheorySequences,
    asae_bound,
    asae_constant_bound,
    deterministic_sequences,
    lower_bound_cr,
    sae_bound,
    sucb_bound,
    ucb_reference_bound,
)


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 2."""


def _resolve_workers(flag_value: int | None) -> int:
    if flag_value is None:
        raw = os.environ.get("STRUCTBANDIT_WORKERS")
        if raw is None:
            return 1
        try:
            flag_value = int(raw)
        except ValueError:
            raise UsageError(f"STRUCTBANDIT_WORKERS must be an integer, got {raw!r}")
    if flag_value < 1:
        raise UsageError(f"worker count must be >= 1, got {flag_value}")
    return flag_value


def _checked(call, *args):
    """call(*args), with an OSError or a ValueError (an unreadable or bad
    input) as a UsageError."""
    try:
        return call(*args)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc))


def _field(value, kind: str, name: str):
    """``value`` if it is a JSON value of ``kind`` (see json_value), else a
    UsageError naming the config field."""
    return _checked(json_value, value, kind, f"config field '{name}'")


_signature = functools.cache(inspect.signature)  # about 35 µs a call, the same every time


def _check_options(make, options: dict, where: str) -> None:
    """Check every option that names a parameter of ``make`` against the
    JSON kind of the parameter's annotation (a ValueError naming the config
    field); ``make`` refuses any other option."""
    parameters = _signature(make).parameters
    for name, value in options.items():
        if name in parameters:
            json_value(value, parameters[name].annotation, f"config field '{where}.{name}'")


# builder name -> (the entry's options parsed: a structure, or the random
# builder's GeneratorSpec; gen flags -> those options)
_BUILDERS = {
    "figure_left": (build_figure_left,
                    lambda args: {"informative_arm2": not args.no_informative_arm2}),
    "figure_right": (build_figure_right, lambda args: {"arm1_fourth_model": args.arm1_fourth}),
    "random": (GeneratorSpec,
               lambda args: {"arm_count": args.arms, "base_model_count": args.base_models,
                             "hard_model_count": args.hard_models,
                             "optimistic_scale": args.optimistic_scale,
                             "shrink_factor": args.shrink_factor, "seed": args.seed or 0}),
}


def _structure_from_entry(entry, fresh: bool = False) -> tuple[Structure | GeneratorSpec, str]:
    """Resolve a config 'structure' entry (path string or builder dict) to
    the structure and its source.  With ``fresh`` the entry must name the
    random builder, and its GeneratorSpec stands in for the structure.
    """
    if fresh and not (isinstance(entry, dict) and entry.get("builder") == "random"):
        raise UsageError("fresh_structure_per_run requires the 'random' builder")
    if isinstance(entry, str):
        entry = {"path": entry}
    if not isinstance(entry, dict):
        raise UsageError("structure entry must be a path string or a builder object")
    if "path" in entry:
        extra = sorted(key for key in entry if key != "path")
        if extra:
            raise UsageError(f"a structure entry with 'path' takes no other keys, got {extra}")
        path = _field(entry["path"], "str", "structure.path")
        return _checked(load_structure, path), path
    builder = entry.get("builder")
    if not isinstance(builder, str) or builder not in _BUILDERS:
        raise UsageError(f"unknown structure builder {builder!r}")
    make = _BUILDERS[builder][0]
    options = {k: v for k, v in entry.items() if k != "builder"}
    try:
        _check_options(make, options, "structure")
        built = make(**options)
        if isinstance(built, GeneratorSpec) and not fresh:
            built = generate_random(built)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad structure options for builder {builder!r}: {exc}")
    return built, builder


def _agent_configs(entries: list) -> tuple[AgentConfig, ...]:
    if not entries:
        raise UsageError("config needs a non-empty 'agents' list")
    configs = []
    for index, entry in enumerate(entries):
        if isinstance(entry, dict):
            _checked(_check_options, AgentConfig, entry, f"agents[{index}]")
        try:
            configs.append(AgentConfig(**entry))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad agent entry agents[{index}] {entry!r}: {exc}")
    return tuple(configs)


# a run config's fields: JSON kind and default; a field without a default is
# required, and the structure entry is read by _structure_from_entry
_RUN_FIELDS = {"horizon": ("int",), "agents": ("list",), "structure": (None,),
               "runs": ("int", 100), "base_seed": ("int", 0), "level": ("float", 0.95),
               "checkpoints": ("list | None", None), "fresh_structure_per_run": ("bool", False)}


def cmd_run(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args.workers)
    data = _checked(read_json, args.config)
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(data) - set(_RUN_FIELDS))
    if unknown:
        raise UsageError(f"unknown config fields {unknown}")
    fields = {}
    for name, (kind, *default) in _RUN_FIELDS.items():
        if name not in data and not default:
            raise UsageError(f"config is missing '{name}'")
        fields[name] = value = data.get(name, *default)
        if kind:
            _field(value, kind, name)
    agents = _agent_configs(fields["agents"])
    base_seed = fields["base_seed"] if args.seed is None else args.seed
    checkpoints = fields["checkpoints"]
    if checkpoints is not None:
        checkpoints = tuple(_field(c, "int", f"checkpoints[{i}]") for i, c in enumerate(checkpoints))
    schedule = dict(runs=fields["runs"], base_seed=base_seed, checkpoints=checkpoints,
                    level=fields["level"])
    try:
        if fields["fresh_structure_per_run"]:
            spec, _ = _structure_from_entry(fields["structure"], fresh=True)
            batch = run_randomized_batch(spec, agents, fields["horizon"], workers=workers,
                                         **schedule)
        else:
            structure, source = _structure_from_entry(fields["structure"])
            batch = run_batch(ExperimentConfig(structure=structure, agents=agents,
                                               horizon=fields["horizon"], source=source,
                                               **schedule), workers=workers)
    except ValueError as exc:
        raise UsageError(str(exc))
    paths = write_batch(args.out, batch)
    _print_batch_summary(batch)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def _print_batch_summary(batch: BatchResult) -> None:
    for tag, aggregate in batch.aggregates.items():
        mean = aggregate.mean_regret[-1]
        half = aggregate.regret_half_width[-1]
        print(f"{tag}: final regret {mean:.2f} +/- {half:.2f} "
              f"({aggregate.run_count} runs)")


def _sequences_document(sequences: TheorySequences) -> dict:
    phases = []
    for h, active in enumerate(sequences.active):
        row = {"phase": h, "threshold": 2.0 ** (-h), "active": sorted(active)}
        if h < len(sequences.removed):
            row["surely_eliminated"] = sorted(sequences.removed[h])
            row["surely_active"] = sorted(sequences.surely_active[h])
        phases.append(row)
    return {
        "alpha": sequences.alpha, "beta": sequences.beta, "n": sequences.n,
        "k_beta": sequences.k_beta,
        "phases": phases,
        "last_active_phase": {str(a): h for a, h in sorted(sequences.last_active_phase.items())},
        "informative_arms": {str(a): sorted(v) for a, v in sorted(sequences.informative_arms.items())},
        "unresolved": sorted(sequences.unresolved),
    }


def cmd_theory(args: argparse.Namespace) -> int:
    structure = _checked(load_structure, args.structure)
    requested = args.bound or []
    needs_n = {"sae", "asae", "sucb", "ucb"}
    if args.n is None and (needs_n.intersection(requested) or args.sequences):
        raise UsageError("--n is required for sequences and horizon-dependent bounds")
    document: dict = {"structure": args.structure, "bounds": [], "notes": []}
    try:
        if "sae" in requested or args.sequences:
            sequences = deterministic_sequences(structure, args.alpha, args.beta, args.n)
        for name in requested:
            if name == "sae":
                document["bounds"].append(sae_bound(structure, sequences, args.n).to_dict())
            elif name == "asae":
                document["bounds"].append(asae_bound(structure, args.n).to_dict())
            elif name == "const":
                try:
                    document["bounds"].append(asae_constant_bound(structure).to_dict())
                except ValueError as exc:
                    document["notes"].append(f"const: Assumption 1 violated ({exc})")
            elif name == "sucb":
                document["bounds"].append(sucb_bound(structure, args.n).to_dict())
            elif name == "ucb":
                document["bounds"].append(ucb_reference_bound(structure, args.n).to_dict())
            elif name == "lower":
                try:
                    document["bounds"].append(lower_bound_cr(structure, n=args.n).to_dict())
                except ValueError as exc:
                    document["notes"].append(f"lower: {exc}")
        if args.sequences:
            document["sequences"] = _sequences_document(sequences)
    except ValueError as exc:
        raise UsageError(str(exc))
    text = json.dumps(document, indent=1)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    structure = _checked(load_structure, args.structure)
    sequences = None
    if args.n is not None:
        try:
            sequences = deterministic_sequences(structure, args.alpha, args.beta, args.n)
        except ValueError as exc:
            raise UsageError(str(exc))
    result = classify(structure, sequences)
    print(json.dumps({
        "in_worst_case": result.in_worst_case,
        "in_optimality": result.in_optimality,
        "in_constant_regret": result.in_constant_regret,
    }, indent=1))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    structure, _ = _structure_from_entry(
        {"builder": args.builder, **_BUILDERS[args.builder][1](args)})
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    save_structure(structure, args.out)
    print(f"wrote {args.out} ({structure.model_count} models, "
          f"{structure.arm_count} arms)")
    return 0


def _separated(low_mean: float, low_half: float, high_mean: float, high_half: float) -> bool:
    return low_mean + low_half < high_mean - high_half


def _ordering_check(batch: BatchResult, low: str, high: str) -> tuple[str, bool]:
    a = batch.aggregates[low]
    b = batch.aggregates[high]
    ok = _separated(a.mean_regret[-1], a.regret_half_width[-1],
                    b.mean_regret[-1], b.regret_half_width[-1])
    return f"regret({low}) < regret({high}) with separated CIs", ok


def _pulls_check(batch: BatchResult, low: str, high: str, arm: int) -> tuple[str, bool]:
    a = batch.aggregates[low]
    b = batch.aggregates[high]
    ok = _separated(a.mean_pulls[arm], a.pulls_half_width[arm],
                    b.mean_pulls[arm], b.pulls_half_width[arm])
    return f"pulls of arm {arm}: {low} < {high} with separated CIs", ok


def _unpulled_check(batch: BatchResult, tag: str, arm: int) -> tuple[str, bool]:
    runs = batch.runs[tag]
    unpulled = sum(run.pull_counts[arm] == 0 for run in runs)
    return (f"{tag} leaves arm {arm} unpulled in most runs "
            f"({unpulled}/{len(runs)})", 2 * unpulled > len(runs))


def _suite_agents(eta: float) -> tuple[AgentConfig, ...]:
    return (
        AgentConfig("sae", alpha=2.0, beta=1.0),
        AgentConfig("asae", alpha=2.0, beta=1.0, eta=eta),
        AgentConfig("sucb", alpha=2.0),
        AgentConfig("ucb1", alpha=2.0),
    )


def cmd_paper_suite(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args.workers)
    base_seed = 0 if args.seed is None else args.seed
    fig3c_runs = 25 if args.scale == "desk" else 100
    os.makedirs(args.out, exist_ok=True)
    checks: list[tuple[str, str, bool]] = []

    print("running fig3a (piecewise-linear structure, n=10000) ...", flush=True)
    batch_a = run_batch(ExperimentConfig(
        structure=build_figure_left(), agents=_suite_agents(0.1),
        horizon=10000, runs=100, base_seed=base_seed, source="figure_left"),
        workers=workers)
    write_batch(os.path.join(args.out, "fig3a"), batch_a)
    for low, high in (("asae", "sucb"), ("sae", "sucb"), ("sucb", "ucb1")):
        name, ok = _ordering_check(batch_a, low, high)
        checks.append(("fig3a", name, ok))

    print("running fig3b (non-informative middle arm variant) ...", flush=True)
    batch_b = run_batch(ExperimentConfig(
        structure=build_figure_left(informative_arm2=False),
        agents=_suite_agents(0.1), horizon=10000, runs=100,
        base_seed=base_seed, source="figure_left_noninformative"),
        workers=workers)
    write_batch(os.path.join(args.out, "fig3b"), batch_b)
    # sae keeps arm 2 to its 1179-pull target here, so its regret does not
    # undercut ucb1's; the structure shows in how soon it drops arm 1
    checks.append(("fig3b", *_ordering_check(batch_b, "sucb", "sae")))
    checks.append(("fig3b", *_pulls_check(batch_b, "sae", "ucb1", 1)))

    print(f"running fig3c (four-model structure, n=500000, {fig3c_runs} runs) ...", flush=True)
    batch_c = run_batch(ExperimentConfig(
        structure=build_figure_right(), agents=_suite_agents(0.01),
        horizon=500000, runs=fig3c_runs, base_seed=base_seed,
        source="figure_right"), workers=workers)
    write_batch(os.path.join(args.out, "fig3c"), batch_c)
    for low, high in (("asae", "sucb"), ("sae", "sucb")):
        name, ok = _ordering_check(batch_c, low, high)
        checks.append(("fig3c", name, ok))
    # model 2 is optimistic for arm 3, so sucb may pull it in a few runs
    checks.append(("fig3c", *_unpulled_check(batch_c, "sucb", 3)))
    checks.append(("fig3c", *_pulls_check(batch_c, "sucb", "asae", 3)))

    print("running fig3d (randomized structures, n=10000) ...", flush=True)
    batch_d = run_randomized_batch(
        GeneratorSpec(), _suite_agents(0.1), horizon=10000, runs=100,
        base_seed=base_seed, workers=workers)
    write_batch(os.path.join(args.out, "fig3d"), batch_d)
    name, ok = _ordering_check(batch_d, "asae", "sucb")
    checks.append(("fig3d", name, ok))

    fig4 = os.path.join(args.out, "fig4")
    os.makedirs(fig4, exist_ok=True)
    for label, batch in (("fig4a", batch_a), ("fig4b", batch_b), ("fig4c", batch_c)):
        for tag in batch.aggregates:
            src = os.path.join(args.out, f"fig3{label[-1]}", f"{tag}_pulls.csv")
            shutil.copyfile(src, os.path.join(fig4, f"{label}_{tag}_pulls.csv"))

    print()
    return _report_checks(checks, args.out)


def _report_checks(checks: list[tuple[str, str, bool]], out: str) -> int:
    """Print one PASS/FAIL line per check and a summary; exit code 1 if any failed."""
    failed = 0
    for figure, name, ok in checks:
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        print(f"{status} {figure}: {name}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed; outputs in {out}")
    return 1 if failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call
    in this process: parse_args fills a fresh namespace each time and keeps
    no state of its own."""
    parser = argparse.ArgumentParser(
        prog="structbandit",
        description="Structured-bandit simulation and theory toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config path")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.set_defaults(func=cmd_run)

    p_theory = sub.add_parser("theory", help="evaluate regret bounds and elimination tables")
    p_theory.add_argument("--structure", required=True, help="structure file path")
    p_theory.add_argument("--bound", action="append",
                          choices=("sae", "asae", "const", "sucb", "ucb", "lower"))
    p_theory.add_argument("--sequences", action="store_true",
                          help="emit the deterministic elimination tables")
    p_theory.add_argument("--alpha", type=float, default=2.0)
    p_theory.add_argument("--beta", type=float, default=1.0)
    p_theory.add_argument("--n", type=int, default=None)
    p_theory.add_argument("--out", default=None, help="write the JSON document here")
    p_theory.set_defaults(func=cmd_theory)

    p_classify = sub.add_parser("classify", help="structure class membership")
    p_classify.add_argument("--structure", required=True)
    p_classify.add_argument("--alpha", type=float, default=2.0)
    p_classify.add_argument("--beta", type=float, default=2.0)
    p_classify.add_argument("--n", type=int, default=None,
                            help="enables the sequence-dependent class")
    p_classify.set_defaults(func=cmd_classify)

    p_gen = sub.add_parser("gen", help="write a structure file")
    p_gen.add_argument("--builder", choices=tuple(_BUILDERS), default="random")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--arms", type=int, default=50)
    p_gen.add_argument("--base-models", type=int, default=100)
    p_gen.add_argument("--hard-models", type=int, default=50)
    p_gen.add_argument("--optimistic-scale", type=float, default=0.2)
    p_gen.add_argument("--shrink-factor", type=float, default=0.1)
    p_gen.add_argument("--no-informative-arm2", action="store_true",
                       help="figure_left variant with a flat middle arm")
    p_gen.add_argument("--arm1-fourth", type=float, default=0.92,
                       help="figure_right arm-1 mean in the fourth model")
    p_gen.set_defaults(func=cmd_gen)

    p_suite = sub.add_parser("paper-suite", help="regenerate the reference experiments")
    p_suite.add_argument("--out", default="paper_suite")
    p_suite.add_argument("--scale", choices=("desk", "full"), default="desk")
    p_suite.add_argument("--workers", type=int, default=None)
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.set_defaults(func=cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
