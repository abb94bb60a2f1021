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

from .algorithms import ALGORITHMS, READ_FIELDS, AgentConfig
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


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise UsageError(f"--workers must be >= 1, got {workers}")


def _checked(call, *args):
    """call(*args), with an OSError or a ValueError (an unreadable or bad
    input) as a UsageError."""
    try:
        return call(*args)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc))


def _out_path(path: str, directory: bool) -> None:
    """A UsageError naming ``path`` unless an output directory (``directory``)
    or file, which may replace a file, can be made there."""
    what = "a directory" if directory else "a file"
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent) or os.path.exists(path) and os.path.isdir(path) != directory:
        raise UsageError(f"--out {path} cannot be made {what}: a file or a directory is in the way")
    if not os.path.exists(path):  # each name that would be made, as the file system allows
        limit = os.pathconf(parent, "PC_NAME_MAX")
        for name in os.path.relpath(os.path.abspath(path), parent).split(os.sep):
            if len(os.fsencode(name)) > limit:
                raise UsageError(f"--out {path} cannot be made {what}: a name in it is longer "
                                 f"than the {limit} bytes the file system allows")


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


# builder name -> what an entry's options build: a structure, or GeneratorSpec
_BUILDERS = {"figure_left": build_figure_left, "figure_right": build_figure_right,
             "random": GeneratorSpec}

# gen flag -> the builder option it sets (its argparse dest); gen passes on
# only the flags given, so the builders' own defaults are the only ones
_GEN_FLAGS = {"--seed": "seed", "--arms": "arm_count", "--base-models": "base_model_count",
              "--hard-models": "hard_model_count", "--optimistic-scale": "optimistic_scale",
              "--shrink-factor": "shrink_factor", "--no-informative-arm2": "informative_arm2",
              "--arm1-fourth": "arm1_fourth_model"}


def _structure_from_entry(entry, fresh: bool = False) -> tuple[Structure | GeneratorSpec, str]:
    """Resolve a config 'structure' entry (path string or builder dict) to
    the structure and its source.  With ``fresh`` the entry must name the
    random builder, and its GeneratorSpec stands in for the structure.
    """
    if fresh and not (isinstance(entry, dict) and entry.get("builder") == "random"):
        raise UsageError("fresh_structure_per_run requires the 'random' builder")
    if fresh and "seed" in entry:
        raise UsageError("config field 'structure.seed' is not used with fresh_structure_per_run, "
                         "which seeds each run's structure from base_seed")
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
    make = _BUILDERS[builder]
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
            if "algorithm" in entry and entry["algorithm"] not in ALGORITHMS:
                raise UsageError(f"config field 'agents[{index}].algorithm' must be one of "
                                 f"{ALGORITHMS}, got {entry['algorithm']!r}")
        try:
            config = AgentConfig(**entry)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad agent entry agents[{index}] {entry!r}: {exc}")
        # null means unset; a field the algorithm never reads would be
        # written to the manifest as if it had been used
        reads = READ_FIELDS[config.algorithm]
        unread = [f"'agents[{index}].{name}'" for name, value in entry.items()
                  if name not in ("algorithm", *reads) and value is not None]
        if unread:
            raise UsageError(f"{config.algorithm} reads only {'/'.join(reads)}, not config "
                             f"field {' or '.join(unread)}")
        configs.append(config)
    return tuple(configs)


# a run config's fields: JSON kind and default; a field without a default is
# required, and the structure entry is read by _structure_from_entry
_RUN_FIELDS = {"horizon": ("int",), "agents": ("list",), "structure": (None,),
               "runs": ("int", 100), "base_seed": ("int", 0), "level": ("float", 0.95),
               "checkpoints": ("list | None", None), "fresh_structure_per_run": ("bool", False)}


def _run_config(data, workers: int, seed: int | None, source: str | None = None) -> BatchResult:
    """The batch that the run config ``data`` (as `run --config` reads it)
    describes, with ``seed`` in place of its base_seed when given and
    ``source`` in place of a fixed structure's source."""
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
    checkpoints = fields["checkpoints"]
    if checkpoints is not None:
        checkpoints = tuple(_field(c, "int", f"checkpoints[{i}]") for i, c in enumerate(checkpoints))
    schedule = dict(runs=fields["runs"], base_seed=fields["base_seed"] if seed is None else seed,
                    checkpoints=checkpoints, level=fields["level"])
    try:
        if fields["fresh_structure_per_run"]:
            spec, _ = _structure_from_entry(fields["structure"], fresh=True)
            return run_randomized_batch(spec, agents, fields["horizon"], workers=workers,
                                        **schedule)
        structure, origin = _structure_from_entry(fields["structure"])
        return run_batch(ExperimentConfig(structure=structure, agents=agents,
                                          horizon=fields["horizon"], source=source or origin,
                                          **schedule), workers=workers)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_run(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    _out_path(args.out, True)
    batch = _run_config(_checked(read_json, args.config), args.workers, args.seed)
    paths = write_batch(args.out, batch)
    for tag, aggregate in batch.aggregates.items():
        print(f"{tag}: final regret {aggregate.mean_regret[-1]:.2f} +/- "
              f"{aggregate.regret_half_width[-1]:.2f} ({aggregate.run_count} runs)")
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


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
    if args.out:
        _out_path(args.out, False)
    structure = _checked(load_structure, args.structure)
    requested = args.bound or []
    needs_n = {"sae", "asae", "sucb", "ucb"}
    if args.n is None and (needs_n.intersection(requested) or args.sequences):
        raise UsageError("--n is required for sequences and horizon-dependent bounds")
    if args.n is not None and args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    document: dict = {"structure": args.structure, "bounds": [], "notes": []}
    try:
        if "sae" in requested or args.sequences:
            sequences = deterministic_sequences(structure, args.alpha, args.beta, args.n)
        for name in requested:
            if name == "sae":
                document["bounds"].append(sae_bound(structure, sequences).to_dict())
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
    _out_path(args.out, False)
    parameters = _signature(_BUILDERS[args.builder]).parameters
    options = {}
    for flag, name in _GEN_FLAGS.items():
        value = getattr(args, name)
        if value is not None:
            if name not in parameters:
                raise UsageError(f"{flag} is not an option of builder {args.builder!r}")
            options[name] = _checked(json_value, value, parameters[name].annotation, flag)
    structure, _ = _structure_from_entry({"builder": args.builder, **options})
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    save_structure(structure, args.out)
    print(f"wrote {args.out} ({structure.model_count} models, "
          f"{structure.arm_count} arms)")
    return 0


# the agents of every reference experiment but fig3c, which runs ASAE at eta 0.01
_AGENTS = [{"algorithm": "sae", "alpha": 2.0, "beta": 1.0},
           {"algorithm": "asae", "alpha": 2.0, "beta": 1.0, "eta": 0.1},
           {"algorithm": "sucb", "alpha": 2.0}, {"algorithm": "ucb1", "alpha": 2.0}]

# The reference experiments, figure id -> row.  "config" is the run config,
# as `run --config` reads it, at full scale, and "desk_runs" its run count at
# desk scale where that is smaller.  "source" is the manifest's structure
# source where it is not the builder's name.  "checks" are _check's
# arguments, and "fig4" labels the row's pull tables in fig4/.
SUITE = {
    "fig3a": {"config": {"structure": {"builder": "figure_left"}, "agents": _AGENTS,
                         "horizon": 10000, "runs": 100},
              "checks": (("regret", "asae", "sucb"), ("regret", "sae", "sucb"),
                         ("regret", "sucb", "ucb1")), "fig4": "fig4a"},
    # sae keeps arm 2 to its 1179-pull target here, so its regret does not
    # undercut ucb1's; the structure shows in how soon it drops arm 1
    "fig3b": {"config": {"structure": {"builder": "figure_left", "informative_arm2": False},
                         "agents": _AGENTS, "horizon": 10000, "runs": 100},
              "source": "figure_left_noninformative",
              "checks": (("regret", "sucb", "sae"), ("pulls", "sae", "ucb1", 1)), "fig4": "fig4b"},
    # model 2 is optimistic for arm 3, so sucb may pull it in a few runs
    "fig3c": {"config": {"structure": {"builder": "figure_right"},
                         "agents": [{"algorithm": "sae", "alpha": 2.0, "beta": 1.0},
                                    {"algorithm": "asae", "alpha": 2.0, "beta": 1.0, "eta": 0.01},
                                    {"algorithm": "sucb", "alpha": 2.0},
                                    {"algorithm": "ucb1", "alpha": 2.0}],
                         "horizon": 500000, "runs": 100},
              "desk_runs": 25,
              "checks": (("regret", "asae", "sucb"), ("regret", "sae", "sucb"),
                         ("unpulled", "sucb", 3), ("pulls", "sucb", "asae", 3)), "fig4": "fig4c"},
    "fig3d": {"config": {"structure": {"builder": "random"}, "fresh_structure_per_run": True,
                         "agents": _AGENTS, "horizon": 10000, "runs": 100},
              "checks": (("regret", "asae", "sucb"),)},
}


def _check(batch: BatchResult, kind: str, *args) -> tuple[str, bool]:
    """One suite check's line and verdict.  ("regret", low, high) and
    ("pulls", low, high, arm) want low's interval (mean +/- half-width) of the
    final regret, or of pulls of arm, wholly below high's; ("unpulled",
    agent, arm) wants arm unpulled in most of agent's runs."""
    if kind == "unpulled":
        tag, arm = args
        runs = batch.runs[tag]
        unpulled = sum(run.pull_counts[arm] == 0 for run in runs)
        return (f"{tag} leaves arm {arm} unpulled in most runs ({unpulled}/{len(runs)})",
                2 * unpulled > len(runs))
    low, high, *arm = args
    (low_mean, low_half), (high_mean, high_half) = [
        (a.mean_pulls[arm[0]], a.pulls_half_width[arm[0]]) if arm
        else (a.mean_regret[-1], a.regret_half_width[-1])
        for a in (batch.aggregates[low], batch.aggregates[high])]
    what = f"pulls of arm {arm[0]}: {low} < {high}" if arm else f"regret({low}) < regret({high})"
    return f"{what} with separated CIs", low_mean + low_half < high_mean - high_half


def cmd_paper_suite(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    _out_path(args.out, True)
    checks: list[tuple[str, str, bool]] = []
    for figure, row in SUITE.items():
        config = dict(row["config"])
        if args.scale == "desk":
            config["runs"] = row.get("desk_runs", config["runs"])
        print(f"running {figure} ({config['structure']['builder']}, n={config['horizon']}, "
              f"{config['runs']} runs) ...", flush=True)
        batch = _run_config(config, args.workers, args.seed, row.get("source"))
        out = os.path.join(args.out, figure)
        write_batch(out, batch)
        checks += [(figure, *_check(batch, *check)) for check in row["checks"]]
        if "fig4" in row:
            os.makedirs(os.path.join(args.out, "fig4"), exist_ok=True)
            for tag in batch.aggregates:
                shutil.copyfile(os.path.join(out, f"{tag}_pulls.csv"),
                                os.path.join(args.out, "fig4", f"{row['fig4']}_{tag}_pulls.csv"))
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
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.set_defaults(func=cmd_run)

    p_theory = sub.add_parser("theory", help="evaluate regret bounds and elimination tables")
    p_theory.add_argument("--structure", required=True, help="structure file path")
    p_theory.add_argument("--bound", action="append",
                          choices=("sae", "asae", "const", "sucb", "ucb", "lower"))
    p_theory.add_argument("--sequences", action="store_true",
                          help="emit the deterministic elimination tables")
    p_theory.add_argument("--alpha", type=float, default=2.0)
    p_theory.add_argument("--beta", type=float, default=1.0,
                          help="--bound sae and --sequences need it above 1")
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
    for flag in ("--seed", "--arms", "--base-models", "--hard-models"):
        p_gen.add_argument(flag, type=int, dest=_GEN_FLAGS[flag], help="random builder")
    for flag in ("--optimistic-scale", "--shrink-factor"):
        p_gen.add_argument(flag, type=float, dest=_GEN_FLAGS[flag], help="random builder")
    p_gen.add_argument("--no-informative-arm2", action="store_const", const=False,
                       dest="informative_arm2",
                       help="figure_left variant with a flat middle arm")
    p_gen.add_argument("--arm1-fourth", type=float, dest="arm1_fourth_model",
                       help="figure_right arm-1 mean in the fourth model")
    p_gen.set_defaults(func=cmd_gen)

    p_suite = sub.add_parser("paper-suite", help="regenerate the reference experiments")
    p_suite.add_argument("--out", default="paper_suite")
    p_suite.add_argument("--scale", choices=("desk", "full"), default="desk")
    p_suite.add_argument("--workers", type=int, default=1)
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
