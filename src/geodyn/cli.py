"""Command line entry point.

    geodyn run <config-or-builtin> [--out DIR] [--grid N] [--seed S]
    geodyn validate <config>
    geodyn list-builtins

<config-or-builtin> is a path to a geodyn-config-v1 JSON file, or the name
of a builtin scenario.  run writes report.txt plus one CSV per task into
--out (default: the working directory); CSV files contain no timings and use
17-significant-digit floats, so identical config and seed reproduce them
byte for byte.  A task whose evaluation raised an arithmetic or value error
fails with the reason in report.txt and writes no CSV.
"""

from __future__ import annotations

import argparse
import os
import sys

from .action import CUTOFF_BUILTINS
from .config import BUILTIN_TRIPLES, ConfigError, load_config, validate_config
from .library import BUILTIN_FRAMES
from .scenarios import BUILTIN_SCENARIOS, builtin_config, format_csv, run_scenario

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodyn",
        description="Generalized-geometry scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write artifacts")
    run_p.add_argument("config", help="config file path or builtin scenario name")
    run_p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (default: current directory)")
    run_p.add_argument("--grid", type=int, default=None, metavar="N",
                       help="override grid resolution on every axis")
    run_p.add_argument("--seed", type=int, default=0, metavar="S",
                       help="seed for randomized oracle checks (default 0)")

    val_p = sub.add_parser("validate", help="check a config, print diagnostics")
    val_p.add_argument("config", help="config file path or builtin scenario name")

    sub.add_parser("list-builtins", help="list scenarios, frames, cutoffs, triples")
    return parser


def _resolve_config(arg: str):
    """(name, config, diagnostics); builtin names win over file paths."""
    if arg in BUILTIN_SCENARIOS:
        return arg, builtin_config(arg), []
    obj, diags = load_config(arg)
    name = os.path.splitext(os.path.basename(arg))[0]
    return name, obj, diags


def _cmd_run(args) -> int:
    name, obj, diags = _resolve_config(args.config)
    try:
        if obj is None:
            raise ConfigError(diags)
        report = run_scenario(obj, name=name, seed=args.seed,
                              grid_override=args.grid)
    except ConfigError as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    for result in report.results:
        if not result.columns:  # the task's evaluation raised; see run_scenario
            continue
        path = os.path.join(args.out, result.csv_name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_csv(result))
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text() + "\n")
    print(report.to_text())
    return 0 if report.all_passed() else 1


def _cmd_validate(args) -> int:
    name, obj, diags = _resolve_config(args.config)
    if obj is not None:
        diags = diags + validate_config(obj)
    if diags:
        for d in diags:
            print(d)
        print(f"{len(diags)} problem(s) found")
        return 2
    print(f"{name}: valid, 0 diagnostics")
    return 0


def _cmd_list_builtins() -> int:
    for title, names in (("scenarios", BUILTIN_SCENARIOS), ("frames", BUILTIN_FRAMES),
                         ("cutoffs", CUTOFF_BUILTINS),
                         ("finite triples", BUILTIN_TRIPLES)):
        print(f"{title}:")
        for name in sorted(names):
            print(f"  {name}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_list_builtins()


if __name__ == "__main__":
    sys.exit(main())
