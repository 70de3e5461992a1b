"""Command-line entry point.

Commands::

    chorus check    FILE.cc              well-formedness with diagnostics
    chorus project  FILE.cc [--out OUT]  endpoint projection to OUT(.sp) + manifest
    chorus run      FILE.cc              execute a choreography, print the trace
    chorus step     FILE.cc              interactive stepping
    chorus simulate FILE.sp              execute a network, print the trace
    chorus verify   FILE.cc --property P bounded verification, JSON report

Exit codes: 0 on success, 1 when an analysis rejects the input or a
verified property fails, 2 on parse or usage errors, a malformed state
file, or an input nested past the recursion limit.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .chor_semantics import cc_enabled
from .choreography import END, UsedProceduresViolated, format_path, program_wf_dec
from .labels import forget, rich_text, rich_to_json, transition_text, transition_to_json
from .proc_semantics import sp_enabled
from .projection import EppFailure, epp
from .surface import (
    ParseError, SourceFile, parse_cc_file, parse_sp_file, print_behaviour,
    print_chor, print_sp,
)
from .values import EMPTY_STATE, State, state_from_json, state_to_json
from .verification import _CHECKS, NotStronglyProjectable, check_property


def _initial_state(args) -> State:
    if args.state is None:
        return EMPTY_STATE
    with open(args.state, encoding="utf-8") as handle:
        return state_from_json(json.load(handle))


def _load_cc(args) -> SourceFile:
    return parse_cc_file(Path(args.path).read_text(encoding="utf-8"))


def _span(source: SourceFile, scope: str, path) -> str:
    """`` (span)`` of the node at ``path`` under ``scope``, or ``""``."""
    root = ("main",) if scope == "main" else ("proc", scope)
    span = source.span_at(root + path) if path is not None else None
    return f" ({span})" if span else ""


def cmd_check(args) -> int:
    source = _load_cc(args)
    try:
        report = program_wf_dec(source.program, source.def_names)
    except UsedProceduresViolated as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report.to_json()))
    elif report.ok:
        print("ok")
    else:
        where = "main" if report.scope == "main" else f"procedure {report.scope}"
        at = f" at {format_path(report.path)}" + _span(source, report.scope, report.path)
        print(f"error: clause {report.clause} violated in {where}{at}: {report.detail}")
    return 0 if report.ok else 1


def cmd_project(args) -> int:
    source = _load_cc(args)
    result = epp(source.program, source.def_names)
    if isinstance(result, EppFailure):
        where = _span(source, result.scope, result.diagnostic.path)
        print(f"error: {result}{where}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(args.path).with_suffix(".sp")
    out.write_text(print_sp(result), encoding="utf-8")
    manifest = {f"{name}@{proc}": print_behaviour(body)
                for (name, proc), body in result.defs.items()}
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {out} and {manifest_path}")
    return 0


def _drive(args, term, enabled, terminated) -> int:
    """Run from ``term`` until no transition is enabled or ``--max-steps``
    have been taken, printing each step and the final status and state.

    ``enabled(term, state)`` lists (rich label, term, state) transitions;
    ``terminated(term)`` tells a finished term from a stuck one.
    """
    state = _initial_state(args)
    rng = random.Random(args.seed)
    for _ in range(args.max_steps):
        steps = enabled(term, state)
        if not steps:
            break
        pick = rng.randrange(len(steps)) if args.scheduler == "random" else 0
        rich, term, state = steps[pick]
        label = forget(rich)
        if args.format == "json":
            print(json.dumps({"label": transition_to_json(label), "rich": rich_to_json(rich)}))
        else:
            print(transition_text(label))
    status = ("terminated" if terminated(term) else
              "stuck" if not enabled(term, state) else "bound")
    if args.format == "json":
        print(json.dumps({"status": status, "state": state_to_json(state)}))
    else:
        print(f"{status}; state {json.dumps(state_to_json(state))}")
    return 0


def cmd_run(args) -> int:
    program = _load_cc(args).program
    return _drive(args, program.main,
                  lambda chor, state: cc_enabled(program.defs, chor, state),
                  lambda chor: chor == END)


def cmd_simulate(args) -> int:
    program = parse_sp_file(Path(args.path).read_text(encoding="utf-8")).program
    return _drive(args, program.network,
                  lambda network, state: sp_enabled(program.defs, network, state),
                  lambda network: not network.support())


def cmd_step(args) -> int:
    source = _load_cc(args)
    state = _initial_state(args)
    chor = source.program.main
    defs = source.program.defs
    while True:
        enabled = cc_enabled(defs, chor, state)
        if not enabled:
            print("no transitions enabled; done")
            break
        for index, (rich, _, _) in enumerate(enabled):
            print(f"  [{index}] {rich_text(rich)}")
        try:
            line = input("step> ").strip()
        except EOFError:
            break
        if line in ("q", "quit", ""):
            break
        try:
            pick = int(line)
            if pick < 0:
                raise IndexError(pick)
            rich, chor, state = enabled[pick]
        except (ValueError, IndexError):
            print("enter one of the listed indices, or q to quit")
            continue
        print(f"-- {rich_text(rich)}")
        print(print_chor(chor))
    return 0


def cmd_verify(args) -> int:
    source = _load_cc(args)
    state = _initial_state(args)
    try:
        reports = check_property(args.property, source.program, state,
                                 args.depth, source.def_names)
    except NotStronglyProjectable as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for report in reports:
            print(f"{report.property_name}: {report.verdict} ({report.nodes} configurations)")
            if not report.passed:
                print(f"  {report.detail}")
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "check": cmd_check,
    "project": cmd_project,
    "run": cmd_run,
    "simulate": cmd_simulate,
    "step": cmd_step,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chorus",
                                     description="choreographic programming toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt, state=True):
        if state:
            p.add_argument("--state", help="initial state as a JSON file")
        p.add_argument("--format", choices=("text", "json"), default=fmt)

    p = sub.add_parser("check", help="well-formedness diagnostics")
    p.add_argument("path")
    common(p, "text", state=False)

    p = sub.add_parser("project", help="endpoint projection")
    p.add_argument("path")
    p.add_argument("--out", help="output .sp path")
    common(p, "text", state=False)

    for name in ("run", "simulate"):
        p = sub.add_parser(name, help=f"{name} and print the trace")
        p.add_argument("path")
        common(p, "json")
        p.add_argument("--scheduler", choices=("first", "random"), default="first")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=100)

    p = sub.add_parser("step", help="interactive stepping")
    p.add_argument("path")
    common(p, "text")

    p = sub.add_parser("verify", help="bounded verification")
    p.add_argument("path")
    common(p, "json")
    p.add_argument("--property", choices=(*_CHECKS, "all"), default="all")
    p.add_argument("--depth", type=int, default=10)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if any(getattr(args, bound, 0) < 0 for bound in ("depth", "max_steps")):
            raise ValueError("depth and max-steps must be nonnegative")
        return _COMMANDS[args.command](args)
    except ParseError as err:
        print(f"{args.path}:{err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the trace early (e.g. piped into head).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # verify's search hashes each configuration, and merge, cc_step and
        # print_chor recurse, once per interaction; deeper inputs are rejected.
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
