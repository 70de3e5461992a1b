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
file, a state file nested past the recursion limit, or ``verify``
comparing two pair values nested past it.

A command runs with the cyclic garbage collector off, as none leaves cyclic
garbage; ``main`` restores the caller's setting however it exits.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .chor_semantics import cc_enabled, cc_moves
from .choreography import END, format_path, program_wf_dec
from .labels import forget, rich_text, step_json, transition_text
from .proc_semantics import sp_moves
from .projection import EppFailure, epp
from .surface import (
    ParseError, SourceFile, parse_cc_file, parse_sp_file, print_behaviour,
    print_chor, print_sp,
)
from .values import EMPTY_STATE, State, state_from_json, state_to_json, value_text
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
    report = program_wf_dec(source.program)
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
    result = epp(source.program)
    if isinstance(result, EppFailure):
        where = _span(source, result.scope, result.diagnostic.path)
        print(f"error: {result}{where}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(args.path).with_suffix(".sp")
    out.write_text(print_sp(result), encoding="utf-8")
    # json.dumps(manifest, indent=2, sort_keys=True)'s text; that encoder leaves cycles.
    manifest = sorted((f"{name}@{proc}", print_behaviour(body))
                      for (name, proc), body in result.defs.items())
    shown = ",\n".join(f"  {_quote(key)}: {_quote(text)}" for key, text in manifest)
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    manifest_path.write_text(f"{{\n{shown}\n}}\n" if manifest else "{}\n", encoding="utf-8")
    print(f"wrote {out} and {manifest_path}")
    return 0


def _drive(args, term, moves, terminated) -> int:
    """Run from ``term`` until no transition is enabled or ``--max-steps``
    have been taken, printing each step and the final status and state.

    ``moves(term, state)`` iterates over the enabled transitions as moves,
    each building its (rich label, term, state) when called, so only the one
    taken is built.  The first scheduler pulls one move, so the walk stops
    there; the random one lists them all.  ``terminated(term)`` tells a
    finished term from a stuck one.
    """
    state = _initial_state(args)
    rng = random.Random(args.seed)
    for _ in range(args.max_steps):
        if args.scheduler == "random":
            enabled = list(moves(term, state))
            move = enabled and enabled[rng.randrange(len(enabled))]
        else:
            move = next(iter(moves(term, state)), None)
        if not move:
            break
        rich, term, state = move()
        print(step_json(rich) if args.format == "json" else transition_text(forget(rich)))
    status = ("terminated" if terminated(term) else
              "stuck" if next(iter(moves(term, state)), None) is None else "bound")
    # json.dumps's text, written by ``write``, which no nesting of pairs stops.
    shown = ", ".join(f"{_quote(key)}: {value_text(value, '[]')}"
                      for key, value in state_to_json(state).items())
    if args.format == "json":
        print(f'{{"status": "{status}", "state": {{{shown}}}}}')
    else:
        print(f"{status}; state {{{shown}}}")
    return 0


def cmd_run(args) -> int:
    program = _load_cc(args).program
    return _drive(args, program.main, partial(cc_moves, program.defs), lambda chor: chor == END)


def cmd_simulate(args) -> int:
    program = parse_sp_file(Path(args.path).read_text(encoding="utf-8")).program
    return _drive(args, program.network, partial(sp_moves, program.defs),
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
    program = _load_cc(args).program
    state = _initial_state(args)
    try:
        reports = check_property(args.property, program, state, args.depth)
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


@cache  # built on first use, not at import; parse_args keeps no state in it
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

    for name in ("run", "simulate"):
        p = sub.add_parser(name, help=f"{name} and print the trace")
        p.add_argument("path")
        common(p, "json")
        p.add_argument("--scheduler", choices=("first", "random"), default="first")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=100)

    p = sub.add_parser("step", help="interactive stepping")
    p.add_argument("path")
    p.add_argument("--state", help="initial state as a JSON file")

    p = sub.add_parser("verify", help="bounded verification")
    p.add_argument("path")
    common(p, "json")
    p.add_argument("--property", choices=(*_CHECKS, "all"), default="all")
    p.add_argument("--depth", type=int, default=10)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # load and print naturals of any size
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
        # Two causes are left to CPython, which recurses in C: == on two pair
        # values nested past the limit, which verify makes, and json.load of
        # a --state file nested past it.
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
