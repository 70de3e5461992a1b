"""The three workloads: their inputs, their operations and the output checks.

An operation ("op") is one ``chorus`` command line run in-process.  Every
op carries the reference it is checked against, which comes from ``gen``
and never from ``chorus`` itself.

* ``verify_corpus``: ``verify --property all`` on random projectable
  programs, on k disjoint pairs and on run-ahead pipelines, at depth 14
  (see README.md for why that depth).  Configurations are revisited by the
  meta-check passes and the two projection games; parsing and the first
  projection are a negligible share.
* ``project_scale``: ``check`` then ``project`` on straight-line, wide and
  procedure-chain programs at doubling sizes, plus chain variants that must
  be rejected.  This is the compile path; nothing is explored.  The largest
  straight-line size lies past the recursion limit of projection.
* ``run_scale``: ``run`` with both schedulers and ``simulate`` on the
  reference projection, for straight-line, wide and counter-loop programs.
  Every configuration is visited once along one path; the largest
  straight-line size lies past the recursion limit of parsing.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import gen
import spcheck

WORKLOADS = ("verify_corpus", "project_scale", "run_scale")

VERIFY_DEPTH = 14
VERIFY_RANDOM = 22
VERIFY_COPIES = "ab"  # two inputs of each structured size
PROPERTIES = ("complete", "sound", "determinism", "diamond", "progress", "termination_unique")

# Family sizes; the first of each list is the smoke size.
SIZES = {
    "verify_corpus": {"pairs": (4, 5, 6, 7, 8), "runahead": (2, 3, 4, 5)},
    "project_scale": {"straight": (38, 75, 150, 300, 600), "wide": (4, 8, 16, 32, 64),
                      "chain": (2, 4, 8, 16, 32), "chain_bad": (2, 4, 8, 16, 32)},
    "run_scale": {"straight": (100, 200, 400, 1000), "wide": (4, 8, 16, 32, 64),
                  "loop": (25, 50, 100, 200, 400)},
}


@dataclass
class Op:
    """One command line and what its outcome must be."""

    index: int
    inp: gen.Input
    argv: List[str]
    expect_exit: int
    mode: str  # how to check the output; see ``_check_output``
    out_path: Optional[Path] = None

    @property
    def command(self) -> str:
        return self.argv[0]


def make_inputs(workload: str, seed: int, smoke: bool = False) -> List[gen.Input]:
    """The workload's inputs for ``seed``; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = {fam: (s[:1] if smoke else s) for fam, s in SIZES[workload].items()}
    out: List[gen.Input] = []
    if workload == "verify_corpus":
        out += [gen.random_program(rng, i) for i in range(2 if smoke else VERIFY_RANDOM)]
        for copy in VERIFY_COPIES:
            structured = ([gen.wide(rng, k, "pairs") for k in sizes["pairs"]]
                          + [gen.runahead(rng, s) for s in sizes["runahead"]])
            for inp in structured:
                inp.name += copy
            out += structured
    elif workload == "project_scale":
        out += [gen.straight(rng, n) for n in sizes["straight"]]
        out += [gen.wide(rng, k) for k in sizes["wide"]]
        out += [gen.chain(rng, k) for k in sizes["chain"]]
        out += [gen.chain(rng, k, unprojectable=True) for k in sizes["chain_bad"]]
    elif workload == "run_scale":
        out += [gen.straight(rng, n) for n in sizes["straight"]]
        out += [gen.wide(rng, k) for k in sizes["wide"]]
        out += [gen.loop(rng, n) for n in sizes["loop"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def make_ops(workload: str, inputs: List[gen.Input], workdir: Path, seed: int) -> List[Op]:
    """Write the inputs under ``workdir`` and list the ops, each input once."""
    ops: List[Op] = []

    def add(inp, argv, expect_exit, mode, out_path=None):
        ops.append(Op(len(ops), inp, argv, expect_exit, mode, out_path))

    for inp in inputs:
        cc = workdir / f"{inp.name}.cc"
        cc.write_text(inp.cc_text, encoding="utf-8")
        if workload == "verify_corpus":
            add(inp, ["verify", str(cc), "--property", "all", "--format", "json",
                      "--depth", str(VERIFY_DEPTH)], 0, "verify")
        elif workload == "project_scale":
            add(inp, ["check", str(cc)], 0, "check")
            out = workdir / f"{inp.name}.out.sp"
            projectable = inp.sp_text is not None
            add(inp, ["project", str(cc), "--out", str(out)], 0 if projectable else 1,
                "project" if projectable else "reject", out)
        else:
            sp = workdir / f"{inp.name}.sp"
            sp.write_text(inp.sp_text, encoding="utf-8")
            steps = str(inp.run_ref.steps + 10)
            add(inp, ["run", str(cc), "--max-steps", steps], 0, "sequence")
            add(inp, ["run", str(cc), "--max-steps", steps, "--scheduler", "random",
                      "--seed", str(seed)], 0, "multiset")
            add(inp, ["simulate", str(sp), "--max-steps", steps], 0, "multiset")
    return ops


# --------------------------------------------------------------------------
# Output checks

def _label_key(label: dict) -> tuple:
    kind = label.get("kind")
    if kind == "com":
        return ("com", label["from"], label["to"], label["value"])
    if kind == "sel":
        return ("sel", label["from"], label["to"], label["sel"])
    return ("tau", label["at"])


def check(op: Op, code, out: str, err: str) -> Tuple[bool, bool, str, int]:
    """(ok, wrong, reason, work) for an op that returned an exit code.

    ``wrong`` marks a definite wrong answer: the expected exit code with the
    wrong output, or a verdict (exit 0 or 1) opposite to the reference.
    Other failures, such as exit 2 on a valid input, are failures without
    being wrong answers.
    """
    if code != op.expect_exit:
        wrong = code in (0, 1) and op.expect_exit in (0, 1)
        said = (err.strip() or out.strip())[:120]
        return False, wrong, f"exit {code}, expected {op.expect_exit}: {said}", 0
    try:
        reason, work = _check_output(op, out, err)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        reason, work = f"unreadable output: {type(exc).__name__}: {exc}", 0
    return reason == "", reason != "", reason, work


def _check_output(op: Op, out: str, err: str) -> Tuple[str, int]:
    inp = op.inp
    if op.mode == "check":
        return ("" if out == "ok\n" else f"check printed {out[:60]!r}"), 0
    if op.mode == "reject":
        return ("" if "cannot project" in err else f"no projection diagnostic: {err[:80]!r}"), 0
    if op.mode == "project":
        got = spcheck.parse_sp(op.out_path.read_text(encoding="utf-8"))
        ref = spcheck.parse_sp(inp.sp_text)
        if got != ref:
            return "projection differs from the reference", 0
        manifest_path = op.out_path.with_suffix(op.out_path.suffix + ".manifest.json")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if set(manifest) != {f"{name}@{proc}" for name, proc in ref[0]}:
            return "manifest lists other procedure copies", 0
        return "", inp.interactions
    if op.mode == "verify":
        reports = json.loads(out)
        names = tuple(r["property"] for r in reports)
        if names != PROPERTIES:
            return f"reports for {names}", 0
        failed = [r["property"] for r in reports if r["verdict"] != "pass"]
        if failed:
            return f"properties failed: {failed}", 0
        nodes = {r["property"]: r["nodes"] for r in reports}
        explored = {nodes[p] for p in PROPERTIES[2:]}
        if len(explored) != 1:
            return f"meta-checks explored different graphs: {nodes}", 0
        configs = nodes["determinism"]
        if inp.family == "pairs" and VERIFY_DEPTH >= inp.size and configs != 2 ** inp.size:
            return f"{configs} configurations, expected {2 ** inp.size}", 0
        return "", configs
    # run / simulate: step lines, then the final line.
    lines = out.splitlines()
    final = json.loads(lines[-1])
    if final.get("status") != "terminated":
        return f"status {final.get('status')!r}", 0
    if final.get("state") != inp.run_ref.state:
        return "final state differs from the reference", 0
    labels = [_label_key(json.loads(line)["label"]) for line in lines[:-1]]
    ref = inp.run_ref.labels
    if op.mode == "sequence" and labels != ref:
        return "trace differs from the reference order", 0
    if op.mode == "multiset" and Counter(labels) != Counter(ref):
        return "trace labels differ from the reference", 0
    return "", len(labels)
