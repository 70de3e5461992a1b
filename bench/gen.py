"""Seeded inputs and references for the chorus benchmark.

This module never imports ``chorus``: the workloads must not move when the
toolkit (or its own random generator) changes.  Programs are built as small
tuple trees, printed as ``.cc`` text, projected by a reference endpoint
projection written here, printed as ``.sp`` text, and executed by a
reference interpreter that gives the final state, the step count and the
observable labels of any complete run.

Tree shapes (all tuples, hashable):

* expression: ``("lit", n)``, ``("var", x)``, ``("succ", e)``, ``("plus", e, e)``
* guard: ``("le", e, e)``, ``("eq", e, e)``, ``("not", g)``, ``("and", g, g)``
* choreography: ``(actions, tail)`` with actions ``("com", s, e, r, x)`` or
  ``("sel", s, r, label)`` and tail ``("end",)``, ``("call", X)`` or
  ``("if", p, guard, chor, chor)``
* behaviour: ``(prefixes, term)`` with prefixes ``("send", peer, e)``,
  ``("recv", peer, x)`` or ``("choose", peer, label)`` and term ``("end",)``,
  ``("call", X, p)``, ``("cond", guard, beh, beh)`` or
  ``("branch", peer, beh_or_None, beh_or_None)``
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

END = ("end",)
B_END = ((), END)


class Unprojectable(Exception):
    """The reference projection found two branches that do not merge."""


@dataclass
class Program:
    defs: Dict[str, Tuple[Tuple[str, ...], tuple]]
    main: tuple

    def processes(self) -> Tuple[str, ...]:
        out = set(_chor_procs(self.main, self.defs))
        for procs, _ in self.defs.values():
            out |= set(procs)
        return tuple(sorted(out))


@dataclass
class Input:
    """One generated program with everything the checks need."""

    name: str
    family: str
    size: int  # the family's scaling parameter
    program: Program
    interactions: int = 0  # com and sel statements in the source
    cc_text: str = ""
    sp_text: Optional[str] = None  # reference projection; None if unprojectable
    run_ref: Optional["RunRef"] = None


@dataclass
class RunRef:
    steps: int
    labels: List[tuple]  # observable labels in head-first order
    state: Dict[str, int]

    def stores(self, process: str) -> Dict[str, int]:
        prefix = process + "."
        return {k[len(prefix):]: v for k, v in self.state.items() if k.startswith(prefix)}


# --------------------------------------------------------------------------
# Printing choreographies

def print_expr(expr) -> str:
    kind = expr[0]
    if kind == "lit":
        return str(expr[1])
    if kind == "var":
        return expr[1]
    if kind == "succ":
        return f"succ({print_expr(expr[1])})"
    right = print_expr(expr[2])
    if expr[2][0] == "plus":
        right = f"({right})"
    return f"{print_expr(expr[1])} + {right}"


def print_guard(guard) -> str:
    kind = guard[0]
    if kind == "le":
        return f"{print_expr(guard[1])} <= {print_expr(guard[2])}"
    if kind == "eq":
        return f"{print_expr(guard[1])} == {print_expr(guard[2])}"
    if kind == "not":
        return f"!({print_guard(guard[1])})"
    right = print_guard(guard[2])
    if guard[2][0] == "and":
        right = f"({right})"
    return f"{print_guard(guard[1])} && {right}"


def _chor_lines(chor, indent: int, out: List[str]) -> None:
    # Iterative over action sequences, recursive only into branches.
    pad = "  " * indent
    actions, tail = chor
    for act in actions:
        if act[0] == "com":
            out.append(f"{pad}{act[1]}.{print_expr(act[2])} -> {act[3]}.{act[4]};")
        else:
            out.append(f"{pad}{act[1]} -> {act[2]}[{act[3]}];")
    if tail[0] == "end":
        out.append(pad + "end")
    elif tail[0] == "call":
        out.append(f"{pad}call {tail[1]}")
    else:
        out.append(f"{pad}if {tail[1]}.{print_guard(tail[2])} then {{")
        _chor_lines(tail[3], indent + 1, out)
        out.append(pad + "} else {")
        _chor_lines(tail[4], indent + 1, out)
        out.append(pad + "}")


def print_cc(program: Program) -> str:
    lines: List[str] = []
    for name, (procs, body) in program.defs.items():
        lines.append(f"def {name}({', '.join(procs)}) {{")
        _chor_lines(body, 1, lines)
        lines.append("}")
    lines.append("main {")
    _chor_lines(program.main, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def count_interactions(program: Program) -> int:
    def count(chor) -> int:
        actions, tail = chor
        n = len(actions)
        if tail[0] == "if":
            n += count(tail[3]) + count(tail[4])
        return n
    return count(program.main) + sum(count(body) for _, body in program.defs.values())


def _chor_procs(chor, defs) -> set:
    out = set()
    actions, tail = chor
    for act in actions:
        out.add(act[1])
        out.add(act[3] if act[0] == "com" else act[2])
    if tail[0] == "call":
        out |= set(defs[tail[1]][0])
    elif tail[0] == "if":
        out.add(tail[1])
        out |= _chor_procs(tail[3], defs) | _chor_procs(tail[4], defs)
    return out


# --------------------------------------------------------------------------
# Reference endpoint projection

def _merge(first, second):
    """Merge two behaviours; raises ``Unprojectable`` when they differ."""
    pre_a, term_a = first
    pre_b, term_b = second
    if pre_a != pre_b:
        # Prefixes must agree one for one before the terms can merge.
        raise Unprojectable("prefixes differ")
    if term_a[0] != term_b[0]:
        raise Unprojectable(f"{term_a[0]} cannot merge with {term_b[0]}")
    kind = term_a[0]
    if kind in ("end", "call"):
        if term_a != term_b:
            raise Unprojectable("procedure copies differ")
        return first
    if kind == "cond":
        if term_a[1] != term_b[1]:
            raise Unprojectable("guards differ")
        return pre_a, ("cond", term_a[1], _merge(term_a[2], term_b[2]),
                       _merge(term_a[3], term_b[3]))
    if term_a[1] != term_b[1]:
        raise Unprojectable("branching sources differ")
    slots = []
    for x, y in ((term_a[2], term_b[2]), (term_a[3], term_b[3])):
        slots.append(x if y is None else y if x is None else _merge(x, y))
    return pre_a, ("branch", term_a[1], slots[0], slots[1])


def project_chor(chor, process: str, defs) -> tuple:
    actions, tail = chor
    if tail[0] == "end":
        rest = B_END
    elif tail[0] == "call":
        rest = ((), ("call", tail[1], process)) if process in defs[tail[1]][0] else B_END
    else:
        then_b = project_chor(tail[3], process, defs)
        else_b = project_chor(tail[4], process, defs)
        if process == tail[1]:
            rest = ((), ("cond", tail[2], then_b, else_b))
        else:
            rest = _merge(then_b, else_b)
    # Walk the actions backwards; a selection received nests the rest.
    prefixes, term = list(rest[0]), rest[1]
    acc: List[tuple] = []  # prefixes in reverse order
    acc.extend(reversed(prefixes))
    for act in reversed(actions):
        if act[0] == "com":
            _, s, e, r, x = act
            if process == s:
                acc.append(("send", r, e))
            elif process == r:
                acc.append(("recv", s, x))
        else:
            _, s, r, label = act
            if process == s:
                acc.append(("choose", r, label))
            elif process == r:
                inner = (tuple(reversed(acc)), term)
                term = ("branch", s, inner, None) if label == "left" else ("branch", s, None, inner)
                acc = []
    return tuple(reversed(acc)), term


def project(program: Program) -> Tuple[Dict[Tuple[str, str], tuple], Dict[str, tuple]]:
    """(defs, network) of the projection, both without ``end`` entries."""
    network = {}
    for p in program.processes():
        beh = project_chor(program.main, p, program.defs)
        if beh != B_END:
            network[p] = beh
    defs = {}
    for name, (procs, body) in program.defs.items():
        for p in procs:
            beh = project_chor(body, p, program.defs)
            if beh != B_END:
                defs[(name, p)] = beh
    return defs, network


def print_behaviour(beh) -> str:
    parts = []
    prefixes, term = beh
    for pre in prefixes:
        if pre[0] == "send":
            parts.append(f"{pre[1]}!{print_expr(pre[2])}; ")
        elif pre[0] == "recv":
            parts.append(f"{pre[1]}?{pre[2]}; ")
        else:
            parts.append(f"{pre[1]}(+){pre[2]}; ")
    kind = term[0]
    if kind == "end":
        parts.append("end")
    elif kind == "call":
        parts.append(f"call {term[1]}@{term[2]}")
    elif kind == "cond":
        parts.append(f"if {print_guard(term[1])} then {{ {print_behaviour(term[2])} }} "
                     f"else {{ {print_behaviour(term[3])} }}")
    else:
        slots = [f"{label}: {print_behaviour(b)}"
                 for label, b in (("left", term[2]), ("right", term[3])) if b is not None]
        parts.append(f"{term[1]} & {{{' | '.join(slots)}}}")
    return "".join(parts)


def print_sp(defs, network) -> str:
    lines = [f"def {name}@{p} {{ {print_behaviour(b)} }}" for (name, p), b in sorted(defs.items())]
    if lines:
        lines.append("")
    procs = sorted(network.items()) or [("p0", B_END)]
    lines.append("\n| ".join(f"{p}[{print_behaviour(b)}]" for p, b in procs))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Reference interpreter (head-first order, joins in process-name order)

def eval_expr(expr, store: Dict[str, int]) -> int:
    kind = expr[0]
    if kind == "lit":
        return expr[1]
    if kind == "var":
        return store.get(expr[1], 0)
    if kind == "succ":
        return eval_expr(expr[1], store) + 1
    return eval_expr(expr[1], store) + eval_expr(expr[2], store)


def eval_guard(guard, store) -> bool:
    kind = guard[0]
    if kind == "le":
        return eval_expr(guard[1], store) <= eval_expr(guard[2], store)
    if kind == "eq":
        return eval_expr(guard[1], store) == eval_expr(guard[2], store)
    if kind == "not":
        return not eval_guard(guard[1], store)
    return eval_guard(guard[1], store) and eval_guard(guard[2], store)


def interpret(program: Program, max_steps: int = 10 ** 6) -> RunRef:
    """Run to ``End``; every complete run has these labels up to order."""
    stores: Dict[str, Dict[str, int]] = {}
    labels: List[tuple] = []
    chor = program.main
    while True:
        actions, tail = chor
        for act in actions:
            if act[0] == "com":
                _, s, e, r, x = act
                value = eval_expr(e, stores.get(s, {}))
                stores.setdefault(r, {})[x] = value
                labels.append(("com", s, r, value))
            else:
                labels.append(("sel", act[1], act[2], act[3]))
        if len(labels) > max_steps:
            raise ValueError("reference run does not terminate")
        if tail[0] == "end":
            break
        if tail[0] == "call":
            procs, body = program.defs[tail[1]]
            labels.extend(("tau", p) for p in sorted(procs))
            chor = body
        else:
            _, p, guard, then_c, else_c = tail
            labels.append(("tau", p))
            chor = then_c if eval_guard(guard, stores.get(p, {})) else else_c
    state = {f"{p}.{x}": v for p, store in sorted(stores.items())
             for x, v in sorted(store.items()) if v != 0}
    return RunRef(len(labels), labels, state)


# --------------------------------------------------------------------------
# Random pieces

_VARS = ("x", "y", "z")


def _names(rng: random.Random, count: int) -> List[str]:
    """Distinct process names; the seed picks them, the count is fixed."""
    out: List[str] = []
    while len(out) < count:
        name = rng.choice("abcdefghjkmnqrstuvw") + rng.choice("aeiou") + rng.choice("klmnrst")
        if name not in out:
            out.append(name)
    return out


def _expr(rng: random.Random):
    pick = rng.randrange(4)
    if pick == 0:
        return ("lit", rng.randrange(1, 9))
    if pick == 1:
        return ("var", rng.choice(_VARS))
    if pick == 2:
        return ("succ", ("var", rng.choice(_VARS)))
    return ("plus", ("var", rng.choice(_VARS)), ("lit", rng.randrange(1, 5)))


def _guard(rng: random.Random):
    base = (rng.choice(("le", "eq")), ("var", rng.choice(_VARS)), ("lit", rng.randrange(0, 6)))
    pick = rng.randrange(3)
    if pick == 0:
        return ("not", base)
    if pick == 1:
        return ("and", base, ("le", ("lit", 0), ("var", rng.choice(_VARS))))
    return base


def _com(rng: random.Random, s: str, r: str):
    return ("com", s, _expr(rng), r, rng.choice(_VARS))


def _finish(inp: Input, runnable: bool = True, projectable: bool = True) -> Input:
    inp.cc_text = print_cc(inp.program)
    inp.interactions = count_interactions(inp.program)
    if projectable:
        inp.sp_text = print_sp(*project(inp.program))
    else:
        try:
            project(inp.program)
        except Unprojectable:
            pass
        else:
            raise AssertionError(f"{inp.name} was meant to be unprojectable")
    if runnable:
        inp.run_ref = interpret(inp.program)
    return inp


# --------------------------------------------------------------------------
# Families

def straight(rng: random.Random, n: int, tag: str = "straight") -> Input:
    """n value communications among four processes, no control flow.

    The pairs follow a fixed cycle in which every other interaction can run
    ahead of the one before it, so the cost of a size does not depend on
    the seed; the seed picks names, expressions and variables."""
    procs = _names(rng, 4)
    cycle = ((0, 1), (2, 3), (1, 2), (3, 0))
    actions = []
    for i in range(n):
        s, r = cycle[i % 4]
        actions.append(_com(rng, procs[s], procs[r]))
    program = Program({}, (tuple(actions), END))
    return _finish(Input(f"{tag}-{n}", tag, n, program))


def wide(rng: random.Random, k: int, tag: str = "wide") -> Input:
    """k disjoint pairs: every interaction is enabled at the start."""
    procs = _names(rng, 2 * k)
    actions = tuple(_com(rng, procs[2 * i], procs[2 * i + 1]) for i in range(k))
    program = Program({}, (actions, END))
    return _finish(Input(f"{tag}-{k}", tag, k, program))


def chain(rng: random.Random, k: int, unprojectable: bool = False) -> Input:
    """k procedures, each calling the next from both branches of a
    conditional at ``p``.  ``q`` is told the outcome, ``r`` is not: its
    projection is the merge of two identical, non-trivial branches.  The
    unprojectable variant gives ``r`` different sends in one procedure."""
    p, q, r = _names(rng, 3)
    defs = {}
    bad = k // 2 if unprojectable else -1
    for i in range(k):
        nxt = ("call", f"X{i + 2}") if i + 1 < k else END
        r_sends = [_expr(rng) for _ in range(3)]
        branches = []
        for label in ("left", "right"):
            acts = [("sel", p, q, label)]
            for j, e in enumerate(r_sends):
                if i == bad and label == "right" and j == 1:
                    e = ("plus", e, ("lit", 1))
                acts.append(("com", q, _expr(rng), r, _VARS[j]))
                acts.append(("com", r, e, q, rng.choice(_VARS)))
            branches.append((tuple(acts), nxt))
        body = ((_com(rng, p, q),), ("if", p, _guard(rng), branches[0], branches[1]))
        defs[f"X{i + 1}"] = ((p, q, r), body)
    program = Program(defs, ((), ("call", "X1")))
    tag = "chain_bad" if unprojectable else "chain"
    return _finish(Input(f"{tag}-{k}", tag, k, program),
                   runnable=False, projectable=not unprojectable)


def loop(rng: random.Random, iterations: int) -> Input:
    """A recursive procedure driven by a counter at ``c``: each round the
    counter goes to a worker and back incremented, with a relay on the way."""
    c, w, z = _names(rng, 3)
    limit = ("lit", iterations)
    then_acts = (("sel", c, w, "left"), ("sel", c, z, "left"),
                 ("com", c, ("var", "i"), w, "v"),
                 ("com", w, ("var", "v"), z, "y"),
                 ("com", z, ("succ", ("var", "y")), c, "i"))
    else_acts = (("sel", c, w, "right"), ("sel", c, z, "right"),
                 ("com", c, ("var", "i"), z, "y"))
    body = ((), ("if", c, ("le", ("succ", ("var", "i")), limit),
                 (then_acts, ("call", "L")), (else_acts, END)))
    program = Program({"L": ((c, w, z), body)}, ((), ("call", "L")))
    return _finish(Input(f"loop-{iterations}", "loop", iterations, program))


def runahead(rng: random.Random, stages: int) -> Input:
    """A pipeline procedure that recurses forever; the head of the pipeline
    joins the next round before the tail has finished this one."""
    procs = _names(rng, stages + 1)
    acts = tuple(_com(rng, procs[i], procs[i + 1]) for i in range(stages))
    program = Program({"R": (tuple(procs), (acts, ("call", "R")))}, ((), ("call", "R")))
    return _finish(Input(f"runahead-{stages}", "runahead", stages, program),
                   runnable=False)


def random_program(rng: random.Random, index: int) -> Input:
    """A small projectable program: random interactions among four
    processes, then a conditional whose deciding process informs the
    processes that act differently in the two branches, one of which enters
    a recursive procedure ``Y`` that never exits.

    The branch that calls ``Y`` is the one the guard selects, and ``Y``'s
    own guard always holds, so every program keeps running until the depth
    bound and no single program dominates the corpus."""
    procs = _names(rng, 4)
    a, b, c, d = procs
    always = rng.choice((("le", ("lit", 0), ("var", rng.choice(_VARS))),
                         ("not", ("eq", ("succ", ("var", rng.choice(_VARS))), ("lit", 0)))))
    # Y's two pairs work side by side, so rounds interleave and run ahead.
    y_body = ((_com(rng, a, b), _com(rng, c, d)),
              ("if", a, always,
               ((("sel", a, b, "left"), ("sel", a, c, "left"), ("sel", c, d, "left"),
                 _com(rng, b, a), _com(rng, d, c)), ("call", "Y")),
               ((("sel", a, b, "right"), ("sel", a, c, "right"), ("sel", c, d, "right")),
                END)))
    pre = tuple(_com(rng, *rng.sample(procs, 2)) for _ in range(3))
    # Every process ends differently in the two branches (only one calls
    # Y), so the decider tells the other three; the last of them sends the
    # same thing in both branches before it learns the outcome, which makes
    # its projection a real merge.
    decider = rng.choice(procs)
    informed = [p for p in procs if p != decider]
    rng.shuffle(informed)
    shared = _com(rng, informed[2], informed[0])
    guard = _guard(rng)
    taken = eval_guard(guard, interpret(Program({}, (pre, END))).stores(decider))
    branches = []
    for label in ("left", "right"):
        acts = [("sel", decider, p, label) for p in informed[:2]]
        acts.append(shared)
        acts.append(("sel", decider, informed[2], label))
        acts.append(_com(rng, informed[0], informed[1]))
        tail = ("call", "Y") if (label == "left") == taken else END
        branches.append((tuple(acts), tail))
    main = (pre, ("if", decider, guard, branches[0], branches[1]))
    program = Program({"Y": ((a, b, c, d), y_body)}, main)
    return _finish(Input(f"random-{index}", "random", 0, program), runnable=False)
