"""Recursive definitions of projection, merge, the branching order and the
printers, one case per syntax kind as the paper states them.  ``chorus``
computes each of them by one explicit-stack fold or writer; the tests check
the two agree on shallow trees, where recursion is safe."""
from __future__ import annotations

import json

from chorus import (
    B_END, BCall, BCond, BEnd, Branch, Call, Choose, ComEta, Cond, End,
    Interaction, Recv, RTCall, SelLabel, Send,
)
from chorus.projection import _DIFFER, Diagnostic, ProjectionResult
from chorus.surface import print_bexpr, print_expr


def _fail(reason, path=()):
    return ProjectionResult(None, Diagnostic(reason, path))


def _under(step, result):
    """``result`` with ``step`` put before its failure's path."""
    if result.ok:
        return result
    return _fail(result.failure.reason, (step, *result.failure.path))


def bproj_reference(defs, chor, process):
    kind = type(chor)
    if kind is End:
        return ProjectionResult(B_END)
    if kind is Call:
        return ProjectionResult(BCall((chor.name, process)) if process in defs.vars(chor.name)
                                else B_END)
    if kind is RTCall:
        if process in chor.pending:
            return ProjectionResult(BCall((chor.name, process)))
        return _under("body", bproj_reference(defs, chor.body, process))
    if kind is Cond:
        then_proj = _under("then", bproj_reference(defs, chor.then_branch, process))
        if not then_proj.ok:
            return then_proj
        else_proj = _under("else", bproj_reference(defs, chor.else_branch, process))
        if not else_proj.ok:
            return else_proj
        if process == chor.proc:
            return ProjectionResult(BCond(chor.guard, then_proj.behaviour, else_proj.behaviour))
        merged = merge_reference(then_proj.behaviour, else_proj.behaviour)
        if not merged.ok:
            return _fail(f"conditional at {chor.proc} is ambiguous for {process}: "
                         f"{merged.failure.reason}")
        return merged
    cont = _under("cont", bproj_reference(defs, chor.cont, process))
    if not cont.ok:
        return cont
    eta, behaviour = chor.eta, cont.behaviour
    if process == eta.sender:
        behaviour = (Send(eta.receiver, eta.expr, chor.ann, behaviour) if type(eta) is ComEta
                     else Choose(eta.receiver, eta.label, chor.ann, behaviour))
    elif process == eta.receiver:
        if type(eta) is ComEta:
            behaviour = Recv(eta.sender, eta.var, chor.ann, behaviour)
        else:
            offer = (chor.ann, behaviour)
            behaviour = (Branch(eta.sender, offer, None) if eta.label is SelLabel.LEFT
                         else Branch(eta.sender, None, offer))
    return ProjectionResult(behaviour)


def merge_reference(first, second):
    kind = type(first)
    if kind is not type(second):
        return _fail(f"{kind.__name__} cannot merge with {type(second).__name__}")
    if kind.leaves(first) != kind.leaves(second):
        return _fail(f"{_DIFFER[kind]} differ")
    if kind is BEnd or kind is BCall:
        return ProjectionResult(first)
    if kind is BCond:
        merged = []
        for step, mine, theirs in (("then", first.then_branch, second.then_branch),
                                   ("else", first.else_branch, second.else_branch)):
            result = _under(step, merge_reference(mine, theirs))
            if not result.ok:
                return result
            merged.append(result.behaviour)
        return ProjectionResult(BCond(first.guard, *merged))
    if kind is Branch:
        offers = []
        for step, mine, theirs in (("left", first.left, second.left),
                                   ("right", first.right, second.right)):
            if mine is None or theirs is None:
                offers.append(mine or theirs)
                continue
            if mine[0] != theirs[0]:
                return _fail("offer annotations differ", (step,))
            result = _under(step, merge_reference(mine[1], theirs[1]))
            if not result.ok:
                return result
            offers.append((mine[0], result.behaviour))
        return ProjectionResult(Branch(first.peer, *offers))
    result = _under("cont", merge_reference(first.cont, second.cont))
    return result if not result.ok else ProjectionResult(kind(*kind.leaves(first), result.behaviour))


def more_branches_reference(first, second) -> bool:
    kind = type(first)
    if kind is not type(second) or kind.leaves(first) != kind.leaves(second):
        return False
    if kind is Branch:
        for mine, theirs in ((first.left, second.left), (first.right, second.right)):
            if theirs is not None and (mine is None or mine[0] != theirs[0]
                                       or not more_branches_reference(mine[1], theirs[1])):
                return False
        return True
    return all(more_branches_reference(getattr(first, name), getattr(second, name))
               for name in kind.SUBTREES.values())


def _ann_text(ann):
    return f" @ {json.dumps(ann)}" if ann else ""


def chor_lines_reference(chor, indent=0):
    pad = "  " * indent
    kind = type(chor)
    if kind is Interaction:
        eta = chor.eta
        text = (f"{eta.sender}.{print_expr(eta.expr)} -> {eta.receiver}.{eta.var}"
                if type(eta) is ComEta else f"{eta.sender} -> {eta.receiver}[{eta.label.value}]")
        return [pad + text + _ann_text(chor.ann) + ";", *chor_lines_reference(chor.cont, indent)]
    if kind is End or kind is Call:
        return [pad + ("end" if kind is End else f"call {chor.name}")]
    if kind is Cond:
        return [pad + f"if {chor.proc}.{print_bexpr(chor.guard)} then {{",
                *chor_lines_reference(chor.then_branch, indent + 1), pad + "} else {",
                *chor_lines_reference(chor.else_branch, indent + 1), pad + "}"]
    return [pad + f"rt_call {chor.name} [{', '.join(chor.pending)}] {{",
            *chor_lines_reference(chor.body, indent + 1), pad + "}"]


def print_behaviour_reference(behaviour) -> str:
    kind = type(behaviour)
    if kind is Send or kind is Recv or kind is Choose:
        action = (f"!{print_expr(behaviour.expr)}" if kind is Send else f"?{behaviour.var}"
                  if kind is Recv else f"(+){behaviour.label.value}")
        return (f"{behaviour.peer}{action}{_ann_text(behaviour.ann)}; "
                + print_behaviour_reference(behaviour.cont))
    if kind is BEnd:
        return "end"
    if kind is BCall:
        return f"call {behaviour.name[0]}@{behaviour.name[1]}"
    if kind is BCond:
        return (f"if {print_bexpr(behaviour.guard)} "
                f"then {{ {print_behaviour_reference(behaviour.then_branch)} }} "
                f"else {{ {print_behaviour_reference(behaviour.else_branch)} }}")
    slots = [f"{label.value}{_ann_text(slot[0])}: {print_behaviour_reference(slot[1])}"
             for label, slot in ((SelLabel.LEFT, behaviour.left), (SelLabel.RIGHT, behaviour.right))
             if slot is not None]
    return f"{behaviour.peer} & {{{' | '.join(slots)}}}"
