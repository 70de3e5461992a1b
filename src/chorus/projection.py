"""Endpoint projection: branching order, merge, and per-process projection.

``merge`` joins two behaviours that describe alternative executions of the
same process.  It is partial: both arguments must be built from the same
constructor with matching parameters (peer, expression or variable, label,
annotation, guard, procedure copy), the one exception being branching
terms, whose offers are combined slot-wise: an offer present on one side
only survives, and offers present on both sides must share their
annotation and merge recursively.

``more_branches`` (the branching order, written ``B1 >> B2``) holds when
``B1`` offers at least the branches of ``B2`` and agrees with it
everywhere else; ``merge`` is its least upper bound.

``bproj`` projects a choreography onto one process: communication and
selection prefixes map to the matching local action of the two peers and
are skipped by everyone else; a conditional maps to a local conditional at
the deciding process and to the merge of the two branch projections at any
other process, which is where projection can fail.  Procedure calls map to
calls of the caller's own copy of the procedure.

When projection or merge fails, the result carries a diagnostic whose path
(``cont`` / ``then`` / ``else`` / ``body`` segments for choreographies,
``cont`` / ``left`` / ``right`` / ``then`` / ``else`` for behaviours)
locates the offending node relative to the projected root.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Optional, Tuple, Union

from .choreography import (
    CCProgram, Choreography, ComEta, Cond, DefSet, End, Interaction,
    RTCall, ccp_pn, format_path, program_wf, walk,
)
from .processes import (
    B_END, BCall, BCond, Branch, BranchSlot, Behaviour, Choose, DefSetB,
    Network, Recv, SPProgram, Send,
)
from .values import ProcessName, ProcName, SelLabel


@dataclass(frozen=True)
class Diagnostic:
    reason: str
    path: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.reason} (at {format_path(self.path)})"


@dataclass(frozen=True)
class ProjectionResult:
    behaviour: Optional[Behaviour]
    failure: Optional[Diagnostic] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def unwrap(self) -> Behaviour:
        if self.failure is not None:
            raise ValueError(f"projection failed: {self.failure}")
        return self.behaviour


def _ok(behaviour: Behaviour) -> ProjectionResult:
    return ProjectionResult(behaviour)


def _fail(reason: str, path: Tuple[str, ...] = ()) -> ProjectionResult:
    return ProjectionResult(None, Diagnostic(reason, path))


def _push(result: ProjectionResult, *steps: str) -> ProjectionResult:
    failure = result.failure
    return ProjectionResult(None, Diagnostic(failure.reason, steps + failure.path))


# --------------------------------------------------------------------------
# Branching order

# Prefix constructors: the fields (in constructor order, before ``cont``)
# that two prefixes must share to merge, and the diagnostic's noun.
_PREFIXES = {
    Send: (attrgetter("peer", "expr", "ann"), "send"),
    Recv: (attrgetter("peer", "var", "ann"), "receive"),
    Choose: (attrgetter("peer", "label", "ann"), "selection"),
}


def more_branches(first: Behaviour, second: Behaviour) -> bool:
    """``first >> second``: first has at least the branches of second."""
    kind = type(first)
    if kind is not type(second):
        return False
    prefix = _PREFIXES.get(kind)
    if prefix is not None:
        return prefix[0](first) == prefix[0](second) and more_branches(first.cont, second.cont)
    if kind is Branch:
        return (first.peer == second.peer
                and _slot_geq(first.left, second.left)
                and _slot_geq(first.right, second.right))
    if kind is BCond:
        return (first.guard == second.guard
                and more_branches(first.then_branch, second.then_branch)
                and more_branches(first.else_branch, second.else_branch))
    if kind is BCall:
        return first.name == second.name
    return True  # BEnd


def _slot_geq(bigger: BranchSlot, smaller: BranchSlot) -> bool:
    # A missing offer is below anything; a present offer needs a present
    # offer with the same annotation above it.
    if smaller is None:
        return True
    if bigger is None:
        return False
    return bigger[0] == smaller[0] and more_branches(bigger[1], smaller[1])


def more_branches_net(first: Network, second: Network) -> bool:
    """Pointwise branching order over the union of supports."""
    for process in set(first.support()) | set(second.support()):
        if not more_branches(first.get(process), second.get(process)):
            return False
    return True


# --------------------------------------------------------------------------
# Merge

def merge(first: Behaviour, second: Behaviour) -> ProjectionResult:
    kind = type(first)
    if kind is not type(second):
        return _fail(f"{kind.__name__} cannot merge with {type(second).__name__}")
    prefix = _PREFIXES.get(kind)
    if prefix is not None:
        fields, noun = prefix
        if fields(first) != fields(second):
            return _fail(f"{noun} prefixes differ")
        inner = merge(first.cont, second.cont)
        if not inner.ok:
            return _push(inner, "cont")
        return _ok(kind(*fields(first), inner.behaviour))
    if kind is Branch:
        if first.peer != second.peer:
            return _fail("branching sources differ")
        ok_left, left = _merge_slot(first.left, second.left, "left")
        if not ok_left:
            return ProjectionResult(None, left)
        ok_right, right = _merge_slot(first.right, second.right, "right")
        if not ok_right:
            return ProjectionResult(None, right)
        return _ok(Branch(first.peer, left, right))
    if kind is BCond:
        if first.guard != second.guard:
            return _fail("conditional guards differ")
        then_merged = merge(first.then_branch, second.then_branch)
        if not then_merged.ok:
            return _push(then_merged, "then")
        else_merged = merge(first.else_branch, second.else_branch)
        if not else_merged.ok:
            return _push(else_merged, "else")
        return _ok(BCond(first.guard, then_merged.behaviour, else_merged.behaviour))
    if kind is BCall and first.name != second.name:
        return _fail("procedure copies differ")
    return _ok(first)  # BEnd, or the same BCall


def _merge_slot(first: BranchSlot, second: BranchSlot, side: str):
    if first is None and second is None:
        return True, None
    if first is None:
        return True, second
    if second is None:
        return True, first
    if first[0] != second[0]:
        return False, Diagnostic("offer annotations differ", (side,))
    inner = merge(first[1], second[1])
    if not inner.ok:
        return False, Diagnostic(inner.failure.reason, (side,) + inner.failure.path)
    return True, (first[0], inner.behaviour)


# --------------------------------------------------------------------------
# Per-process projection

# maxsize=0 stores and hashes nothing; it counts calls as misses for bench/layers.py.
@lru_cache(maxsize=0)
def bproj(defs: DefSet, chor: Choreography, process: ProcessName) -> ProjectionResult:
    """Project ``chor`` onto ``process``; partial because of merge.  Runs of
    interactions, and runtime terms ``process`` has joined, are read in a
    loop; only conditionals recurse."""
    walked = []
    while True:
        kind = type(chor)
        if kind is Interaction:
            walked.append(chor)
            chor = chor.cont
        elif kind is RTCall and process not in chor.pending:
            walked.append(chor)
            chor = chor.body
        else:
            break
    if kind is Cond:
        then_proj = bproj(defs, chor.then_branch, process)
        if not then_proj.ok:
            return _push(then_proj, *_steps(walked), "then")
        else_proj = bproj(defs, chor.else_branch, process)
        if not else_proj.ok:
            return _push(else_proj, *_steps(walked), "else")
        if process == chor.proc:
            behaviour = BCond(chor.guard, then_proj.behaviour, else_proj.behaviour)
        else:
            merged = merge(then_proj.behaviour, else_proj.behaviour)
            if not merged.ok:
                return _fail(f"conditional at {chor.proc} is ambiguous for {process}: "
                             f"{merged.failure.reason}", _steps(walked))
            behaviour = merged.behaviour
    elif kind is End:
        behaviour = B_END
    else:
        # A call, or a runtime term: processes still to join call their copy.
        joins = chor.pending if kind is RTCall else defs.vars(chor.name)
        behaviour = BCall((chor.name, process)) if process in joins else B_END
    for node in reversed(walked):
        if type(node) is RTCall:
            continue
        eta = node.eta
        if process == eta.sender:
            behaviour = (Send(eta.receiver, eta.expr, node.ann, behaviour) if type(eta) is ComEta
                         else Choose(eta.receiver, eta.label, node.ann, behaviour))
        elif process == eta.receiver:
            if type(eta) is ComEta:
                behaviour = Recv(eta.sender, eta.var, node.ann, behaviour)
            else:
                offer = (node.ann, behaviour)
                behaviour = (Branch(eta.sender, offer, None) if eta.label is SelLabel.LEFT
                             else Branch(eta.sender, None, offer))
    return _ok(behaviour)


def _steps(walked) -> Tuple[str, ...]:
    """The path through ``walked``: ``cont`` past an interaction, ``body`` into a runtime term."""
    return tuple("cont" if type(node) is Interaction else "body" for node in walked)


def projectable_b(defs: DefSet, chor: Choreography, process: ProcessName) -> bool:
    return bproj(defs, chor, process).ok


def projectable_d(defs: DefSet, check_set: Iterable[ProcName] = ()) -> bool:
    """Each procedure's body is projectable for its own processes."""
    return not isinstance(epp_d(defs, check_set), EppFailure)


def projectable_p(program: CCProgram, check_set: Iterable[ProcName] = ()) -> bool:
    return not isinstance(epp(program, check_set), EppFailure)


# --------------------------------------------------------------------------
# Strong projectability

def str_proj(defs: DefSet, chor: Choreography, process: ProcessName) -> bool:
    """Projectability strengthened over runtime terms so transitions preserve it.

    Every conditional must be projectable, and every runtime term requires
    that, for every process still to join, the projection of the procedure's
    definition sits above the projection of the term's body in the branching
    order (both defined).
    """
    for node in walk(chor):
        if isinstance(node, Cond) and not projectable_b(defs, node, process):
            return False
        if isinstance(node, RTCall):
            for joiner in node.pending:
                from_def = bproj(defs, defs.body(node.name), joiner)
                from_body = bproj(defs, node.body, joiner)
                if not (from_def.ok and from_body.ok
                        and more_branches(from_def.behaviour, from_body.behaviour)):
                    return False
    return True


def str_proj_p(program: CCProgram, check_set: Iterable[ProcName] = ()) -> bool:
    return (program_wf(program)
            and projectable_d(program.defs, check_set)
            and all(str_proj(program.defs, program.main, r)
                    for r in sorted(ccp_pn(program))))


# --------------------------------------------------------------------------
# Whole-program projection

@dataclass(frozen=True)
class EppFailure:
    scope: str  # "main" or a procedure name
    process: ProcessName
    diagnostic: Diagnostic

    def __str__(self) -> str:
        return f"cannot project {self.scope} for {self.process}: {self.diagnostic}"


def epp_c(defs: DefSet, processes: Iterable[ProcessName],
          chor: Choreography) -> Union[Network, EppFailure]:
    """Project a choreography onto each listed process."""
    out = {}
    for process in sorted(set(processes)):
        result = bproj(defs, chor, process)
        if not result.ok:
            return EppFailure("main", process, result.failure)
        out[process] = result.behaviour
    return Network(out)


def epp_d(defs: DefSet,
          check_set: Iterable[ProcName] = ()) -> Union[DefSetB, EppFailure]:
    """Project every procedure body once per process using it."""
    out = {}
    for name in sorted(set(defs.support()) | set(check_set)):
        body = defs.body(name)
        for process in defs.vars(name):
            result = bproj(defs, body, process)
            if not result.ok:
                return EppFailure(name, process, result.failure)
            out[(name, process)] = result.behaviour
    return DefSetB(out)


def epp(program: CCProgram,
        check_set: Iterable[ProcName] = ()) -> Union[SPProgram, EppFailure]:
    """Endpoint projection of a whole program."""
    network = epp_c(program.defs, ccp_pn(program), program.main)
    if isinstance(network, EppFailure):
        return network
    defs_b = epp_d(program.defs, check_set)
    if isinstance(defs_b, EppFailure):
        return defs_b
    return SPProgram(defs_b, network)
