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
from typing import Iterable, Optional, Tuple, Union

from .choreography import (
    CCProgram, Choreography, ComEta, Cond, DefSet, End, Interaction,
    RTCall, ccp_pn, format_path, program_wf, walk,
)
from .processes import (
    B_END, BCall, BCond, Branch, Behaviour, Choose, DefSetB, Network, Recv, SPProgram, Send,
)
from .values import ProcessName, SelLabel


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


def _fail(reason: str, path: Tuple[str, ...] = ()) -> ProjectionResult:
    return ProjectionResult(None, Diagnostic(reason, path))


def _push(result: ProjectionResult, *steps: str) -> ProjectionResult:
    failure = result.failure
    return ProjectionResult(None, Diagnostic(failure.reason, steps + failure.path))


# --------------------------------------------------------------------------
# Branching order

_PREFIXES = (Send, Recv, Choose)
# What differs when two nodes of one kind differ in ``leaves``, the fields that hold no subtree.
_DIFFER = {Send: "send prefixes", Recv: "receive prefixes", Choose: "selection prefixes",
           Branch: "branching sources", BCond: "conditional guards", BCall: "procedure copies"}


def more_branches(first: Behaviour, second: Behaviour) -> bool:
    """``first >> second``: first has at least the branches of second, and
    the same leaves everywhere.  Runs of prefixes are read in a loop; only
    branchings and conditionals recurse."""
    while type(first) in _PREFIXES and type(first) is type(second):
        if type(first).leaves(first) != type(first).leaves(second):
            return False
        first, second = first.cont, second.cont
    kind = type(first)
    if kind is not type(second) or kind.leaves(first) != kind.leaves(second):
        return False
    for name in kind.SUBTREES.values():
        big, small = getattr(first, name), getattr(second, name)
        if kind is Branch:
            # A missing offer is below anything; a present one needs one with its annotation above.
            if small is None:
                continue
            if big is None or big[0] != small[0]:
                return False
            big, small = big[1], small[1]
        if not more_branches(big, small):
            return False
    return True


def more_branches_net(first: Network, second: Network) -> bool:
    """Pointwise branching order over the union of supports."""
    return all(more_branches(first.get(process), second.get(process))
               for process in {*first.support(), *second.support()})


# --------------------------------------------------------------------------
# Merge

def merge(first: Behaviour, second: Behaviour) -> ProjectionResult:
    """Runs of prefixes are read in a loop; only branchings and conditionals
    recurse.  A failure's path, the ``cont`` steps walked and then the path
    inside, is built only on failure."""
    walked = []
    while type(first) in _PREFIXES and type(first) is type(second):
        kind = type(first)
        if kind.leaves(first) != kind.leaves(second):
            return _fail(f"{_DIFFER[kind]} differ", ("cont",) * len(walked))
        walked.append(first)
        first, second = first.cont, second.cont
    merged = _merge_node(first, second)
    if not merged.ok:
        return _push(merged, *("cont",) * len(walked))
    behaviour = merged.behaviour
    for node in reversed(walked):
        behaviour = type(node)(*type(node).leaves(node), behaviour)
    return ProjectionResult(behaviour)


def _merge_node(first: Behaviour, second: Behaviour) -> ProjectionResult:
    """Merge two nodes of one kind subtree by subtree, as ``more_branches`` compares them."""
    kind = type(first)
    if kind is not type(second):
        return _fail(f"{kind.__name__} cannot merge with {type(second).__name__}")
    if kind.leaves(first) != kind.leaves(second):
        return _fail(f"{_DIFFER[kind]} differ")
    subtrees = []
    for step, name in kind.SUBTREES.items():
        mine, theirs = getattr(first, name), getattr(second, name)
        if kind is Branch:
            if mine is None or theirs is None:  # an offer made on one side only is kept
                subtrees.append(mine or theirs)
                continue
            if mine[0] != theirs[0]:
                return _fail("offer annotations differ", (step,))
            ann, mine, theirs = mine[0], mine[1], theirs[1]
        merged = merge(mine, theirs)
        if not merged.ok:
            return _push(merged, step)
        subtrees.append((ann, merged.behaviour) if kind is Branch else merged.behaviour)
    # Branch and BCond have one leaf, which ``leaves`` returns bare; BEnd and BCall have no subtree.
    return ProjectionResult(kind(kind.leaves(first), *subtrees) if subtrees else first)


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
    return ProjectionResult(behaviour)


def _steps(walked) -> Tuple[str, ...]:
    """The path through ``walked``: ``cont`` past an interaction, ``body`` into a runtime term."""
    return tuple("cont" if type(node) is Interaction else "body" for node in walked)


def projectable_d(defs: DefSet) -> bool:
    """Each procedure's body is projectable for its own processes."""
    return not isinstance(epp_d(defs), EppFailure)


def projectable_p(program: CCProgram) -> bool:
    return not isinstance(epp(program), EppFailure)


# --------------------------------------------------------------------------
# Strong projectability

def str_proj(defs: DefSet, chor: Choreography, process: ProcessName) -> bool:
    """Projectability strengthened over runtime terms so transitions preserve it.

    Every conditional must be projectable, and every runtime term requires
    that, for every process still to join, the projection of the procedure's
    definition sits above the projection of the term's body in the branching
    order (both defined).

    One projection of ``chor`` decides the first clause: ``bproj`` fails
    only at a conditional, and it recurses into every conditional except
    those in the body of a runtime term that ``process`` has still to join,
    which the second clause projects.
    """
    return bproj(defs, chor, process).ok and _runtime_terms_above(defs, chor)


def _runtime_terms_above(defs: DefSet, chor: Choreography) -> bool:
    """``str_proj``'s runtime-term clause, which names no process of its own."""
    for node in walk(chor):
        if type(node) is RTCall:
            for joiner in node.pending:
                from_def = bproj(defs, defs.body(node.name), joiner)
                from_body = bproj(defs, node.body, joiner)
                if not (from_def.ok and from_body.ok
                        and more_branches(from_def.behaviour, from_body.behaviour)):
                    return False
    return True


def str_proj_p(program: CCProgram) -> bool:
    """``str_proj`` at every process, its runtime-term clause decided once."""
    defs, chor = program.defs, program.main
    return (program_wf(program)
            and projectable_d(defs)
            and all(bproj(defs, chor, r).ok for r in sorted(ccp_pn(program)))
            and _runtime_terms_above(defs, chor))


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


def epp_d(defs: DefSet) -> Union[DefSetB, EppFailure]:
    """Project each stored procedure body once per process using it (any
    other name projects to ``End``, which ``DefSetB`` does not store)."""
    out = {}
    for name in defs.support():
        body = defs.body(name)
        for process in defs.vars(name):
            result = bproj(defs, body, process)
            if not result.ok:
                return EppFailure(name, process, result.failure)
            out[(name, process)] = result.behaviour
    return DefSetB(out)


def epp(program: CCProgram) -> Union[SPProgram, EppFailure]:
    """Endpoint projection of a whole program."""
    network = epp_c(program.defs, ccp_pn(program), program.main)
    if isinstance(network, EppFailure):
        return network
    defs_b = epp_d(program.defs)
    if isinstance(defs_b, EppFailure):
        return defs_b
    return SPProgram(defs_b, network)
