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
from functools import lru_cache, partial
from typing import Iterable, Optional, Tuple, Union

from .choreography import (
    Call, CCProgram, Choreography, ComEta, Cond, DefSet, Interaction, PROCESS_BIT, RTCall,
    ccp_pn, format_path, program_wf, walk,
)
from .processes import (
    B_END, BCall, BCond, Branch, Behaviour, Choose, DefSetB, Network, Recv, SPProgram, Send,
)
from .values import Failure, ProcessName, SelLabel, fold


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


def _projected(make, *args) -> ProjectionResult:
    """``make(*args)``, or its ``Failure`` as a diagnostic."""
    try:
        return ProjectionResult(make(*args))
    except Failure as failure:
        return ProjectionResult(None, Diagnostic(failure.reason, failure.path))


# --------------------------------------------------------------------------
# Branching order

# What differs when two nodes of one kind differ in ``leaves``, the fields that hold no subtree.
_DIFFER = {Send: "send prefixes", Recv: "receive prefixes", Choose: "selection prefixes",
           Branch: "branching sources", BCond: "conditional guards", BCall: "procedure copies"}


def more_branches(first: Behaviour, second: Behaviour) -> bool:
    """``first >> second``: first has at least the branches of second, and
    the same leaves everywhere.  ``merge`` is the least upper bound of this
    order, so it holds exactly when merging the two gives first back, the
    one node of its tree."""
    try:
        return _merge(first, second) is first
    except Failure:
        return False


def more_branches_net(first: Network, second: Network) -> bool:
    """Pointwise branching order over the union of supports."""
    return all(more_branches(first.get(process), second.get(process))
               for process in {*first.support(), *second.support()})


# --------------------------------------------------------------------------
# Merge

def merge(first: Behaviour, second: Behaviour) -> ProjectionResult:
    """``_merge``'s behaviour, or its ``Failure`` as a diagnostic."""
    return _projected(_merge, first, second)


def _merge(first: Behaviour, second: Behaviour) -> Behaviour:
    """A ``fold`` over the two side by side; a failure's path is built only
    on failure.  A behaviour merges with itself to itself, with no fold."""
    return first if first is second else fold((first, second), _merge_pair, _merged)


def _merge_pair(pair) -> Union[Behaviour, list]:
    """The pairs of subtrees to merge next, or the merge of a tree with
    itself.  An offer made on one side only is kept as it is; two offers
    whose annotations differ are a pair None."""
    if pair is None:
        raise Failure("offer annotations differ")
    first, second = pair
    if first is second:
        return first
    kind = type(first)
    if kind is not type(second):
        raise Failure(f"{kind.__name__} cannot merge with {type(second).__name__}")
    if kind.leaves(first) != kind.leaves(second):
        raise Failure(f"{_DIFFER[kind]} differ")
    if kind is not Branch:
        return [(step, (getattr(first, name), getattr(second, name)))
                for step, name in kind.SUBTREES.items()]
    return [(step, (mine[1], theirs[1]) if mine[0] == theirs[0] else None)
            for step, mine, theirs in _offers(first, second) if mine and theirs]


def _merged(pair, results: list) -> Behaviour:
    first, second = pair
    if type(first) is not Branch:
        return first.rebuild(*results) if results else first
    merged = iter(results)
    return first.rebuild(*((mine[0], next(merged)) if mine and theirs else mine or theirs
                           for _, mine, theirs in _offers(first, second)))


def _offers(first: Branch, second: Branch) -> tuple:
    return ("left", first.left, second.left), ("right", first.right, second.right)


# --------------------------------------------------------------------------
# Per-process projection

# maxsize=0 stores and hashes nothing; it counts calls as misses for bench/layers.py.
@lru_cache(maxsize=0)
def bproj(defs: DefSet, chor: Choreography, process: ProcessName) -> ProjectionResult:
    """Project ``chor`` onto ``process``; partial because of merge.  A run
    of interactions and joined runtime terms is read in a loop (``_item``).
    A ``fold`` of such runs starts only at a conditional that names
    ``process`` and has one in a branch (``_opened``, ``_joined``).  A
    subtree that does not name ``process`` projects to End."""
    return _projected(_project, defs, chor, process, PROCESS_BIT[process])


def _project(defs: DefSet, chor: Choreography, process: ProcessName, bit: int) -> Behaviour:
    item = _item(defs, chor, process, bit)
    if type(item) is not tuple:
        return item
    branches = [_item(defs, item[1].then_branch, process, bit),
                _item(defs, item[1].else_branch, process, bit)]
    if tuple in map(type, branches):
        return fold(item, partial(_opened, defs, process, bit), partial(_joined, process))
    return _joined(process, item, branches)


def _opened(defs: DefSet, process: ProcessName, bit: int, item) -> Union[Behaviour, list]:
    """``fold``'s children of a run ended by a conditional, else the projection."""
    if type(item) is not tuple:
        return item
    walked, cond = item
    steps = _steps(walked) if walked else ()
    return [((*steps, "then"), _item(defs, cond.then_branch, process, bit)),
            ((*steps, "else"), _item(defs, cond.else_branch, process, bit))]


def _joined(process: ProcessName, item: tuple, branches) -> Behaviour:
    """The projection of a run ended by a conditional, given its branches':
    a local conditional at the process that decides it, else their merge."""
    walked, cond = item
    if process == cond.proc:
        return _prefixes(process, walked, BCond(cond.guard, *branches))
    try:
        return _prefixes(process, walked, _merge(*branches))
    except Failure as failure:
        raise Failure(f"conditional at {cond.proc} is ambiguous for {process}: "
                      f"{failure.reason}", _steps(walked)) from None


def _item(defs: DefSet, node: Choreography, process: ProcessName, bit: int):
    """The interactions and joined runtime terms from ``node`` down, while
    the subtree names ``process``, projected before what ends them: the
    process's copy of a procedure it is to join, else End; or the run and
    the conditional that names ``process`` and ends it."""
    walked = []
    while node.bits & bit:
        kind = type(node)
        if kind is Interaction:
            walked.append(node)
            node = node.cont
        elif kind is RTCall and process not in node.pending:
            walked.append(node)
            node = node.body
        elif kind is Cond:
            return walked, node
        else:
            joins = defs.vars(node.name) if kind is Call else node.pending
            return _prefixes(process, walked,
                             BCall((node.name, process)) if process in joins else B_END)
    return _prefixes(process, walked, B_END)


def _steps(walked: list) -> Tuple[str, ...]:
    """The path through ``walked``: ``cont`` past an interaction, ``body`` into a runtime term."""
    return tuple("cont" if type(node) is Interaction else "body" for node in walked)


def _prefixes(process: ProcessName, walked: list, behaviour: Behaviour) -> Behaviour:
    """The interactions of ``walked`` that name ``process``, projected onto it before ``behaviour``."""
    for node in reversed(walked):
        if type(node) is RTCall:
            continue
        eta, ann = node.eta, node.ann
        if process == eta.sender:
            behaviour = (Send(eta.receiver, eta.expr, ann, behaviour) if type(eta) is ComEta
                         else Choose(eta.receiver, eta.label, ann, behaviour))
        elif process == eta.receiver:
            if type(eta) is ComEta:
                behaviour = Recv(eta.sender, eta.var, ann, behaviour)
            else:
                offer = (ann, behaviour)
                behaviour = (Branch(eta.sender, offer, None) if eta.label is SelLabel.LEFT
                             else Branch(eta.sender, None, offer))
    return behaviour


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


def strongly_projected(program: CCProgram) -> Optional[SPProgram]:
    """``epp(program)`` if well formed and ``str_proj`` at every process, else None."""
    projected = epp(program) if program_wf(program) else None
    strong = isinstance(projected, SPProgram) and _runtime_terms_above(program.defs, program.main)
    return projected if strong else None


def str_proj_p(program: CCProgram) -> bool:
    return strongly_projected(program) is not None


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
