"""Choreography syntax, programs, and well-formedness.

A choreography is a finite tree of interactions, conditionals and procedure
calls.  ``RTCall`` is a runtime-only marker produced by the semantics while
the processes listed in ``pending`` have not yet joined a procedure; it is
never written in source programs.

Well-formedness is split into small named predicates (``no_self_comm``,
``no_empty_ann``, ``initial``, ``consistent``, ``well_ann``) that are
combined by ``program_wf``.  ``program_wf_dec`` additionally locates the
first violated clause for diagnostics.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from .values import Node, ProcName, ProcessName, TotalMap


class _BitTable(dict):
    """Append-only intern table from process names to bits: a name takes a
    fresh bit when first looked up and keeps it.  Bit positions depend on
    lookup order, so they never reach any output."""

    def __init__(self):
        super().__init__()
        self._fresh = itertools.count()  # next() is atomic, so no two names share a bit

    def __missing__(self, process: ProcessName) -> int:
        return self.setdefault(process, 1 << next(self._fresh))


# Every choreography node has ``bits``, which ``==``, hash and repr ignore:
# the ``PROCESS_BIT`` of each process its subtree mentions, or every bit (-1)
# if the subtree has a ``Call``, whose processes depend on the definitions.
PROCESS_BIT = _BitTable()


# --------------------------------------------------------------------------
# Syntax

class ComEta(Node):
    FIELDS = {"sender": None, "expr": None, "receiver": None, "var": None}


class SelEta(Node):
    FIELDS = {"sender": None, "receiver": None, "label": None}


Eta = Union[ComEta, SelEta]


def eta_processes(eta: Eta) -> FrozenSet[ProcessName]:
    return frozenset((eta.sender, eta.receiver))


class Interaction(Node):
    FIELDS = {"eta": None, "ann": None, "cont": "cont"}
    DERIVED = {"bits": lambda node: (PROCESS_BIT[node.eta.sender]
                                     | PROCESS_BIT[node.eta.receiver] | node.cont.bits)}


class Cond(Node):
    FIELDS = {"proc": None, "guard": None, "then_branch": "then", "else_branch": "else"}
    DERIVED = {"bits": lambda node: (PROCESS_BIT[node.proc]
                                     | node.then_branch.bits | node.else_branch.bits)}


class Call(Node):
    FIELDS = {"name": None}
    bits = -1


class RTCall(Node):
    FIELDS = {"name": None, "pending": None, "body": "body"}
    # Canonical form: the pending list behaves as a set.
    DERIVED = {"pending": lambda pending: tuple(sorted(set(pending))),
               "bits": lambda node: sum(PROCESS_BIT[p] for p in node.pending) | node.body.bits}


class End(Node):
    FIELDS = {}
    bits = 0


Choreography = Union[Interaction, Cond, Call, RTCall, End]

END = End()

# Process assigned to otherwise-undefined procedures, whose body is End.
DEFAULT_PROCESS: ProcessName = "p0"

_DEFAULT_DEF: Tuple[Tuple[ProcessName, ...], Choreography] = ((DEFAULT_PROCESS,), END)


class DefSet(TotalMap):
    """Total map from procedure names to (processes, body).

    Names without an explicit definition map to ``((DEFAULT_PROCESS,), End)``.
    The constructor and ``with_def`` keep process lists sorted and
    duplicate-free; ``put`` stores its entry as given.
    """

    __slots__ = ()
    DEFAULT = _DEFAULT_DEF

    def __init__(self, defs: Union[Mapping, Iterable] = ()):
        super().__init__({name: (tuple(sorted(set(procs))), body)
                          for name, (procs, body) in dict(defs).items()})

    def vars(self, name: ProcName) -> Tuple[ProcessName, ...]:
        return self._entries.get(name, _DEFAULT_DEF)[0]

    def body(self, name: ProcName) -> Choreography:
        return self._entries.get(name, _DEFAULT_DEF)[1]

    def names(self, name: ProcName) -> FrozenSet[ProcessName]:
        return frozenset(self.vars(name))

    def with_def(self, name: ProcName, procs: Iterable[ProcessName], body: Choreography) -> "DefSet":
        return DefSet({**self._entries, name: (procs, body)})


@dataclass(frozen=True)
class CCProgram:
    defs: DefSet
    main: Choreography


# --------------------------------------------------------------------------
# Tree walking

def _walk(chor: Choreography):
    """Yield (node, link) pre-order, left to right, in a loop.  A link is None
    at the root, else (path step, the parent's link)."""
    stack = [(chor, None)]
    while stack:
        node, link = stack.pop()
        yield node, link
        for step, name in reversed(node.SUBTREES.items()):
            stack.append((getattr(node, name), (step, link)))


def walk(chor: Choreography):
    """Every node of ``chor``, pre-order, left to right."""
    return map(itemgetter(0), _walk(chor))


def node_at(chor: Choreography, path: Iterable[str]) -> Choreography:
    node = chor
    for step in path:
        name = node.SUBTREES.get(step)
        if name is None:
            raise KeyError(f"no node at step {step!r} of {path!r}")
        node = getattr(node, name)
    return node


def format_path(path: Tuple[str, ...]) -> str:
    return "/".join(path) if path else "<root>"


# --------------------------------------------------------------------------
# Well-formedness clauses

def _path(link) -> Tuple[str, ...]:
    """The path a ``_walk`` link leads along, from the root."""
    path = []
    while link is not None:
        step, link = link
        path.append(step)
    return tuple(reversed(path))


def _first(chor: Choreography, bad: Callable[[Choreography], bool]
           ) -> Optional[Tuple[Tuple[str, ...], Choreography]]:
    """(path, node) of the first node, pre-order and left to right, that is
    ``bad``.  Only that node's path is built, from its parent links."""
    for node, link in _walk(chor):
        if bad(node):
            return _path(link), node
    return None


def _self_comm(node: Choreography) -> bool:
    return isinstance(node, Interaction) and node.eta.sender == node.eta.receiver


def _runtime_term(node: Choreography) -> bool:
    return isinstance(node, RTCall)


def _empty_pending(node: Choreography) -> bool:
    return isinstance(node, RTCall) and not node.pending


def _escapes(names: Callable[[ProcName], FrozenSet[ProcessName]]) -> Callable[[Choreography], bool]:
    """A runtime term whose pending processes are not all its procedure's."""
    return lambda node: isinstance(node, RTCall) and not set(node.pending) <= set(names(node.name))


def initial(chor: Choreography) -> bool:
    """True iff the choreography contains no runtime terms."""
    return _first(chor, _runtime_term) is None


def no_self_comm(chor: Choreography) -> bool:
    return _first(chor, _self_comm) is None


def no_empty_ann(chor: Choreography) -> bool:
    """True iff every runtime term lists at least one pending process."""
    return _first(chor, _empty_pending) is None


def chor_wf(chor: Choreography) -> bool:
    return no_self_comm(chor) and no_empty_ann(chor)


def consistent(names: Callable[[ProcName], FrozenSet[ProcessName]], chor: Choreography) -> bool:
    """Every runtime term's pending list stays inside its procedure's processes."""
    return _first(chor, _escapes(names)) is None


def ccc_pn(chor: Choreography,
           names: Callable[[ProcName], FrozenSet[ProcessName]]) -> FrozenSet[ProcessName]:
    """Processes occurring in a choreography, given each procedure's processes."""
    out = set()
    for node in walk(chor):
        if isinstance(node, Interaction):
            out.update((node.eta.sender, node.eta.receiver))
        elif isinstance(node, Cond):
            out.add(node.proc)
        elif isinstance(node, Call):
            out.update(names(node.name))
        elif isinstance(node, RTCall):
            out.update(node.pending)
    return frozenset(out)


def ccp_pn(program: CCProgram) -> FrozenSet[ProcessName]:
    """Processes occurring in a program: its main plus every defined procedure."""
    out = ccc_pn(program.main, program.defs.names)
    for name in program.defs.support():
        out |= frozenset(program.defs.vars(name))
    return out


def well_ann(program: CCProgram, name: ProcName) -> bool:
    procs = program.defs.vars(name)
    return bool(procs) and ccc_pn(program.defs.body(name), program.defs.names) <= set(procs)


def program_wf(program: CCProgram) -> bool:
    """Well-formedness of a whole program.

    The quantification over procedure names reduces to the explicit map
    support: undefined procedures have body End and a nonempty process list,
    so they satisfy every clause.
    """
    if not (chor_wf(program.main) and consistent(program.defs.names, program.main)):
        return False
    for name in program.defs.support():
        body = program.defs.body(name)
        if not (no_self_comm(body) and initial(body) and well_ann(program, name)):
            return False
    return True


@dataclass(frozen=True)
class WfReport:
    ok: bool
    clause: Optional[str] = None
    scope: Optional[str] = None
    path: Optional[Tuple[str, ...]] = None
    detail: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "clause": self.clause,
            "scope": self.scope,
            "path": list(self.path) if self.path is not None else None,
            "detail": self.detail,
        }


def program_wf_dec(program: CCProgram) -> WfReport:
    """Decide ``program_wf`` and locate the first violated clause.

    Clauses are checked in a fixed order: the main choreography's, then each
    stored procedure's in name order.  Any other name, called or not, reads
    the default definition, which passes every clause, so the stored
    procedures are the finitely many that matter.  One walk of a scope finds
    each clause's first bad node (pre-order) and the processes ``well_ann``
    needs; ``program_wf`` states the same test clause by clause.
    """
    defs = program.defs
    scopes = [("main", program.main, ("no_self_comm", "no_empty_ann", "consistent"), None)]
    scopes += [(name, defs.body(name), ("no_self_comm", "initial"), set(defs.vars(name)))
               for name in defs.support()]
    for scope, chor, clauses, declared in scopes:
        found, processes = {}, set()  # clause: (link, detail); ccc_pn(chor, defs.names)
        for node, link in _walk(chor):
            kind = type(node)
            if kind is Interaction:
                sender, receiver = node.eta.sender, node.eta.receiver
                if sender == receiver:
                    found.setdefault("no_self_comm", (link, "interaction with itself"))
                processes.add(sender)
                processes.add(receiver)
            elif kind is Cond:
                processes.add(node.proc)
            elif kind is Call:
                processes.update(defs.names(node.name))
            elif kind is RTCall:
                found.setdefault("initial", (link, "runtime term in a procedure body"))
                if not node.pending:
                    found.setdefault("no_empty_ann",
                                     (link, "runtime term with no pending processes"))
                elif not set(node.pending) <= defs.names(node.name):
                    found.setdefault("consistent",
                                     (link, f"pending processes escape procedure {node.name}"))
                processes.update(node.pending)
        for clause in clauses:
            if clause in found:
                return WfReport(False, clause, scope, _path(found[clause][0]), found[clause][1])
        if declared is not None and not (declared and processes <= declared):
            detail = (f"processes {sorted(processes - declared)} not declared by the procedure"
                      if declared else "empty process list")
            return WfReport(False, "well_ann", scope, (), detail)
    return WfReport(True)
