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

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from .values import BExpr, Expr, ProcName, ProcessName, SelLabel, TotalMap, VarName


# --------------------------------------------------------------------------
# Syntax

@dataclass(frozen=True, slots=True)
class ComEta:
    sender: ProcessName
    expr: Expr
    receiver: ProcessName
    var: VarName


@dataclass(frozen=True, slots=True)
class SelEta:
    sender: ProcessName
    receiver: ProcessName
    label: SelLabel


Eta = Union[ComEta, SelEta]


def eta_processes(eta: Eta) -> FrozenSet[ProcessName]:
    return frozenset((eta.sender, eta.receiver))


@dataclass(frozen=True, slots=True)
class Interaction:
    eta: Eta
    ann: str
    cont: "Choreography"


@dataclass(frozen=True, slots=True)
class Cond:
    proc: ProcessName
    guard: BExpr
    then_branch: "Choreography"
    else_branch: "Choreography"


@dataclass(frozen=True, slots=True)
class Call:
    name: ProcName


@dataclass(frozen=True, slots=True)
class RTCall:
    name: ProcName
    pending: Tuple[ProcessName, ...]
    body: "Choreography"

    def __post_init__(self):
        # Canonical form: the pending list behaves as a set.
        object.__setattr__(self, "pending", tuple(sorted(set(self.pending))))


@dataclass(frozen=True, slots=True)
class End:
    pass


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

def walk(chor: Choreography, path: Tuple[str, ...] = ()):
    """Yield every (path, node) pair depth-first, left to right."""
    yield path, chor
    if isinstance(chor, Interaction):
        yield from walk(chor.cont, path + ("cont",))
    elif isinstance(chor, Cond):
        yield from walk(chor.then_branch, path + ("then",))
        yield from walk(chor.else_branch, path + ("else",))
    elif isinstance(chor, RTCall):
        yield from walk(chor.body, path + ("body",))


def node_at(chor: Choreography, path: Iterable[str]) -> Choreography:
    node = chor
    for step in path:
        if isinstance(node, Interaction) and step == "cont":
            node = node.cont
        elif isinstance(node, Cond) and step == "then":
            node = node.then_branch
        elif isinstance(node, Cond) and step == "else":
            node = node.else_branch
        elif isinstance(node, RTCall) and step == "body":
            node = node.body
        else:
            raise KeyError(f"no node at step {step!r} of {path!r}")
    return node


def format_path(path: Tuple[str, ...]) -> str:
    return "/".join(path) if path else "<root>"


# --------------------------------------------------------------------------
# Well-formedness clauses

def _first(chor: Choreography, bad: Callable[[Choreography], bool]) -> Optional[Tuple[str, ...]]:
    """Path of the first node, depth-first and left to right, that is ``bad``."""
    return next((path for path, node in walk(chor) if bad(node)), None)


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
    if isinstance(chor, Interaction):
        return eta_processes(chor.eta) | ccc_pn(chor.cont, names)
    if isinstance(chor, Cond):
        return (frozenset((chor.proc,))
                | ccc_pn(chor.then_branch, names)
                | ccc_pn(chor.else_branch, names))
    if isinstance(chor, Call):
        return frozenset(names(chor.name))
    if isinstance(chor, RTCall):
        return frozenset(chor.pending) | ccc_pn(chor.body, names)
    return frozenset()


def ccp_pn(program: CCProgram) -> FrozenSet[ProcessName]:
    """Processes occurring in a program: its main plus every defined procedure."""
    out = ccc_pn(program.main, program.defs.names)
    for name in program.defs.support():
        out |= frozenset(program.defs.vars(name))
    return out


def well_ann(program: CCProgram, name: ProcName) -> bool:
    procs = program.defs.vars(name)
    if not procs:
        return False
    return ccc_pn(program.defs.body(name), program.defs.names) <= set(procs)


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


def used_procedures_c(chor: Choreography, allowed: Iterable[ProcName]) -> bool:
    allowed = set(allowed)
    for _, node in walk(chor):
        if isinstance(node, (Call, RTCall)) and node.name not in allowed:
            return False
    return True


def used_procedures(program: CCProgram, allowed: Iterable[ProcName]) -> bool:
    """The program only calls procedures in ``allowed``, which are themselves
    closed under calls; everything else is defined as End."""
    allowed = set(allowed)
    if not used_procedures_c(program.main, allowed):
        return False
    for name in allowed:
        if not used_procedures_c(program.defs.body(name), allowed):
            return False
    for name in program.defs.support():
        if name not in allowed:
            if program.defs.body(name) != END or not program.defs.vars(name):
                return False
    return True


class UsedProceduresViolated(Exception):
    """The declared procedure check-set does not cover the program's calls."""


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


def program_wf_dec(program: CCProgram, check_set: Iterable[ProcName]) -> WfReport:
    """Decide ``program_wf`` over the finitely many procedures that matter.

    Requires ``used_procedures(program, check_set)`` and reports the first
    violated clause in a fixed order: the main choreography's clauses, then
    each procedure's clauses in name order.
    """
    check_set = tuple(check_set)
    if not used_procedures(program, check_set):
        raise UsedProceduresViolated(
            f"program calls procedures outside the check set {sorted(set(check_set))!r}")

    main = program.main
    path = _first(main, _self_comm)
    if path is not None:
        return WfReport(False, "no_self_comm", "main", path, "interaction with itself")
    path = _first(main, _empty_pending)
    if path is not None:
        return WfReport(False, "no_empty_ann", "main", path, "runtime term with no pending processes")
    path = _first(main, _escapes(program.defs.names))
    if path is not None:
        node = node_at(main, path)
        return WfReport(False, "consistent", "main", path,
                        f"pending processes escape procedure {node.name}")

    for name in sorted(set(program.defs.support()) | set(check_set)):
        body = program.defs.body(name)
        path = _first(body, _self_comm)
        if path is not None:
            return WfReport(False, "no_self_comm", name, path, "interaction with itself")
        path = _first(body, _runtime_term)
        if path is not None:
            return WfReport(False, "initial", name, path, "runtime term in a procedure body")
        if not well_ann(program, name):
            procs = program.defs.vars(name)
            if not procs:
                return WfReport(False, "well_ann", name, (), "empty process list")
            escaped = sorted(ccc_pn(body, program.defs.names) - set(procs))
            return WfReport(False, "well_ann", name, (),
                            f"processes {escaped} not declared by the procedure")
    return WfReport(True)
