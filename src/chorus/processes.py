"""Process behaviours and networks.

A behaviour is the local program of one process.  Branching terms store
their two optional offers in order (left, right), each as an
``(annotation, behaviour)`` pair.  Networks are total maps from process
names to behaviours with default ``End``; explicit ``End`` entries are
pruned so extensional equality is plain ``==``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .values import BExpr, Expr, ProcessName, SelLabel, TargetProcName, TotalMap, VarName


@dataclass(frozen=True, slots=True)
class BEnd:
    pass


@dataclass(frozen=True, slots=True)
class Send:
    peer: ProcessName
    expr: Expr
    ann: str
    cont: "Behaviour"


@dataclass(frozen=True, slots=True)
class Recv:
    peer: ProcessName
    var: VarName
    ann: str
    cont: "Behaviour"


@dataclass(frozen=True, slots=True)
class Choose:
    peer: ProcessName
    label: SelLabel
    ann: str
    cont: "Behaviour"


# One offered continuation of a branching term.
BranchSlot = Optional[Tuple[str, "Behaviour"]]


@dataclass(frozen=True, slots=True)
class Branch:
    peer: ProcessName
    left: BranchSlot
    right: BranchSlot


@dataclass(frozen=True, slots=True)
class BCond:
    guard: BExpr
    then_branch: "Behaviour"
    else_branch: "Behaviour"


@dataclass(frozen=True, slots=True)
class BCall:
    name: TargetProcName


Behaviour = Union[BEnd, Send, Recv, Choose, Branch, BCond, BCall]

B_END = BEnd()


def behaviour_wf(process: ProcessName, behaviour: Behaviour) -> bool:
    """No action in the behaviour names ``process`` as its own peer."""
    if isinstance(behaviour, (Send, Recv, Choose)):
        return behaviour.peer != process and behaviour_wf(process, behaviour.cont)
    if isinstance(behaviour, Branch):
        if behaviour.peer == process:
            return False
        for slot in (behaviour.left, behaviour.right):
            if slot is not None and not behaviour_wf(process, slot[1]):
                return False
        return True
    if isinstance(behaviour, BCond):
        return (behaviour_wf(process, behaviour.then_branch)
                and behaviour_wf(process, behaviour.else_branch))
    return True


class Network(TotalMap):
    """Total map from process names to behaviours, default ``End``."""

    __slots__ = ()
    DEFAULT = B_END


EMPTY_NETWORK = Network()


def singleton(process: ProcessName, behaviour: Behaviour) -> Network:
    return Network({process: behaviour})


class DefSetB(TotalMap):
    """Total map from per-process procedure copies to behaviours, default End."""

    __slots__ = ()
    DEFAULT = B_END

    def with_def(self, name: TargetProcName, behaviour: Behaviour) -> "DefSetB":
        return self.put(name, behaviour)


@dataclass(frozen=True)
class SPProgram:
    defs: DefSetB
    network: Network
