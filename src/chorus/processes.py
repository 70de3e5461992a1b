"""Process behaviours, networks, and network algebra.

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


def behaviour_depth(behaviour: Behaviour) -> int:
    """AST depth; branch slots count like any other subterm."""
    if isinstance(behaviour, (Send, Recv, Choose)):
        return 1 + behaviour_depth(behaviour.cont)
    if isinstance(behaviour, Branch):
        depths = [0]
        for slot in (behaviour.left, behaviour.right):
            if slot is not None:
                depths.append(behaviour_depth(slot[1]))
        return 1 + max(depths)
    if isinstance(behaviour, BCond):
        return 1 + max(behaviour_depth(behaviour.then_branch),
                       behaviour_depth(behaviour.else_branch))
    return 1


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


def par(first: Network, second: Network) -> Network:
    """Left-biased union: the first network wins where both are defined."""
    procs = {p: second.get(p) for p in second.support()}
    procs.update({p: first.get(p) for p in first.support()})
    return Network(procs)


def remove(network: Network, process: ProcessName) -> Network:
    return network.put(process, B_END)


def network_disjoint(first: Network, second: Network) -> bool:
    """Every process is terminated in at least one of the two networks."""
    return not set(first.support()) & set(second.support())


def network_wf(network: Network) -> bool:
    return all(behaviour_wf(p, b) for p, b in network.items())


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
