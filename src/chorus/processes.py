"""Process behaviours and networks.

A behaviour is the local program of one process.  Branching terms store
their two optional offers in order (left, right), each as an
``(annotation, behaviour)`` pair.  Networks are total maps from process
names to behaviours with default ``End``; explicit ``End`` entries are
pruned so extensional equality is plain ``==``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Tuple, Union

from .values import (
    HASH_PARTS, BExpr, Expr, ProcessName, SelLabel, TargetProcName, TotalMap, VarName, cached_hash,
)


@dataclass(frozen=True, slots=True)
class BEnd:
    pass


@dataclass(frozen=True, slots=True)
class Send:
    peer: ProcessName
    expr: Expr
    ann: str
    cont: "Behaviour"
    _hash: int = field(init=False, compare=False, repr=False)
    __hash__ = cached_hash


@dataclass(frozen=True, slots=True)
class Recv:
    peer: ProcessName
    var: VarName
    ann: str
    cont: "Behaviour"
    _hash: int = field(init=False, compare=False, repr=False)
    __hash__ = cached_hash


@dataclass(frozen=True, slots=True)
class Choose:
    peer: ProcessName
    label: SelLabel
    ann: str
    cont: "Behaviour"
    _hash: int = field(init=False, compare=False, repr=False)
    __hash__ = cached_hash


# One offered continuation of a branching term.
BranchSlot = Optional[Tuple[str, "Behaviour"]]


@dataclass(frozen=True, slots=True)
class Branch:
    peer: ProcessName
    left: BranchSlot
    right: BranchSlot
    _hash: int = field(init=False, compare=False, repr=False)
    __hash__ = cached_hash


@dataclass(frozen=True, slots=True)
class BCond:
    guard: BExpr
    then_branch: "Behaviour"
    else_branch: "Behaviour"
    _hash: int = field(init=False, compare=False, repr=False)
    __hash__ = cached_hash


@dataclass(frozen=True, slots=True)
class BCall:
    name: TargetProcName


Behaviour = Union[BEnd, Send, Recv, Choose, Branch, BCond, BCall]

B_END = BEnd()


# The compared fields and the subterms of each behaviour kind, for ``cached_hash``.
HASH_PARTS.update({kind: (attrgetter(*kind.__match_args__), subterms) for kind, subterms in (
    *((prefix, lambda node: (node.cont,)) for prefix in (Send, Recv, Choose)),
    (Branch, lambda node: [slot[1] for slot in (node.left, node.right) if slot is not None]),
    (BCond, attrgetter("then_branch", "else_branch")))})


def behaviour_wf(process: ProcessName, behaviour: Behaviour) -> bool:
    """No action in the behaviour names ``process`` as its own peer."""
    stack = [behaviour]
    while stack:
        node = stack.pop()
        if getattr(node, "peer", None) == process:
            return False
        stack += HASH_PARTS[type(node)][1](node) if type(node) in HASH_PARTS else ()
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
