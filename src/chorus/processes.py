"""Process behaviours and networks.

A behaviour is the local program of one process.  Branching terms store
their two optional offers in order (left, right), each as an
``(annotation, behaviour)`` pair.  Networks are total maps from process
names to behaviours with default ``End``; explicit ``End`` entries are
pruned so extensional equality is plain ``==``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .values import Node, ProcessName, TargetProcName, TotalMap


class BEnd(Node):
    FIELDS = {}


class Send(Node):
    FIELDS = {"peer": None, "expr": None, "ann": None, "cont": "cont"}


class Recv(Node):
    FIELDS = {"peer": None, "var": None, "ann": None, "cont": "cont"}


class Choose(Node):
    FIELDS = {"peer": None, "label": None, "ann": None, "cont": "cont"}


class Branch(Node):
    FIELDS = {"peer": None, "left": "left", "right": "right"}

    def children(self) -> list:
        """The subtree of each offer made."""
        return [(step, offer[1]) for step, offer in (("left", self.left), ("right", self.right))
                if offer is not None]


class BCond(Node):
    FIELDS = {"guard": None, "then_branch": "then", "else_branch": "else"}


class BCall(Node):
    FIELDS = {"name": None}


Behaviour = Union[BEnd, Send, Recv, Choose, Branch, BCond, BCall]

B_END = BEnd()


def behaviour_wf(process: ProcessName, behaviour: Behaviour) -> bool:
    """No action in the behaviour names ``process`` as its own peer."""
    stack = [behaviour]
    while stack:
        node = stack.pop()
        if getattr(node, "peer", None) == process:
            return False
        stack += (tree for _, tree in node.children())
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
