"""Bounded, executable checks of the semantic meta-properties.

Every check explores the configurations reachable within ``depth`` steps
and returns a ``VerifyReport``; failures carry a counterexample trace of
rich labels that replays through the semantics modules.

The projection checks play a bisimulation-style game between a program and
its projection.  Labels correspond one-to-one across the two sides: value
communications, selections and conditionals carry identical rich labels,
and a choreography-side join ``call(X, p)`` corresponds to the network-side
call ``call(X@p, p)`` of that process's own procedure copy.  The game
maintains the invariant that the network stays pointwise above the
projection of the current choreography in the branching order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .chor_semantics import cc_enabled, cc_step
from .choreography import (
    CCProgram, Choreography, END, ccp_pn, program_wf,
)
from .labels import (
    RCall, RichLabel, forget, rich_text, rich_to_json, transition_to_json,
)
from .proc_semantics import sp_enabled, sp_step
from .processes import DefSetB, Network
from .projection import (
    EppFailure, clear_projection_cache, epp, epp_c, more_branches_net, str_proj_p,
)
from .values import State


class NotStronglyProjectable(Exception):
    """The projection game needs a strongly projectable program."""


@dataclass
class VerifyReport:
    property_name: str
    passed: bool
    nodes: int
    depth: int
    counterexample: Optional[dict] = None
    detail: Optional[str] = None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "property": self.property_name,
            "verdict": self.verdict,
            "nodes": self.nodes,
            "depth": self.depth,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


@dataclass
class _Node:
    chor: Choreography
    state: State
    dist: int
    parent: Optional["_Node"] = None
    via: Optional[RichLabel] = None
    enabled: list = field(default_factory=list)


def _trace(node) -> List[dict]:
    """The labels from the root to ``node`` (a ``_Node`` or ``_GameNode``)."""
    steps = []
    while node.parent is not None:
        steps.append({"rich": rich_to_json(node.via),
                      "label": transition_to_json(forget(node.via))})
        node = node.parent
    steps.reverse()
    return steps


def _explore(program: CCProgram, state: State, depth: int) -> List[_Node]:
    """BFS over reachable configurations, recording enabled transitions."""
    defs = program.defs
    root = _Node(program.main, state, 0)
    queue = deque([root])
    visited = {(program.main, state)}
    nodes = []
    while queue:
        node = queue.popleft()
        node.enabled = cc_enabled(defs, node.chor, node.state)
        nodes.append(node)
        if node.dist >= depth:
            continue
        for label, chor, succ_state in node.enabled:
            key = (chor, succ_state)
            if key not in visited:
                visited.add(key)
                queue.append(_Node(chor, succ_state, node.dist + 1, node, label))
    return nodes


def check_determinism(program: CCProgram, state: State, depth: int) -> VerifyReport:
    """Each enabled rich label occurs once, determines its successor, and
    distinct labels lead to distinct successor choreographies."""
    nodes = _explore(program, state, depth)
    for node in nodes:
        labels = [label for label, _, _ in node.enabled]
        if len(labels) != len(set(labels)):
            return _fail("determinism", node, None, len(nodes), depth,
                         "a rich label was enumerated twice")
        successors: Dict[Choreography, RichLabel] = {}
        for label, chor, succ_state in node.enabled:
            stepped = cc_step(program.defs, node.chor, node.state, label)
            if stepped != (chor, succ_state):
                return _fail("determinism", node, None, len(nodes), depth,
                             f"enumeration and step disagree on {rich_text(label)}")
            if chor in successors:
                return _fail(
                    "determinism", node, None, len(nodes), depth,
                    f"labels {rich_text(successors[chor])} and {rich_text(label)} "
                    "reach the same choreography")
            successors[chor] = label
    return VerifyReport("determinism", True, len(nodes), depth)


def check_diamond(program: CCProgram, state: State, depth: int) -> VerifyReport:
    """Any two distinct enabled labels commute and converge in one step."""
    defs = program.defs
    nodes = _explore(program, state, depth)
    for node in nodes:
        for i in range(len(node.enabled)):
            label_a, chor_a, state_a = node.enabled[i]
            for j in range(i + 1, len(node.enabled)):
                label_b, chor_b, state_b = node.enabled[j]
                after_ab = cc_step(defs, chor_a, state_a, label_b)
                after_ba = cc_step(defs, chor_b, state_b, label_a)
                if after_ab is None or after_ba is None or after_ab != after_ba:
                    return _fail(
                        "diamond", node, None, len(nodes), depth,
                        f"{rich_text(label_a)} and {rich_text(label_b)} do not commute")
    return VerifyReport("diamond", True, len(nodes), depth)


def check_progress(program: CCProgram, state: State, depth: int) -> VerifyReport:
    """Well-formed reachable configurations are stuck only at End."""
    nodes = _explore(program, state, depth)
    for node in nodes:
        if node.chor == END or node.enabled:
            continue
        if program_wf(CCProgram(program.defs, node.chor)):
            return _fail("progress", node, None, len(nodes), depth,
                         "well-formed configuration is stuck before End")
    return VerifyReport("progress", True, len(nodes), depth)


def check_termination_unique(program: CCProgram, state: State, depth: int) -> VerifyReport:
    """All reachable terminated configurations share one state."""
    nodes = _explore(program, state, depth)
    terminal: Optional[_Node] = None
    for node in nodes:
        if node.chor != END:
            continue
        if terminal is None:
            terminal = node
        elif node.state != terminal.state:
            report = _fail("termination_unique", node, None, len(nodes), depth,
                           "two terminated runs end in different states")
            report.counterexample["other_trace"] = _trace(terminal)
            return report
    return VerifyReport("termination_unique", True, len(nodes), depth)


def _fail(name: str, node, failing: Optional[RichLabel], explored: int, depth: int,
          reason: str) -> VerifyReport:
    """A failed report whose counterexample replays the path to ``node``,
    then the ``failing`` label unless it is None."""
    counterexample = {"trace": _trace(node), "reason": reason}
    if failing is not None:
        counterexample["failing"] = {"rich": rich_to_json(failing),
                                     "label": transition_to_json(forget(failing))}
    return VerifyReport(name, False, explored, depth, counterexample, reason)


# --------------------------------------------------------------------------
# Projection games

def _sp_label(label: RichLabel) -> RichLabel:
    if isinstance(label, RCall):
        return RCall((label.name, label.proc), label.proc)
    return label


def _cc_label(label: RichLabel) -> Optional[RichLabel]:
    if isinstance(label, RCall):
        name = label.name
        if not (isinstance(name, tuple) and len(name) == 2 and name[1] == label.proc):
            return None
        return RCall(name[0], label.proc)
    return label


@dataclass
class _GameNode:
    chor: Choreography
    state: State
    net: Network
    dist: int
    parent: Optional["_GameNode"] = None
    via: Optional[RichLabel] = None


def _run_game(name: str, program: CCProgram, state: State, depth: int,
              check_set: Iterable[str], initial_network: Optional[Network],
              initial_defs: Optional[DefSetB], chor_drives: bool) -> VerifyReport:
    check_set = tuple(check_set)
    if not str_proj_p(program, check_set):
        raise NotStronglyProjectable(
            "the projection game needs a well-formed, strongly projectable program")
    clear_projection_cache()
    defs = program.defs
    processes = ccp_pn(program)
    projected = epp(program, check_set)
    assert not isinstance(projected, EppFailure)
    net_defs = initial_defs if initial_defs is not None else projected.defs
    net0 = initial_network if initial_network is not None else projected.network

    root = _GameNode(program.main, state, net0, 0)
    queue = deque([root])
    visited = {(root.chor, root.state, root.net)}
    explored = 0
    while queue:
        node = queue.popleft()
        explored += 1
        if node.dist >= depth:
            continue

        children: List[Tuple[RichLabel, Choreography, State, Network]] = []
        if chor_drives:
            for label, chor, succ_state in cc_enabled(defs, node.chor, node.state):
                stepped = sp_step(net_defs, node.net, node.state, _sp_label(label))
                if stepped is None:
                    return _fail(
                        name, node, label, explored, depth,
                        f"network cannot match choreography step {rich_text(label)}")
                net, net_state = stepped
                if net_state != succ_state:
                    return _fail(name, node, label, explored, depth,
                                 "matched step ends in a different state")
                children.append((label, chor, succ_state, net))
        else:
            for sp_rich, net, net_state in sp_enabled(net_defs, node.net, node.state):
                label = _cc_label(sp_rich)
                if label is None:
                    return _fail(
                        name, node, sp_rich, explored, depth,
                        f"network call {rich_text(sp_rich)} is not the caller's own copy")
                stepped = cc_step(defs, node.chor, node.state, label)
                if stepped is None:
                    return _fail(
                        name, node, sp_rich, explored, depth,
                        f"choreography cannot match network step {rich_text(sp_rich)}")
                chor, succ_state = stepped
                if succ_state != net_state:
                    return _fail(name, node, sp_rich, explored, depth,
                                 "matched step ends in a different state")
                children.append((label, chor, succ_state, net))

        for label, chor, succ_state, net in children:
            projection = epp_c(defs, processes, chor)
            if isinstance(projection, EppFailure):
                return _fail(name, node, label, explored, depth,
                             f"successor is not projectable: {projection}")
            if not more_branches_net(net, projection):
                return _fail(
                    name, node, label, explored, depth,
                    "matched network dropped below the projection of the successor")
            key = (chor, succ_state, net)
            if key not in visited:
                visited.add(key)
                queue.append(_GameNode(chor, succ_state, net, node.dist + 1, node, label))
    return VerifyReport(name, True, explored, depth)


def check_epp_complete(program: CCProgram, state: State, depth: int,
                       check_set: Iterable[str] = (),
                       initial_network: Optional[Network] = None,
                       initial_defs: Optional[DefSetB] = None) -> VerifyReport:
    """Every choreography step is matched by its projection."""
    return _run_game("complete", program, state, depth, check_set,
                     initial_network, initial_defs, chor_drives=True)


def check_epp_sound(program: CCProgram, state: State, depth: int,
                    check_set: Iterable[str] = (),
                    initial_network: Optional[Network] = None,
                    initial_defs: Optional[DefSetB] = None) -> VerifyReport:
    """Every step of the projection is matched by the choreography."""
    return _run_game("sound", program, state, depth, check_set,
                     initial_network, initial_defs, chor_drives=False)


_CHECKS = {
    "complete": check_epp_complete,
    "sound": check_epp_sound,
    "determinism": check_determinism,
    "diamond": check_diamond,
    "progress": check_progress,
    "termination": check_termination_unique,
}


def check_property(name: str, program: CCProgram, state: State, depth: int,
                   check_set: Iterable[str] = ()) -> List[VerifyReport]:
    """Run one named check, or all of them in a fixed order."""
    names = list(_CHECKS) if name == "all" else [name]
    reports = []
    for key in names:
        check = _CHECKS[key]
        if key in ("complete", "sound"):
            reports.append(check(program, state, depth, check_set))
        else:
            reports.append(check(program, state, depth))
    return reports
