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
from dataclasses import dataclass
from functools import partial
from itertools import combinations
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
from .projection import EppFailure, epp, epp_c, more_branches_net, str_proj_p
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
    net: Optional[Network]  # None outside the projection games
    dist: int
    parent: Optional["_Node"] = None
    via: Optional[RichLabel] = None


class _Mismatch(Exception):
    """A game step the other side cannot match: (reason, failing label)."""


def _bfs(root: _Node, expand, nodes: List[_Node]) -> None:
    """Breadth-first search from ``root``, appending each node to ``nodes``
    as it is dequeued.  ``expand(node)`` returns the node's children as
    ``(label, chor, state, net)``; a child is queued unless its
    configuration was seen before.  If ``expand`` raises, the search ends
    and ``nodes`` ends with the node it was expanding."""
    queue = deque([root])
    visited = {(root.chor, root.state, root.net)}
    while queue:
        node = queue.popleft()
        nodes.append(node)
        for label, chor, state, net in expand(node):
            key = (chor, state, net)
            if key not in visited:
                visited.add(key)
                queue.append(_Node(chor, state, net, node.dist + 1, node, label))


def _trace(node: _Node) -> List[dict]:
    """The labels from the root to ``node``."""
    steps = []
    while node.parent is not None:
        steps.append({"rich": rich_to_json(node.via),
                      "label": transition_to_json(forget(node.via))})
        node = node.parent
    steps.reverse()
    return steps


def _explore(program: CCProgram, state: State, depth: int) -> List[Tuple[_Node, list]]:
    """The configurations reachable within ``depth`` steps, in BFS order,
    each with its enabled transitions (also at the bound, where the scans
    still inspect them)."""
    graph = []

    def expand(node):
        enabled = cc_enabled(program.defs, node.chor, node.state)
        graph.append((node, enabled))
        return [(*move, None) for move in enabled] if node.dist < depth else ()

    _bfs(_Node(program.main, state, None, 0), expand, [])
    return graph


def _determinism(program: CCProgram, graph: list, depth: int) -> VerifyReport:
    """Each enabled rich label occurs once, determines its successor, and
    distinct labels lead to distinct successor choreographies."""
    for node, enabled in graph:
        labels = [label for label, _, _ in enabled]
        if len(labels) != len(set(labels)):
            return _fail("determinism", node, len(graph), depth,
                         "a rich label was enumerated twice")
        successors: Dict[Choreography, RichLabel] = {}
        for label, chor, succ_state in enabled:
            stepped = cc_step(program.defs, node.chor, node.state, label)
            if stepped != (chor, succ_state):
                return _fail("determinism", node, len(graph), depth,
                             f"enumeration and step disagree on {rich_text(label)}")
            if chor in successors:
                return _fail(
                    "determinism", node, len(graph), depth,
                    f"labels {rich_text(successors[chor])} and {rich_text(label)} "
                    "reach the same choreography")
            successors[chor] = label
    return VerifyReport("determinism", True, len(graph), depth)


def _diamond(program: CCProgram, graph: list, depth: int) -> VerifyReport:
    """Any two distinct enabled labels commute and converge in one step."""
    defs = program.defs
    for node, enabled in graph:
        for (label_a, chor_a, state_a), (label_b, chor_b, state_b) in combinations(enabled, 2):
            after_ab = cc_step(defs, chor_a, state_a, label_b)
            after_ba = cc_step(defs, chor_b, state_b, label_a)
            if after_ab is None or after_ba is None or after_ab != after_ba:
                return _fail(
                    "diamond", node, len(graph), depth,
                    f"{rich_text(label_a)} and {rich_text(label_b)} do not commute")
    return VerifyReport("diamond", True, len(graph), depth)


def _progress(program: CCProgram, graph: list, depth: int) -> VerifyReport:
    """Well-formed reachable configurations are stuck only at End."""
    for node, enabled in graph:
        if node.chor == END or enabled:
            continue
        if program_wf(CCProgram(program.defs, node.chor)):
            return _fail("progress", node, len(graph), depth,
                         "well-formed configuration is stuck before End")
    return VerifyReport("progress", True, len(graph), depth)


def _termination_unique(program: CCProgram, graph: list, depth: int) -> VerifyReport:
    """All reachable terminated configurations share one state."""
    terminals = [node for node, _ in graph if node.chor == END]
    for node in terminals[1:]:
        if node.state != terminals[0].state:
            report = _fail("termination_unique", node, len(graph), depth,
                           "two terminated runs end in different states")
            report.counterexample["other_trace"] = _trace(terminals[0])
            return report
    return VerifyReport("termination_unique", True, len(graph), depth)


def check_determinism(program: CCProgram, state: State, depth: int) -> VerifyReport:
    return _determinism(program, _explore(program, state, depth), depth)


def check_diamond(program: CCProgram, state: State, depth: int) -> VerifyReport:
    return _diamond(program, _explore(program, state, depth), depth)


def check_progress(program: CCProgram, state: State, depth: int) -> VerifyReport:
    return _progress(program, _explore(program, state, depth), depth)


def check_termination_unique(program: CCProgram, state: State, depth: int) -> VerifyReport:
    return _termination_unique(program, _explore(program, state, depth), depth)


def _fail(name: str, node: _Node, explored: int, depth: int, reason: str,
          failing: Optional[RichLabel] = None) -> VerifyReport:
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


def _run_game(name: str, program: CCProgram, state: State, depth: int,
              check_set: Iterable[str] = (), initial_network: Optional[Network] = None,
              initial_defs: Optional[DefSetB] = None) -> VerifyReport:
    """In ``complete`` the choreography moves and the network matches each
    move; in ``sound`` the network moves and the choreography matches."""
    check_set = tuple(check_set)
    if not str_proj_p(program, check_set):
        raise NotStronglyProjectable(
            "the projection game needs a well-formed, strongly projectable program")
    defs = program.defs
    processes = ccp_pn(program)
    projected = epp(program, check_set)
    assert not isinstance(projected, EppFailure)
    net_defs = initial_defs if initial_defs is not None else projected.defs
    net0 = initial_network if initial_network is not None else projected.network

    def expand(node):
        if node.dist >= depth:
            return ()
        children: List[Tuple[RichLabel, Choreography, State, Network]] = []
        if name == "complete":
            for label, chor, succ_state in cc_enabled(defs, node.chor, node.state):
                stepped = sp_step(net_defs, node.net, node.state, _sp_label(label))
                if stepped is None:
                    raise _Mismatch(
                        f"network cannot match choreography step {rich_text(label)}", label)
                net, net_state = stepped
                if net_state != succ_state:
                    raise _Mismatch("matched step ends in a different state", label)
                children.append((label, chor, succ_state, net))
        else:
            for sp_rich, net, net_state in sp_enabled(net_defs, node.net, node.state):
                label = _cc_label(sp_rich)
                if label is None:
                    raise _Mismatch(
                        f"network call {rich_text(sp_rich)} is not the caller's own copy",
                        sp_rich)
                stepped = cc_step(defs, node.chor, node.state, label)
                if stepped is None:
                    raise _Mismatch(
                        f"choreography cannot match network step {rich_text(sp_rich)}",
                        sp_rich)
                chor, succ_state = stepped
                if succ_state != net_state:
                    raise _Mismatch("matched step ends in a different state", sp_rich)
                children.append((label, chor, succ_state, net))
        # Every child, seen before or not, must stay above its projection.
        for label, chor, _, net in children:
            projection = epp_c(defs, processes, chor)
            if isinstance(projection, EppFailure):
                raise _Mismatch(f"successor is not projectable: {projection}", label)
            if not more_branches_net(net, projection):
                raise _Mismatch(
                    "matched network dropped below the projection of the successor", label)
        return children

    nodes: List[_Node] = []
    try:
        _bfs(_Node(program.main, state, net0, 0), expand, nodes)
    except _Mismatch as mismatch:
        return _fail(name, nodes[-1], len(nodes), depth, *mismatch.args)
    return VerifyReport(name, True, len(nodes), depth)


def check_epp_complete(program: CCProgram, state: State, depth: int,
                       check_set: Iterable[str] = (),
                       initial_network: Optional[Network] = None,
                       initial_defs: Optional[DefSetB] = None) -> VerifyReport:
    """Every choreography step is matched by its projection."""
    return _run_game("complete", program, state, depth, check_set, initial_network, initial_defs)


def check_epp_sound(program: CCProgram, state: State, depth: int,
                    check_set: Iterable[str] = (),
                    initial_network: Optional[Network] = None,
                    initial_defs: Optional[DefSetB] = None) -> VerifyReport:
    """Every step of the projection is matched by the choreography."""
    return _run_game("sound", program, state, depth, check_set, initial_network, initial_defs)


_CHECKS = {
    "complete": partial(_run_game, "complete"),
    "sound": partial(_run_game, "sound"),
    "determinism": _determinism,
    "diamond": _diamond,
    "progress": _progress,
    "termination": _termination_unique,
}


def check_property(name: str, program: CCProgram, state: State, depth: int,
                   check_set: Iterable[str] = ()) -> List[VerifyReport]:
    """Run one named check, or all of them in a fixed order.  The meta-checks
    scan one configuration graph, explored once per call."""
    reports, graph = [], None
    for key in (_CHECKS if name == "all" else [name]):
        check = _CHECKS[key]
        if key in ("complete", "sound"):
            reports.append(check(program, state, depth, check_set))
        else:
            graph = graph or _explore(program, state, depth)
            reports.append(check(program, graph, depth))
    return reports
