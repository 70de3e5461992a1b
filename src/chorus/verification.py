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
from typing import Dict, List, Optional, Tuple

from .chor_semantics import cc_enabled, cc_step
from .choreography import (
    CCProgram, Choreography, END, ccp_pn, program_wf,
)
from .labels import (
    RCall, RCond, RichLabel, forget, label_processes, rich_text, rich_to_json,
    transition_to_json,
)
from .proc_semantics import sp_enabled, sp_step
from .processes import Network, SPProgram
from .projection import (
    EppFailure, bproj, epp_c, more_branches, more_branches_net, strongly_projected,
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
    net: Optional[Network]  # None outside the projection games
    dist: int
    parent: Optional["_Node"] = None
    via: Optional[RichLabel] = None
    proj: Optional[Network] = None  # in the games: chor's projection, once net is checked above it
    # In a linked search: each label ``expand`` gave, to its child's node.
    children: Optional[Dict[RichLabel, "_Node"]] = None


class _Mismatch(Exception):
    """A game step the other side cannot match: (reason, failing label)."""


def _bfs(root: _Node, expand, nodes: List[_Node], project=None) -> None:
    """Breadth-first search from ``root``, appending each node to ``nodes``
    as it is dequeued.  ``expand(node)`` returns the node's children as
    ``(label, chor, state, net)``; a child is queued unless its configuration
    ``(chor, state, net)`` was seen before.  In the games,
    ``project(node, label, chor, net)`` checks a new child and returns its
    projection.  The check depends only on ``chor`` and ``net``, so a child
    seen before passes it again, unless it returns to a root the caller
    passed in unchecked (``proj`` None): that child is checked too.  If
    ``expand`` or ``project`` raises, the search ends and ``nodes`` ends with
    the node it was expanding.  If the root has a ``children`` map, the
    search is linked: every node gets one, which maps each label ``expand``
    gave to the node of its child's configuration, the one seen first (empty
    where ``expand`` gave none, as at the bound)."""
    queue = deque([root])
    seen = {(root.chor, root.state, root.net): root}
    link = root.children is not None
    while queue:
        node = queue.popleft()
        nodes.append(node)
        for label, chor, state, net in expand(node):
            key = (chor, state, net)
            known = seen.get(key)
            if known is None:
                proj = project(node, label, chor, net) if project else None
                seen[key] = known = _Node(chor, state, net, node.dist + 1, node, label, proj,
                                          {} if link else None)
                queue.append(known)
            elif project and known.proj is None:
                project(node, label, chor, net)
            if link:
                node.children[label] = known


def _step(label: RichLabel) -> dict:
    """One counterexample step: the rich label, then its observable label."""
    return {"rich": rich_to_json(label), "label": transition_to_json(forget(label))}


def _trace(node: _Node) -> List[dict]:
    """The labels from the root to ``node``."""
    steps = []
    while node.parent is not None:
        steps.append(_step(node.via))
        node = node.parent
    steps.reverse()
    return steps


def _explore(program: CCProgram, state: State, depth: int,
             link: bool = False) -> List[Tuple[_Node, list]]:
    """The configurations reachable within ``depth`` steps, in BFS order,
    each with its enabled transitions (also at the bound, where the scans
    still inspect them).  With ``link``, each node maps the labels of its
    enabled list below the bound to their successors' nodes."""
    graph = []

    def expand(node):
        enabled = cc_enabled(program.defs, node.chor, node.state)
        graph.append((node, enabled))
        return [(*move, None) for move in enabled] if node.dist < depth else ()

    _bfs(_Node(program.main, state, None, 0, children={} if link else None), expand, [])
    return graph


def _after(defs, node: Optional[_Node], chor: Choreography, state: State,
           label: RichLabel) -> Optional[Tuple[Choreography, State]]:
    """``cc_step(defs, chor, state, label)``, where ``node``, if not None, is
    the node of ``(chor, state)`` in a linked graph on which determinism has
    passed.  If the node's enabled list holds ``label`` below the bound, the
    successor is read from the node's children: the configuration the
    search saw first, whose choreography is the one node of its tree."""
    if node is not None:
        child = node.children.get(label)
        if child is not None:
            return child.chor, child.state
    return cc_step(defs, chor, state, label)


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
    """Any two distinct enabled labels commute and converge in one step.
    In a linked graph, which determinism has passed, the steps are read from
    the graph (``_after``)."""
    defs = program.defs
    for node, enabled in graph:
        children = node.children or {}
        for (label_a, chor_a, state_a), (label_b, chor_b, state_b) in combinations(enabled, 2):
            after_ab = _after(defs, children.get(label_a), chor_a, state_a, label_b)
            after_ba = _after(defs, children.get(label_b), chor_b, state_b, label_a)
            if after_ab is None or after_ba is None or after_ab != after_ba:
                return _fail(
                    "diamond", node, len(graph), depth,
                    f"{rich_text(label_a)} and {rich_text(label_b)} do not commute")
    return VerifyReport("diamond", True, len(graph), depth)


def _progress(program: CCProgram, graph: list, depth: int) -> VerifyReport:
    """Well-formed reachable configurations are stuck only at End."""
    for node, enabled in graph:
        if node.chor != END and not enabled and program_wf(CCProgram(program.defs, node.chor)):
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


def _on_own_graph(check):
    """``check`` as a function of (program, state, depth): it explores its own graph."""
    return lambda program, state, depth: check(program, _explore(program, state, depth), depth)


check_determinism, check_diamond, check_progress, check_termination_unique = map(
    _on_own_graph, (_determinism, _diamond, _progress, _termination_unique))


def _fail(name: str, node: _Node, explored: int, depth: int, reason: str,
          failing: Optional[RichLabel] = None) -> VerifyReport:
    """A failed report whose counterexample replays the path to ``node``,
    then the ``failing`` label unless it is None."""
    counterexample = {"trace": _trace(node), "reason": reason}
    if failing is not None:
        counterexample["failing"] = _step(failing)
    return VerifyReport(name, False, explored, depth, counterexample, reason)


# --------------------------------------------------------------------------
# Projection games

def _sp_label(label: RichLabel) -> RichLabel:
    return RCall((label.name, label.proc), label.proc) if isinstance(label, RCall) else label


def _cc_label(label: RichLabel) -> Optional[RichLabel]:
    if not isinstance(label, RCall):
        return label
    name = label.name
    own = isinstance(name, tuple) and len(name) == 2 and name[1] == label.proc
    return RCall(name[0], label.proc) if own else None


def _strongly_projected(program: CCProgram) -> SPProgram:
    if (projected := strongly_projected(program)) is None:
        raise NotStronglyProjectable(
            "the projection game needs a well-formed, strongly projectable program")
    return projected


def _run_game(program: CCProgram, state: State, depth: int, initial_network: Optional[Network] = None,
              table: Optional[dict] = None, directions: Tuple[str, ...] = ("complete",),
              projected: Optional[SPProgram] = None) -> VerifyReport:
    """Play each game of ``directions`` on one product graph from
    ``projected``, the projection that decided strong projectability.  In
    ``complete`` the choreography moves and the network matches each move;
    in ``sound`` the network moves and the choreography matches.  With both,
    the two must give each node the same labelled children, else the search
    fails.  ``table``, from ``check_property("all")`` once determinism has
    passed, maps each configuration within the bound to its node in the
    linked meta graph: the complete game reads its moves there, and the
    sound game its matching steps (``_after``).  ``expand`` only matches
    steps; the search checks each new configuration's network above its
    projection (``_checked_projection``), once."""
    projected = projected or _strongly_projected(program)
    defs, net_defs = program.defs, projected.defs
    # A root network the caller passes in is not known to be above the projection.
    root = (_Node(program.main, state, initial_network, 0) if initial_network is not None
            else _Node(program.main, state, projected.network, 0, proj=projected.network))

    def complete(node, meta):
        if meta is None:
            enabled = cc_enabled(defs, node.chor, node.state)
        else:  # the same moves, each to its node's configuration
            enabled = [(label, child.chor, child.state) for label, child in meta.children.items()]
        for label, chor, succ_state in enabled:
            stepped = sp_step(net_defs, node.net, node.state, _sp_label(label))
            if stepped is None:
                raise _Mismatch(
                    f"network cannot match choreography step {rich_text(label)}", label)
            net, net_state = stepped
            if net_state != succ_state:
                raise _Mismatch("matched step ends in a different state", label)
            yield label, chor, succ_state, net

    def sound(node, meta):
        for sp_rich, net, net_state in sp_enabled(net_defs, node.net, node.state):
            label = _cc_label(sp_rich)
            if label is None:
                raise _Mismatch(
                    f"network call {rich_text(sp_rich)} is not the caller's own copy", sp_rich)
            stepped = _after(defs, meta, node.chor, node.state, label)
            if stepped is None:
                raise _Mismatch(
                    f"choreography cannot match network step {rich_text(sp_rich)}", sp_rich)
            chor, succ_state = stepped
            if succ_state != net_state:
                raise _Mismatch("matched step ends in a different state", sp_rich)
            yield label, chor, succ_state, net

    name = "+".join(directions)
    plays = [{"complete": complete, "sound": sound}[direction] for direction in directions]

    def expand(node):
        if node.dist >= depth:
            return ()
        meta = table.get((node.chor, node.state)) if table else None
        children, *others = [list(play(node, meta)) for play in plays]
        for other in others:  # each label once, to the same configuration in both games
            moves = {child[0]: child for child in children}
            if not len(children) == len(moves) == len(other) or moves != {c[0]: c for c in other}:
                raise _Mismatch("the games reach different children")
        return children

    nodes: List[_Node] = []
    try:
        _bfs(root, expand, nodes, partial(_checked_projection, defs, ccp_pn(program)))
    except _Mismatch as mismatch:
        return _fail(name, nodes[-1], len(nodes), depth, *mismatch.args)
    return VerifyReport(name, True, len(nodes), depth)


def _checked_projection(defs, processes, parent: _Node, label: RichLabel,
                        chor: Choreography, net: Network) -> Network:
    """The projection of ``parent``'s child ``chor``; ``_Mismatch`` unless
    ``net`` is pointwise above it.  Projection skips an interaction at each
    process it does not name, also under a conditional or in a runtime term,
    and a join changes only the joiner's projection: the other processes of
    the procedure stay pending, and its body names no one else.  So after a
    communication, a selection or a join only the processes of the label
    are projected again (in name order, as ``epp_c`` goes), and the order is
    checked where the network or the projection is not the checked parent's.
    A conditional's child, or a child of an unchecked root, is projected in
    full."""
    if parent.proj is None or type(label) is RCond:
        proj = epp_c(defs, processes, chor)
        above = isinstance(proj, EppFailure) or more_branches_net(net, proj)
    else:
        proj = parent.proj
        for process in sorted(label_processes(label)):
            result = bproj(defs, chor, process)
            if not result.ok:
                proj = EppFailure("main", process, result.failure)
                break
            proj = proj.put(process, result.behaviour)
        above = isinstance(proj, EppFailure) or all(
            more_branches(net.get(process), proj.get(process))
            for process in net.differs(parent.net) | proj.differs(parent.proj))
    if isinstance(proj, EppFailure):
        raise _Mismatch(f"successor is not projectable: {proj}", label)
    if not above:
        raise _Mismatch("matched network dropped below the projection of the successor", label)
    return proj


# Every choreography step is matched by its projection (complete), and
# every step of the projection by the choreography (sound).
check_epp_complete = partial(_run_game, directions=("complete",))
check_epp_sound = partial(_run_game, directions=("sound",))
GAMES = ("complete", "sound")

_CHECKS = {
    "complete": check_epp_complete,
    "sound": check_epp_sound,
    "determinism": _determinism,
    "diamond": _diamond,
    "progress": _progress,
    "termination": _termination_unique,
}


def check_property(name: str, program: CCProgram, state: State, depth: int) -> List[VerifyReport]:
    """Run one named check, or all of them, reported in a fixed order.  The
    games start from the projection that decided strong projectability.  The
    meta-checks scan one configuration graph, explored once per call.  With
    ``all`` the graph is linked and determinism runs first.  If it passes,
    diamond and the sound game read their steps from the graph, and the
    completeness game its moves; both games are then played on one product
    graph, under ``_CHECKS["complete"]``, and if they pass each reports its
    ``nodes``, the configurations both games reach within the bound.  Any
    failure, or any node where the two disagree, replays each game alone.
    If determinism fails, the graph is unlinked and every other check runs
    as it runs alone."""
    reports, graph, table = {}, None, None
    projected = _strongly_projected(program) if name in ("all", *GAMES) else None
    if name == "all":
        graph = _explore(program, state, depth, link=True)
        table = {(node.chor, node.state): node for node, _ in graph}
        reports["determinism"] = _CHECKS["determinism"](program, graph, depth)
        if not reports["determinism"].passed:  # unlink, so the others run as they run alone
            for node in table.values():
                node.children = None
            table = None
    for key in _CHECKS if name == "all" else [name]:
        check = _CHECKS[key]
        if key == "complete" and table:
            joint = check(program, state, depth, table=table, directions=GAMES, projected=projected)
            if joint.passed:
                reports.update((game, VerifyReport(game, True, joint.nodes, depth)) for game in GAMES)
        if key in reports:
            continue
        if key in GAMES:
            reports[key] = check(program, state, depth, table=table, projected=projected)
        else:
            graph = graph or _explore(program, state, depth)
            reports[key] = check(program, graph, depth)
    for node in (table or {}).values():  # break the node-children cycles, so refcounts free them
        node.children = None
    return [reports[key] for key in _CHECKS if key in reports]
