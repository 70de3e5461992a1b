"""Labelled-transition semantics of choreographies.

Three layers: ``cc_step`` is the rich-label step relation (a partial
function of the label, on canonical states), ``ccp_step`` is its image
under ``forget`` on configurations, and ``ccp_multistep`` folds the latter
over a list of observable labels.

``cc_step`` implements eleven rules:

* head rules for communication, selection, and conditionals;
* join rules for procedure calls: the first process to join a ``Call``
  expands it (to the body directly if the procedure uses one process,
  otherwise to a runtime term listing the processes still to join), and
  further processes leave the runtime term, the last one consuming it;
* delay rules executing a later instruction out of order when its
  processes are disjoint from the head instruction (for a conditional,
  both branches must take the same step to the same state; for a runtime
  term, the step must not involve pending processes).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .choreography import (
    CCProgram, Call, Choreography, ComEta, Cond, DefSet, End, Interaction, RTCall, PROCESS_BIT,
)
from .labels import (
    RCall, RCom, RCond, RSel, RichLabel, TransitionLabel, forget, label_processes,
    multistep,
)
from .values import Failure, State, eval_bexpr_on_state, eval_on_state, fold


@dataclass(frozen=True)
class CCConfiguration:
    program: CCProgram
    state: State


def cc_step(defs: DefSet, chor: Choreography, state: State,
            label: RichLabel) -> Optional[Tuple[Choreography, State]]:
    """Apply one rich-labelled transition; None when the label is not
    enabled.  The interactions and runtime terms it is delayed past are
    walked in a loop and rebuilt over the step (``_taken``); only a
    conditional starts a ``fold``, its branches stepping to one state."""
    taken, spine = partial(_taken, defs, state, label, label_processes(label)), []
    try:
        result = taken(chor)
        while type(result) is list and len(result) == 1:
            spine.append(chor)
            chor = result[0][1]
            result = taken(chor)
        succ, state = fold(chor, taken, _rebuilt) if type(result) is list else result
    except Failure:
        return None
    for node in reversed(spine):
        succ = node.rebuild(succ)
    return succ, state


def _taken(defs: DefSet, state: State, label: RichLabel, processes, chor: Choreography):
    """The successor and state where ``label``'s rule applies to ``chor``,
    or the subtrees it is delayed past; a ``Failure`` where it is neither."""
    kind = type(chor)
    if kind is Interaction:
        eta = chor.eta
        if eta.sender not in processes and eta.receiver not in processes:
            return chor.children()  # the label is delayed past it
        if type(eta) is ComEta:
            if (type(label) is RCom and label.sender == eta.sender
                    and label.receiver == eta.receiver and label.var == eta.var
                    and label.value == eval_on_state(eta.expr, state, eta.sender)):
                return chor.cont, state.put((eta.receiver, eta.var), label.value)
        elif (type(label) is RSel and label.sender == eta.sender
              and label.receiver == eta.receiver and label.label is eta.label):
            return chor.cont, state
        raise Failure
    if kind is Cond:
        if chor.proc not in processes:
            return chor.children()
        if type(label) is not RCond:
            raise Failure
        return (chor.then_branch if eval_bexpr_on_state(chor.guard, state, chor.proc)
                else chor.else_branch), state
    if kind is End:
        raise Failure  # End has no transitions
    # A join: the first process of a Call, or a pending one of a runtime term.
    procs, body = ((defs.vars(chor.name), defs.body(chor.name)) if kind is Call
                   else (chor.pending, chor.body))
    if type(label) is RCall and label.name == chor.name and label.proc in procs:
        rest = tuple(p for p in procs if p != label.proc)
        return (RTCall(chor.name, rest, body) if rest else body), state
    if not (kind is RTCall and processes.isdisjoint(chor.pending)):
        raise Failure
    return chor.children()


def _rebuilt(chor: Choreography, results) -> Tuple[Choreography, State]:
    """``chor`` over its stepped subtrees; the branches of a conditional step to one state."""
    (succ, succ_state), *others = results
    if any(state != succ_state for _, state in others):
        raise Failure
    return chor.rebuild(succ, *(other for other, _ in others)), succ_state


def cc_moves(defs: DefSet, chor: Choreography,
             state: State) -> Iterator[Callable[[], Tuple[RichLabel, Choreography, State]]]:
    """The enabled transitions as an iterator of moves: calling one builds
    its rich label, successor and state.  The walk goes only as far as the
    moves pulled, and nothing is built for a move not called.

    The order is deterministic: the head rule first, then delayed
    transitions in syntactic depth order (join labels iterate processes in
    canonical order).

    By the delay rules, a transition inside a node is enabled only if its
    processes are disjoint from those of every instruction above the node.
    Each of its processes lies in the node's ``bits`` (all bits if the node
    holds a ``Call``); so the walk skips every node whose processes are all
    blocked, and a step costs the nodes above that frontier.  The walk is
    one loop, which keeps the conditionals it went into on a stack.
    """
    return _enabled(defs, chor, state)


def cc_enabled(defs: DefSet, chor: Choreography,
               state: State) -> List[Tuple[RichLabel, Choreography, State]]:
    """All enabled rich labels with their successors, in ``cc_moves`` order."""
    return [move() for move in cc_moves(defs, chor, state)]


def _move(spine: list, length: int, label: Optional[RichLabel], chor: Choreography,
          state: State) -> Tuple[RichLabel, Choreography, State]:
    """A transition under the first ``length`` nodes of ``spine``, which are
    interactions and runtime terms: by ``label`` to ``chor`` and ``state``,
    or if ``label`` is None, by the head rule of ``chor`` from ``state``."""
    if label is None and isinstance(chor, Cond):
        label = RCond(chor.proc)
        chor = (chor.then_branch if eval_bexpr_on_state(chor.guard, state, chor.proc)
                else chor.else_branch)
    elif label is None:
        eta, chor = chor.eta, chor.cont
        if isinstance(eta, ComEta):
            value = eval_on_state(eta.expr, state, eta.sender)
            label, state = (RCom(eta.sender, value, eta.receiver, eta.var),
                            state.put((eta.receiver, eta.var), value))
        else:
            label = RSel(eta.sender, eta.receiver, eta.label)
    for node in reversed(spine[:length]):
        chor = node.rebuild(chor)
    return label, chor, state


def _enabled(defs: DefSet, chor: Choreography, state: State) -> Iterator:
    """The moves of ``chor``, yielded as the walk finds them.  The walk goes
    down one path: along runs of interactions and runtime terms, and past a
    conditional's head move into its then branch, with the processes of what
    it went past blocked.  ``conds`` holds each conditional it went into,
    with the spine above it; a move found below them is lifted out
    (``_lift``).  A move keeps the spine with its length when made, as the
    walk goes on appending."""
    spine, conds, blocked = [], [], 0
    while chor.bits & ~blocked:
        kind = type(chor)
        if kind is Interaction or kind is Cond:
            bits = (PROCESS_BIT[chor.eta.sender] | PROCESS_BIT[chor.eta.receiver]
                    if kind is Interaction else PROCESS_BIT[chor.proc])
            if not bits & blocked:
                move = partial(_move, spine, len(spine), None, chor, state)
                if not conds or (move := _lift(defs, conds, move, state)):
                    yield move
            blocked |= bits
            if kind is Cond:
                conds.append((spine, chor))
                spine, chor = [], chor.then_branch
                continue
            spine.append(chor)
            chor = chor.cont
            continue
        # A join: the first process of a Call, or a pending one of a runtime term.
        procs, body = ((defs.vars(chor.name), defs.body(chor.name)) if kind is Call
                       else (chor.pending, chor.body))
        for process in procs:
            if not PROCESS_BIT[process] & blocked:
                rest = tuple(p for p in procs if p != process)
                move = partial(_move, spine, len(spine), RCall(chor.name, process),
                               RTCall(chor.name, rest, body) if rest else body, state)
                if not conds or (move := _lift(defs, conds, move, state)):
                    yield move
        if kind is Call:
            break
        # Steps in the body run ahead of the pending processes.
        spine.append(chor)
        blocked |= sum(PROCESS_BIT[p] for p in chor.pending)
        chor = body


def _lift(defs: DefSet, conds: list, move, state: State):
    """``move``, found in the then branches of the conditionals of ``conds``,
    as a move of the whole term, or None if one of them does not take it:
    its else branch must take the same step to the same state."""
    stepped = {}  # label and states are the same at every level: each else branch steps once
    for spine, cond in reversed(conds):
        label, then_cont, succ_state = move()
        other = stepped.get(cond.else_branch) or cc_step(defs, cond.else_branch, state, label)
        if other is None or other[1] != succ_state:
            return None
        stepped[cond.else_branch] = other
        move = partial(_move, spine, len(spine), label, cond.rebuild(then_cont, other[0]),
                       succ_state)
    return move


def ccp_step(conf: CCConfiguration, label: TransitionLabel) -> List[CCConfiguration]:
    """All successor configurations under one observable label.

    ``forget`` is not injective, so one observable label may correspond to
    several rich transitions.
    """
    defs = conf.program.defs
    return [CCConfiguration(CCProgram(defs, chor), state)
            for rich, chor, state in cc_enabled(defs, conf.program.main, conf.state)
            if forget(rich) == label]


def ccp_multistep(conf: CCConfiguration,
                  labels: Sequence[TransitionLabel]) -> List[CCConfiguration]:
    """Fold ``ccp_step`` over a label list; the empty list yields the input."""
    return multistep(ccp_step, conf, labels)
