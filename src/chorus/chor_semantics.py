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
    CCProgram, Call, Choreography, ComEta, Cond, DefSet, Interaction, RTCall,
    SelEta, PROCESS_BIT, eta_processes,
)
from .labels import (
    RCall, RCom, RCond, RSel, RichLabel, TransitionLabel, forget, label_processes,
    multistep,
)
from .values import State, eval_bexpr_on_state, eval_on_state


@dataclass(frozen=True)
class CCConfiguration:
    program: CCProgram
    state: State


def cc_step(defs: DefSet, chor: Choreography, state: State,
            label: RichLabel) -> Optional[Tuple[Choreography, State]]:
    """Apply one rich-labelled transition; None when the label is not enabled.
    The instructions the label is delayed past, runs of interactions and
    runtime terms, are walked in a loop and rebuilt on the way back; only a
    conditional it is delayed past recurses, into both branches."""
    processes, spine = label_processes(label), []
    while True:
        if isinstance(chor, Interaction):
            eta = chor.eta
            if isinstance(eta, ComEta) and isinstance(label, RCom):
                if (label.sender == eta.sender and label.receiver == eta.receiver
                        and label.var == eta.var
                        and label.value == eval_on_state(eta.expr, state, eta.sender)):
                    chor, state = chor.cont, state.put((eta.receiver, eta.var), label.value)
                    break
            elif isinstance(eta, SelEta) and isinstance(label, RSel):
                if (label.sender == eta.sender and label.receiver == eta.receiver
                        and label.label is eta.label):
                    chor = chor.cont
                    break
            if not processes.isdisjoint(eta_processes(eta)):
                return None
            spine.append(chor)
            chor = chor.cont
        elif isinstance(chor, Cond):
            if isinstance(label, RCond) and label.proc == chor.proc:
                chor = (chor.then_branch if eval_bexpr_on_state(chor.guard, state, chor.proc)
                        else chor.else_branch)
                break
            if chor.proc in processes:
                return None
            first = cc_step(defs, chor.then_branch, state, label)
            second = first and cc_step(defs, chor.else_branch, state, label)
            if second is None or first[1] != second[1]:
                return None
            chor, state = Cond(chor.proc, chor.guard, first[0], second[0]), first[1]
            break
        elif isinstance(chor, (Call, RTCall)):
            # A join: the first process of a Call, or a pending one of a runtime term.
            procs, body = ((defs.vars(chor.name), defs.body(chor.name)) if isinstance(chor, Call)
                           else (chor.pending, chor.body))
            if isinstance(label, RCall) and label.name == chor.name and label.proc in procs:
                rest = tuple(p for p in procs if p != label.proc)
                chor = RTCall(chor.name, rest, body) if rest else body
                break
            if not (isinstance(chor, RTCall) and processes.isdisjoint(chor.pending)):
                return None
            spine.append(chor)
            chor = body
        else:
            return None  # End has no transitions
    for node in reversed(spine):
        chor = (Interaction(node.eta, node.ann, chor) if isinstance(node, Interaction)
                else RTCall(node.name, node.pending, chor))
    return chor, state


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
    blocked, and a step costs the nodes above that frontier.  Runs of
    interactions and runtime terms are walked in a loop, without recursion.
    """
    return _enabled(defs, chor, state, 0)


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
        chor = (Interaction(node.eta, node.ann, chor) if isinstance(node, Interaction)
                else RTCall(node.name, node.pending, chor))
    return label, chor, state


def _enabled(defs: DefSet, chor: Choreography, state: State, blocked: int) -> Iterator:
    """The moves of ``chor`` that avoid the processes in ``blocked``, yielded
    as the walk finds them.  A move keeps the spine with its length when
    made, as the walk goes on appending."""
    spine = []
    while chor.bits & ~blocked:
        if isinstance(chor, Interaction):
            bits = PROCESS_BIT[chor.eta.sender] | PROCESS_BIT[chor.eta.receiver]
            if not bits & blocked:
                yield partial(_move, spine, len(spine), None, chor, state)
            spine.append(chor)
            blocked |= bits
            chor = chor.cont
            continue
        if isinstance(chor, Cond):
            bit = PROCESS_BIT[chor.proc]
            if not bit & blocked:
                yield partial(_move, spine, len(spine), None, chor, state)
            # Both branches must take the step to the same state: built here.
            for move in _enabled(defs, chor.then_branch, state, blocked | bit):
                label, then_cont, succ_state = move()
                other = cc_step(defs, chor.else_branch, state, label)
                if other is not None and other[1] == succ_state:
                    succ = Cond(chor.proc, chor.guard, then_cont, other[0])
                    yield partial(_move, spine, len(spine), label, succ, succ_state)
            break
        # A join: the first process of a Call, or a pending one of a runtime term.
        procs, body = ((defs.vars(chor.name), defs.body(chor.name)) if isinstance(chor, Call)
                       else (chor.pending, chor.body))
        for process in procs:
            if not PROCESS_BIT[process] & blocked:
                rest = tuple(p for p in procs if p != process)
                succ = body if len(procs) == 1 else RTCall(chor.name, rest, body)
                yield partial(_move, spine, len(spine), RCall(chor.name, process), succ, state)
        if not isinstance(chor, RTCall):
            break
        # Steps in the body run ahead of the pending processes.
        spine.append(chor)
        blocked |= sum(PROCESS_BIT[p] for p in chor.pending)
        chor = body


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
