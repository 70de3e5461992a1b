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
from typing import List, Optional, Sequence, Tuple

from .choreography import (
    CCProgram, Call, Choreography, ComEta, Cond, DefSet, Interaction,
    RTCall, SelEta, eta_processes,
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
    """Apply one rich-labelled transition; None when the label is not enabled."""
    if isinstance(chor, Interaction):
        eta = chor.eta
        if isinstance(eta, ComEta) and isinstance(label, RCom):
            if (label.sender == eta.sender and label.receiver == eta.receiver
                    and label.var == eta.var
                    and label.value == eval_on_state(eta.expr, state, eta.sender)):
                return chor.cont, state.put((eta.receiver, eta.var), label.value)
        elif isinstance(eta, SelEta) and isinstance(label, RSel):
            if (label.sender == eta.sender and label.receiver == eta.receiver
                    and label.label is eta.label):
                return chor.cont, state
        if label_processes(label).isdisjoint(eta_processes(eta)):
            res = cc_step(defs, chor.cont, state, label)
            if res is not None:
                return Interaction(eta, chor.ann, res[0]), res[1]
        return None

    if isinstance(chor, Cond):
        if isinstance(label, RCond) and label.proc == chor.proc:
            if eval_bexpr_on_state(chor.guard, state, chor.proc):
                return chor.then_branch, state
            return chor.else_branch, state
        if chor.proc not in label_processes(label):
            first = cc_step(defs, chor.then_branch, state, label)
            if first is not None:
                second = cc_step(defs, chor.else_branch, state, label)
                if second is not None and first[1] == second[1]:
                    return Cond(chor.proc, chor.guard, first[0], second[0]), first[1]
        return None

    if isinstance(chor, Call):
        if isinstance(label, RCall) and label.name == chor.name:
            procs = defs.vars(chor.name)
            if label.proc in procs:
                body = defs.body(chor.name)
                if len(procs) == 1:
                    return body, state
                remaining = tuple(p for p in procs if p != label.proc)
                return RTCall(chor.name, remaining, body), state
        return None

    if isinstance(chor, RTCall):
        if (isinstance(label, RCall) and label.name == chor.name
                and label.proc in chor.pending):
            if len(chor.pending) == 1:
                return chor.body, state
            remaining = tuple(p for p in chor.pending if p != label.proc)
            return RTCall(chor.name, remaining, chor.body), state
        if label_processes(label).isdisjoint(chor.pending):
            res = cc_step(defs, chor.body, state, label)
            if res is not None:
                return RTCall(chor.name, chor.pending, res[0]), res[1]
        return None

    return None  # End: terminated choreographies have no transitions.


def cc_enabled(defs: DefSet, chor: Choreography,
               state: State) -> List[Tuple[RichLabel, Choreography, State]]:
    """All enabled rich labels with their successors.

    The order is deterministic: the head rule first, then delayed
    transitions in syntactic depth order (join labels iterate processes in
    canonical order).
    """
    out: List[Tuple[RichLabel, Choreography, State]] = []
    if isinstance(chor, Interaction):
        eta = chor.eta
        if isinstance(eta, ComEta):
            value = eval_on_state(eta.expr, state, eta.sender)
            out.append((RCom(eta.sender, value, eta.receiver, eta.var), chor.cont,
                        state.put((eta.receiver, eta.var), value)))
        else:
            out.append((RSel(eta.sender, eta.receiver, eta.label), chor.cont, state))
        blocked = eta_processes(eta)
        for label, cont, succ_state in cc_enabled(defs, chor.cont, state):
            if label_processes(label).isdisjoint(blocked):
                out.append((label, Interaction(eta, chor.ann, cont), succ_state))
    elif isinstance(chor, Cond):
        if eval_bexpr_on_state(chor.guard, state, chor.proc):
            out.append((RCond(chor.proc), chor.then_branch, state))
        else:
            out.append((RCond(chor.proc), chor.else_branch, state))
        for label, then_cont, succ_state in cc_enabled(defs, chor.then_branch, state):
            if chor.proc not in label_processes(label):
                other = cc_step(defs, chor.else_branch, state, label)
                if other is not None and other[1] == succ_state:
                    out.append((label,
                                Cond(chor.proc, chor.guard, then_cont, other[0]),
                                succ_state))
    elif isinstance(chor, Call):
        procs = defs.vars(chor.name)
        body = defs.body(chor.name)
        for process in procs:
            if len(procs) == 1:
                succ: Choreography = body
            else:
                succ = RTCall(chor.name, tuple(p for p in procs if p != process), body)
            out.append((RCall(chor.name, process), succ, state))
    elif isinstance(chor, RTCall):
        for process in chor.pending:
            if len(chor.pending) == 1:
                succ = chor.body
            else:
                succ = RTCall(chor.name,
                              tuple(p for p in chor.pending if p != process), chor.body)
            out.append((RCall(chor.name, process), succ, state))
        for label, body_cont, succ_state in cc_enabled(defs, chor.body, state):
            if label_processes(label).isdisjoint(chor.pending):
                out.append((label, RTCall(chor.name, chor.pending, body_cont), succ_state))
    return out


def ccp_step(conf: CCConfiguration, label: TransitionLabel) -> List[CCConfiguration]:
    """All successor configurations under one observable label.

    ``forget`` is not injective, so one observable label may correspond to
    several rich transitions.
    """
    defs = conf.program.defs
    out = []
    for rich, chor, state in cc_enabled(defs, conf.program.main, conf.state):
        if forget(rich) == label:
            out.append(CCConfiguration(CCProgram(defs, chor), state))
    return out


def ccp_multistep(conf: CCConfiguration,
                  labels: Sequence[TransitionLabel]) -> List[CCConfiguration]:
    """Fold ``ccp_step`` over a label list; the empty list yields the input."""
    return multistep(ccp_step, conf, labels)
