"""Labelled-transition semantics of networks.

Six rules on canonical networks: a communication consumes matching send and
receive prefixes of two processes, a selection consumes a choose prefix and
resolves the offered slot of the partner's branching term (one rule per
label), conditionals and procedure calls run locally.  The middle and top
layers mirror the choreography side: image under ``forget``, then folding
over label lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .labels import (
    RCall, RCom, RCond, RSel, RichLabel, TransitionLabel, forget, multistep,
)
from .processes import (
    BCall, BCond, Branch, Choose, DefSetB, Network, Recv, SPProgram, Send,
)
from .values import SelLabel, State, eval_bexpr_on_state, eval_on_state


@dataclass(frozen=True)
class SPConfiguration:
    program: SPProgram
    state: State


def sp_step(defs: DefSetB, network: Network, state: State,
            label: RichLabel) -> Optional[Tuple[Network, State]]:
    """Apply one rich-labelled network transition; None when not enabled."""
    if isinstance(label, RCom):
        sender = network.get(label.sender)
        if isinstance(sender, Send) and sender.peer == label.receiver:
            receiver = network.get(label.receiver)
            if (isinstance(receiver, Recv) and receiver.peer == label.sender
                    and receiver.var == label.var
                    and label.value == eval_on_state(sender.expr, state, label.sender)):
                updated = network.put(label.sender, sender.cont).put(label.receiver, receiver.cont)
                return updated, state.put((label.receiver, label.var), label.value)
        return None

    if isinstance(label, RSel):
        sender = network.get(label.sender)
        if (isinstance(sender, Choose) and sender.peer == label.receiver
                and sender.label is label.label):
            receiver = network.get(label.receiver)
            if isinstance(receiver, Branch) and receiver.peer == label.sender:
                slot = receiver.left if label.label is SelLabel.LEFT else receiver.right
                if slot is not None:
                    updated = network.put(label.sender, sender.cont).put(label.receiver, slot[1])
                    return updated, state
        return None

    if isinstance(label, RCond):
        behaviour = network.get(label.proc)
        if isinstance(behaviour, BCond):
            if eval_bexpr_on_state(behaviour.guard, state, label.proc):
                return network.put(label.proc, behaviour.then_branch), state
            return network.put(label.proc, behaviour.else_branch), state
        return None

    if isinstance(label, RCall):
        behaviour = network.get(label.proc)
        if isinstance(behaviour, BCall) and behaviour.name == label.name:
            return network.put(label.proc, defs.get(label.name)), state
        return None

    return None


def sp_enabled(defs: DefSetB, network: Network,
               state: State) -> List[Tuple[RichLabel, Network, State]]:
    """All enabled transitions, iterating processes in name order.

    Communications and selections are keyed by the sending process, so each
    appears exactly once.
    """
    out: List[Tuple[RichLabel, Network, State]] = []
    for process in network.support():
        behaviour = network.get(process)
        if isinstance(behaviour, Send):
            partner = network.get(behaviour.peer)
            if isinstance(partner, Recv) and partner.peer == process:
                value = eval_on_state(behaviour.expr, state, process)
                updated = network.put(process, behaviour.cont).put(behaviour.peer, partner.cont)
                out.append((RCom(process, value, behaviour.peer, partner.var), updated,
                            state.put((behaviour.peer, partner.var), value)))
        elif isinstance(behaviour, Choose):
            partner = network.get(behaviour.peer)
            if isinstance(partner, Branch) and partner.peer == process:
                slot = partner.left if behaviour.label is SelLabel.LEFT else partner.right
                if slot is not None:
                    updated = network.put(process, behaviour.cont).put(behaviour.peer, slot[1])
                    out.append((RSel(process, behaviour.peer, behaviour.label), updated, state))
        elif isinstance(behaviour, BCond):
            if eval_bexpr_on_state(behaviour.guard, state, process):
                out.append((RCond(process), network.put(process, behaviour.then_branch), state))
            else:
                out.append((RCond(process), network.put(process, behaviour.else_branch), state))
        elif isinstance(behaviour, BCall):
            out.append((RCall(behaviour.name, process),
                        network.put(process, defs.get(behaviour.name)), state))
    return out


def spp_step(conf: SPConfiguration, label: TransitionLabel) -> List[SPConfiguration]:
    defs = conf.program.defs
    out = []
    for rich, network, state in sp_enabled(defs, conf.program.network, conf.state):
        if forget(rich) == label:
            out.append(SPConfiguration(SPProgram(defs, network), state))
    return out


def spp_multistep(conf: SPConfiguration,
                  labels: Sequence[TransitionLabel]) -> List[SPConfiguration]:
    """Fold ``spp_step`` over a label list; the empty list yields the input."""
    return multistep(spp_step, conf, labels)
