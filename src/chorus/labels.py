"""Transition labels shared by the choreography and process semantics.

Rich labels carry full syntactic information (stored variable, procedure
name); ``forget`` erases them to the observable labels.  ``RCall.name`` is a
procedure name on the choreography side and a per-process procedure copy
``(name, process)`` on the network side.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Sequence, Union

from .values import ProcessName, SelLabel, Value, VarName, value_text, value_to_json


@dataclass(frozen=True, slots=True)
class RCom:
    sender: ProcessName
    value: Value
    receiver: ProcessName
    var: VarName


@dataclass(frozen=True, slots=True)
class RSel:
    sender: ProcessName
    receiver: ProcessName
    label: SelLabel


@dataclass(frozen=True, slots=True)
class RCond:
    proc: ProcessName


@dataclass(frozen=True, slots=True)
class RCall:
    name: object  # ProcName | TargetProcName
    proc: ProcessName


RichLabel = Union[RCom, RSel, RCond, RCall]


@dataclass(frozen=True, slots=True)
class TCom:
    sender: ProcessName
    value: Value
    receiver: ProcessName


@dataclass(frozen=True, slots=True)
class TSel:
    sender: ProcessName
    receiver: ProcessName
    label: SelLabel


@dataclass(frozen=True, slots=True)
class TTau:
    proc: ProcessName


TransitionLabel = Union[TCom, TSel, TTau]


def forget(label: RichLabel) -> TransitionLabel:
    if isinstance(label, RCom):
        return TCom(label.sender, label.value, label.receiver)
    if isinstance(label, RSel):
        return TSel(label.sender, label.receiver, label.label)
    if isinstance(label, RCond):
        return TTau(label.proc)
    if isinstance(label, RCall):
        return TTau(label.proc)
    raise TypeError(f"not a rich label: {label!r}")


def label_processes(label: RichLabel) -> FrozenSet[ProcessName]:
    """Processes taking part in a transition, for disjointness checks."""
    if isinstance(label, (RCom, RSel)):
        return frozenset((label.sender, label.receiver))
    return frozenset((label.proc,))


def multistep(step: Callable, conf, labels: Sequence[TransitionLabel]) -> list:
    """Fold ``step`` (configuration and label to the list of successor
    configurations) over a label list, dropping duplicate configurations.

    The empty list yields ``[conf]``; the order is that of first occurrence.
    """
    current = [conf]
    for label in labels:
        current = list(dict.fromkeys(succ for c in current for succ in step(c, label)))
    return current


# --------------------------------------------------------------------------
# Rendering

def transition_text(label: TransitionLabel) -> str:
    if isinstance(label, TCom):
        return f"com({label.sender},{value_text(label.value)},{label.receiver})"
    if isinstance(label, TSel):
        return f"sel({label.sender},{label.receiver},{label.label.value})"
    return f"tau({label.proc})"


def rich_text(label: RichLabel) -> str:
    if isinstance(label, RCom):
        return f"com({label.sender},{value_text(label.value)},{label.receiver},{label.var})"
    if isinstance(label, RSel):
        return f"sel({label.sender},{label.receiver},{label.label.value})"
    if isinstance(label, RCond):
        return f"cond({label.proc})"
    name = label.name
    shown = f"{name[0]}@{name[1]}" if isinstance(name, tuple) else name
    return f"call({shown},{label.proc})"


def transition_to_json(label: TransitionLabel) -> dict:
    if isinstance(label, TCom):
        return {"kind": "com", "from": label.sender, "to": label.receiver,
                "value": value_to_json(label.value)}
    if isinstance(label, TSel):
        return {"kind": "sel", "from": label.sender, "to": label.receiver,
                "sel": label.label.value}
    return {"kind": "tau", "at": label.proc}


def rich_to_json(label: RichLabel) -> dict:
    if isinstance(label, RCom):
        return {"kind": "com", "from": label.sender, "to": label.receiver,
                "value": value_to_json(label.value), "var": label.var}
    if isinstance(label, RSel):
        return {"kind": "sel", "from": label.sender, "to": label.receiver,
                "sel": label.label.value}
    if isinstance(label, RCond):
        return {"kind": "cond", "at": label.proc}
    name = label.name
    return {"kind": "call",
            "proc": list(name) if isinstance(name, tuple) else name,
            "at": label.proc}
