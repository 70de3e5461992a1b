"""Transition labels shared by the choreography and process semantics.

Rich labels carry full syntactic information (stored variable, procedure
name); ``forget`` erases them to the observable labels.  ``RCall.name`` is a
procedure name on the choreography side and a per-process procedure copy
``(name, process)`` on the network side.  Each label kind is a ``Node``
kind of leaves only, but not shared as syntax is: a label carries values,
and a key holding a pair value nested deep would overflow the C stack when
hashed.  So labels compare by kind and fields, and hash once.
``step_json`` writes the JSON trace line of a step straight from its rich label.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, FrozenSet, Sequence, Union

from .values import Node, ProcessName, value_text, value_to_json


class RCom(Node, shared=False):
    FIELDS = {"sender": None, "value": None, "receiver": None, "var": None}


class RSel(Node, shared=False):
    FIELDS = {"sender": None, "receiver": None, "label": None}


class RCond(Node, shared=False):
    FIELDS = {"proc": None}


class RCall(Node, shared=False):
    FIELDS = {"name": None, "proc": None}  # name: ProcName | TargetProcName


RichLabel = Union[RCom, RSel, RCond, RCall]


class TCom(Node, shared=False):
    FIELDS = {"sender": None, "value": None, "receiver": None}


class TSel(Node, shared=False):
    FIELDS = {"sender": None, "receiver": None, "label": None}


class TTau(Node, shared=False):
    FIELDS = {"proc": None}


TransitionLabel = Union[TCom, TSel, TTau]


def forget(label: RichLabel) -> TransitionLabel:
    if isinstance(label, RCom):
        return TCom(label.sender, label.value, label.receiver)
    if isinstance(label, RSel):
        return TSel(label.sender, label.receiver, label.label)
    if isinstance(label, (RCond, RCall)):
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


def step_json(rich: RichLabel) -> str:
    """The trace line of one step, exactly ``json.dumps({"label":
    transition_to_json(forget(rich)), "rich": rich_to_json(rich)})``, written
    with one f-string per kind and no intermediate dicts."""
    if isinstance(rich, RCom):
        value = rich.value
        shown = str(value) if type(value) is int else value_text(value, "[]")
        ends = f'"from": {_quote(rich.sender)}, "to": {_quote(rich.receiver)}, "value": {shown}'
        return (f'{{"label": {{"kind": "com", {ends}}}, '
                f'"rich": {{"kind": "com", {ends}, "var": {_quote(rich.var)}}}}}')
    if isinstance(rich, RSel):
        sel = (f'{{"kind": "sel", "from": {_quote(rich.sender)}, '
               f'"to": {_quote(rich.receiver)}, "sel": {_quote(rich.label.value)}}}')
        return f'{{"label": {sel}, "rich": {sel}}}'
    if not isinstance(rich, (RCond, RCall)):
        raise TypeError(f"not a rich label: {rich!r}")
    at = _quote(rich.proc)
    if isinstance(rich, RCond):
        return f'{{"label": {{"kind": "tau", "at": {at}}}, "rich": {{"kind": "cond", "at": {at}}}}}'
    name = rich.name
    proc = f'[{", ".join(map(_quote, name))}]' if isinstance(name, tuple) else _quote(name)
    return (f'{{"label": {{"kind": "tau", "at": {at}}}, '
            f'"rich": {{"kind": "call", "proc": {proc}, "at": {at}}}}}')
