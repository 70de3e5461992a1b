"""Structural reading of ``.sp`` network files, independent of ``chorus``.

``parse_sp`` turns the text into ``(defs, network)``: dictionaries keyed by
``(procedure, process)`` and by process, holding behaviours in the tuple
shape of ``gen`` and leaving out ``end`` entries, as the toolkit's own maps
do.  Two files that print the same network differently (spacing, line
breaks, order of definitions or processes) read the same.  Sequences of
prefixes are read in a loop, so long straight-line behaviours need no deep
recursion; only branching terms and conditionals nest.
"""
from __future__ import annotations

import re
from typing import Dict, List, Tuple

from gen import B_END

_TOKEN = re.compile(r"\s*(?:(\(\+\))|(==|<=|&&)|([A-Za-z_][A-Za-z0-9_]*)|(\d+)|(.))", re.S)


class SpSyntaxError(ValueError):
    pass


def _tokens(text: str) -> List[str]:
    out = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        match = _TOKEN.match(text, pos)
        out.append(match.group(match.lastindex))
        pos = match.end()
    out.append("")
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, want: str = None) -> str:
        tok = self.peek()
        if want is not None and tok != want:
            raise SpSyntaxError(f"expected {want!r}, found {tok!r} at token {self.pos}")
        self.pos += 1
        return tok

    def name(self) -> str:
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise SpSyntaxError(f"expected a name, found {tok!r}")
        return tok

    # expressions ---------------------------------------------------------

    def expr(self):
        out = self.atom()
        while self.peek() == "+":
            self.take()
            out = ("plus", out, self.atom())
        return out

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return ("lit", int(tok))
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if tok == "succ":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return ("succ", inner)
        return ("var", tok)

    def guard(self):
        out = self.gterm()
        while self.peek() == "&&":
            self.take()
            out = ("and", out, self.gterm())
        return out

    def gterm(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return ("not", self.gterm())
        if tok == "(":
            saved = self.pos
            try:
                self.take()
                inner = self.guard()
                self.take(")")
                return inner
            except SpSyntaxError:
                self.pos = saved
        left = self.expr()
        op = self.take()
        if op not in ("==", "<="):
            raise SpSyntaxError(f"expected a comparison, found {op!r}")
        return ("eq" if op == "==" else "le", left, self.expr())

    # behaviours ----------------------------------------------------------

    def behaviour(self):
        prefixes = []
        while True:
            tok = self.peek()
            if tok == "end":
                self.take()
                return tuple(prefixes), ("end",)
            if tok == "call":
                self.take()
                name = self.name()
                self.take("@")
                return tuple(prefixes), ("call", name, self.name())
            if tok == "if":
                self.take()
                guard = self.guard()
                self.take("then")
                self.take("{")
                then_b = self.behaviour()
                self.take("}")
                self.take("else")
                self.take("{")
                else_b = self.behaviour()
                self.take("}")
                return tuple(prefixes), ("cond", guard, then_b, else_b)
            peer = self.name()
            op = self.take()
            if op == "!":
                prefixes.append(("send", peer, self.expr()))
            elif op == "?":
                prefixes.append(("recv", peer, self.name()))
            elif op == "(+)":
                prefixes.append(("choose", peer, self.take()))
            elif op == "&":
                self.take("{")
                slots = {}
                while self.peek() != "}":
                    label = self.take()
                    if label not in ("left", "right") or label in slots:
                        raise SpSyntaxError(f"bad offer {label!r}")
                    self.take(":")
                    slots[label] = self.behaviour()
                    if self.peek() == "|":
                        self.take()
                self.take("}")
                return tuple(prefixes), ("branch", peer, slots.get("left"), slots.get("right"))
            else:
                raise SpSyntaxError(f"unexpected {op!r} after {peer!r}")
            self.take(";")


def parse_sp(text: str) -> Tuple[Dict[Tuple[str, str], tuple], Dict[str, tuple]]:
    reader = _Reader(text)
    defs: Dict[Tuple[str, str], tuple] = {}
    while reader.peek() == "def":
        reader.take()
        name = reader.name()
        reader.take("@")
        proc = reader.name()
        reader.take("{")
        body = reader.behaviour()
        reader.take("}")
        if (name, proc) in defs:
            raise SpSyntaxError(f"{name}@{proc} defined twice")
        if body != B_END:
            defs[(name, proc)] = body
    network: Dict[str, tuple] = {}
    while True:
        proc = reader.name()
        reader.take("[")
        beh = reader.behaviour()
        reader.take("]")
        if proc in network:
            raise SpSyntaxError(f"process {proc} given twice")
        if beh != B_END:
            network[proc] = beh
        if reader.peek() != "|":
            break
        reader.take()
    if reader.peek() != "":
        raise SpSyntaxError(f"trailing input at {reader.peek()!r}")
    return defs, network
