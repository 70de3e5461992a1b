"""Concrete syntax: parsing and printing of programs, networks, and labels.

Choreography files (``.cc``)::

    program  := procdef* "main" "{" chor "}"
    procdef  := "def" NAME "(" pid ("," pid)* ")" "{" chor "}"
    chor     := eta annot? ";" chor | cond | "call" NAME | "end"
    cond     := "if" pid "." bexpr "then" "{" chor "}" "else" "{" chor "}"
    eta      := pid "." expr "->" pid "." var | pid "->" pid "[" label "]"
    annot    := "@" STRING
    expr     := atom ("+" atom)*
    atom     := NAT | IDENT | "succ" "(" expr ")" | "fst" "(" expr ")"
              | "snd" "(" expr ")" | "pair" "(" expr "," expr ")" | "(" expr ")"
    bexpr    := bterm ("&&" bterm)*
    bterm    := "!" bterm | "true" | "false" | "(" bexpr ")"
              | expr ("==" | "<=") expr

Network files (``.sp``)::

    spprogram := spdef* network
    spdef     := "def" NAME "@" pid "{" behaviour "}"
    network   := procterm ("|" procterm)*
    procterm  := pid "[" behaviour "]"
    behaviour := "end" | "call" NAME "@" pid
              | "if" bexpr "then" "{" behaviour "}" "else" "{" behaviour "}"
              | pid "!" expr annot? ";" behaviour
              | pid "?" IDENT annot? ";" behaviour
              | pid "(+)" label annot? ";" behaviour
              | pid "&" "{" (slot ("|" slot)?)? "}"
    slot      := label annot? ":" behaviour

``#`` starts a line comment.  Runtime terms are only produced by the
semantics: printers render them as ``rt_call NAME [pids] { chor }`` for
trace output, and the parser rejects that form.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .choreography import (
    CCProgram, Call, Choreography, ComEta, Cond, DefSet, DEFAULT_PROCESS, End,
    Interaction, SelEta,
)
from .processes import (
    BCall, BCond, BEnd, Branch, Behaviour, Choose, DefSetB, Network,
    Recv, SPProgram, Send,
)
from .values import (
    And, BExpr, BLit, Eq, Expr, Fst, Leq, Lit, Not, Pair, Plus, SelLabel,
    Snd, Succ, Var,
)

_KEYWORDS = frozenset((
    "def", "main", "if", "then", "else", "call", "end", "left", "right",
    "true", "false", "succ", "fst", "snd", "pair", "rt_call",
))

_SYMBOLS = ("(+)", "->", "==", "<=", "&&", "!", "?", "@", ";", ":", ",",
            ".", "{", "}", "(", ")", "[", "]", "+", "|", "&")


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}-{self.end_line}:{self.end_col}"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | nat | string | sym | eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line, self.col + max(len(self.text), 1))


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: Tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        note = f" (expected {' or '.join(self.expected)})" if self.expected else ""
        return f"{self.span}: {self.message}{note}"


def tokenize(text: str) -> List[Token]:
    tokens = []
    line, col, i = 1, 1, 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < length and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            j, raw = i + 1, []
            while j < length and text[j] != '"':
                if text[j] == "\\" and j + 1 < length:
                    raw.append(text[j:j + 2])
                    j += 2
                else:
                    raw.append(text[j])
                    j += 1
            if j >= length:
                raise ParseError("unterminated string", Span(start_line, start_col, line, col))
            literal = text[i:j + 1]
            try:
                value = json.loads(literal)
            except json.JSONDecodeError:
                raise ParseError(f"bad string literal {literal}",
                                 Span(start_line, start_col, line, col)) from None
            tokens.append(Token("string", value, start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < length and text[j].isdigit():
                j += 1
            tokens.append(Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"stray character {ch!r}", Span(line, col, line, col + 1))
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind in ("sym", "ident") and tok.text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            tok = self.peek()
            raise ParseError(f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                             tok.span, (text,))
        tok = self.peek()
        self.pos += 1
        return tok

    def name(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            raise ParseError(f"found {tok.text!r} where a {what} was needed",
                             tok.span, (what,))
        self.pos += 1
        return tok

    def eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.span, ("end of file",))

    def annot(self) -> str:
        if self.accept("@"):
            tok = self.peek()
            if tok.kind != "string":
                raise ParseError("annotations are quoted strings", tok.span, ("string",))
            self.pos += 1
            return tok.text
        return ""

    # -- expressions --------------------------------------------------

    def expr(self) -> Expr:
        out = self.expr_atom()
        while self.accept("+"):
            out = Plus(out, self.expr_atom())
        return out

    def expr_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "nat":
            self.pos += 1
            return Lit(int(tok.text))
        if self.accept("("):
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text in ("succ", "fst", "snd"):
                self.pos += 1
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return {"succ": Succ, "fst": Fst, "snd": Snd}[tok.text](inner)
            if tok.text == "pair":
                self.pos += 1
                self.expect("(")
                left = self.expr()
                self.expect(",")
                right = self.expr()
                self.expect(")")
                return Pair(left, right)
            if tok.text not in _KEYWORDS:
                self.pos += 1
                return Var(tok.text)
        raise ParseError(f"found {tok.text!r} where an expression was needed",
                         tok.span, ("expression",))

    def bexpr(self) -> BExpr:
        out = self.bterm()
        while self.accept("&&"):
            out = And(out, self.bterm())
        return out

    def bterm(self) -> BExpr:
        tok = self.peek()
        if self.accept("!"):
            return Not(self.bterm())
        if self.accept("true"):
            return BLit(True)
        if self.accept("false"):
            return BLit(False)
        if self.at("("):
            # Either a parenthesised Boolean expression or the start of a
            # comparison operand; try the former, fall back on the latter.
            saved = self.pos
            try:
                self.expect("(")
                inner = self.bexpr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
        left = self.expr()
        if self.accept("=="):
            return Eq(left, self.expr())
        if self.accept("<="):
            return Leq(left, self.expr())
        raise ParseError("comparison needs '==' or '<='", self.peek().span, ("==", "<="))

    def label(self) -> SelLabel:
        if self.accept("left"):
            return SelLabel.LEFT
        if self.accept("right"):
            return SelLabel.RIGHT
        raise ParseError(f"found {self.peek().text!r} where a label was needed",
                         self.peek().span, ("left", "right"))


# --------------------------------------------------------------------------
# Choreography files

@dataclass
class SourceFile:
    text: str
    program: CCProgram
    def_names: Tuple[str, ...]
    spans: Dict[Tuple[str, ...], Span] = field(default_factory=dict)

    def span_at(self, path: Tuple[str, ...]) -> Optional[Span]:
        return self.spans.get(tuple(path))


def parse_cc_file(text: str) -> SourceFile:
    parser = _Parser(text)
    spans: Dict[Tuple[str, ...], Span] = {}
    defs = {}
    names = []
    while parser.at("def"):
        parser.expect("def")
        name_tok = parser.name("procedure name")
        if name_tok.text in defs:
            raise ParseError(f"procedure {name_tok.text} defined twice", name_tok.span)
        parser.expect("(")
        procs = [parser.name("process name").text]
        while parser.accept(","):
            procs.append(parser.name("process name").text)
        parser.expect(")")
        parser.expect("{")
        body = _parse_chor(parser, ("proc", name_tok.text), spans)
        parser.expect("}")
        defs[name_tok.text] = (tuple(procs), body)
        names.append(name_tok.text)
    parser.expect("main")
    parser.expect("{")
    main = _parse_chor(parser, ("main",), spans)
    parser.expect("}")
    parser.eof()
    program = CCProgram(DefSet(defs), main)
    return SourceFile(text, program, tuple(names), spans)


def parse_cc(text: str) -> CCProgram:
    return parse_cc_file(text).program


def _parse_chor(parser: _Parser, path: Tuple[str, ...],
                spans: Dict[Tuple[str, ...], Span]) -> Choreography:
    start = parser.peek()
    if parser.accept("end"):
        spans[path] = start.span
        return End()
    if parser.accept("call"):
        name = parser.name("procedure name")
        spans[path] = Span(start.line, start.col, name.line, name.col + len(name.text))
        return Call(name.text)
    if parser.accept("if"):
        proc = parser.name("process name").text
        parser.expect(".")
        guard = parser.bexpr()
        parser.expect("then")
        parser.expect("{")
        then_branch = _parse_chor(parser, path + ("then",), spans)
        parser.expect("}")
        parser.expect("else")
        parser.expect("{")
        else_branch = _parse_chor(parser, path + ("else",), spans)
        close = parser.expect("}")
        spans[path] = Span(start.line, start.col, close.line, close.col + 1)
        return Cond(proc, guard, then_branch, else_branch)

    sender = parser.name("process name").text
    if parser.accept("->"):
        receiver = parser.name("process name").text
        parser.expect("[")
        label = parser.label()
        parser.expect("]")
        eta = SelEta(sender, receiver, label)
    else:
        parser.expect(".")
        expr = parser.expr()
        parser.expect("->")
        receiver = parser.name("process name").text
        parser.expect(".")
        var = parser.name("variable name").text
        eta = ComEta(sender, expr, receiver, var)
    ann = parser.annot()
    semi = parser.expect(";")
    spans[path] = Span(start.line, start.col, semi.line, semi.col + 1)
    cont = _parse_chor(parser, path + ("cont",), spans)
    return Interaction(eta, ann, cont)


# --------------------------------------------------------------------------
# Network files

@dataclass
class SPSourceFile:
    text: str
    program: SPProgram
    spans: Dict[Tuple, Span] = field(default_factory=dict)


def parse_sp_file(text: str) -> SPSourceFile:
    parser = _Parser(text)
    spans: Dict[Tuple, Span] = {}
    defs = {}
    while parser.at("def"):
        start = parser.expect("def")
        name = parser.name("procedure name").text
        parser.expect("@")
        proc = parser.name("process name").text
        if (name, proc) in defs:
            raise ParseError(f"procedure copy {name}@{proc} defined twice", start.span)
        parser.expect("{")
        body = _parse_behaviour(parser)
        close = parser.expect("}")
        spans[("def", name, proc)] = Span(start.line, start.col, close.line, close.col + 1)
        defs[(name, proc)] = body
    procs = {}
    while True:
        start = parser.peek()
        proc = parser.name("process name").text
        parser.expect("[")
        behaviour = _parse_behaviour(parser)
        close = parser.expect("]")
        spans[("net", proc)] = Span(start.line, start.col, close.line, close.col + 1)
        if proc in procs:
            raise ParseError(f"process {proc} given two behaviours", start.span)
        procs[proc] = behaviour
        if not parser.accept("|"):
            break
    parser.eof()
    return SPSourceFile(text, SPProgram(DefSetB(defs), Network(procs)), spans)


def parse_sp(text: str) -> SPProgram:
    return parse_sp_file(text).program


def _parse_behaviour(parser: _Parser) -> Behaviour:
    if parser.accept("end"):
        return BEnd()
    if parser.accept("call"):
        name = parser.name("procedure name").text
        parser.expect("@")
        proc = parser.name("process name").text
        return BCall((name, proc))
    if parser.accept("if"):
        guard = parser.bexpr()
        parser.expect("then")
        parser.expect("{")
        then_branch = _parse_behaviour(parser)
        parser.expect("}")
        parser.expect("else")
        parser.expect("{")
        else_branch = _parse_behaviour(parser)
        parser.expect("}")
        return BCond(guard, then_branch, else_branch)

    peer = parser.name("process name").text
    if parser.accept("!"):
        expr = parser.expr()
        ann = parser.annot()
        parser.expect(";")
        return Send(peer, expr, ann, _parse_behaviour(parser))
    if parser.accept("?"):
        var = parser.name("variable name").text
        ann = parser.annot()
        parser.expect(";")
        return Recv(peer, var, ann, _parse_behaviour(parser))
    if parser.accept("(+)"):
        label = parser.label()
        ann = parser.annot()
        parser.expect(";")
        return Choose(peer, label, ann, _parse_behaviour(parser))
    parser.expect("&")
    parser.expect("{")
    slots = {}
    if not parser.at("}"):
        while True:
            tok = parser.peek()
            label = parser.label()
            if label in slots:
                raise ParseError(f"offer {label.value} given twice", tok.span)
            ann = parser.annot()
            parser.expect(":")
            slots[label] = (ann, _parse_behaviour(parser))
            if not parser.accept("|"):
                break
    parser.expect("}")
    return Branch(peer, slots.get(SelLabel.LEFT), slots.get(SelLabel.RIGHT))


# --------------------------------------------------------------------------
# Printers

def print_expr(expr: Expr) -> str:
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Succ):
        return f"succ({print_expr(expr.arg)})"
    if isinstance(expr, Plus):
        right = print_expr(expr.right)
        if isinstance(expr.right, Plus):
            right = f"({right})"
        return f"{print_expr(expr.left)} + {right}"
    if isinstance(expr, Pair):
        return f"pair({print_expr(expr.left)}, {print_expr(expr.right)})"
    if isinstance(expr, Fst):
        return f"fst({print_expr(expr.arg)})"
    return f"snd({print_expr(expr.arg)})"


def print_bexpr(bexpr: BExpr) -> str:
    if isinstance(bexpr, BLit):
        return "true" if bexpr.value else "false"
    if isinstance(bexpr, Eq):
        return f"{print_expr(bexpr.left)} == {print_expr(bexpr.right)}"
    if isinstance(bexpr, Leq):
        return f"{print_expr(bexpr.left)} <= {print_expr(bexpr.right)}"
    if isinstance(bexpr, Not):
        return f"!({print_bexpr(bexpr.arg)})"
    right = print_bexpr(bexpr.right)
    if isinstance(bexpr.right, And):
        right = f"({right})"
    return f"{print_bexpr(bexpr.left)} && {right}"


def _ann_text(ann: str) -> str:
    return f" @ {json.dumps(ann)}" if ann else ""


def print_eta(eta) -> str:
    if isinstance(eta, ComEta):
        return f"{eta.sender}.{print_expr(eta.expr)} -> {eta.receiver}.{eta.var}"
    return f"{eta.sender} -> {eta.receiver}[{eta.label.value}]"


def _chor_lines(chor: Choreography, indent: int) -> List[str]:
    pad = "  " * indent
    if isinstance(chor, End):
        return [pad + "end"]
    if isinstance(chor, Call):
        return [pad + f"call {chor.name}"]
    if isinstance(chor, Interaction):
        head = pad + print_eta(chor.eta) + _ann_text(chor.ann) + ";"
        return [head] + _chor_lines(chor.cont, indent)
    if isinstance(chor, Cond):
        guard = print_bexpr(chor.guard)
        out = [pad + f"if {chor.proc}.{guard} then {{"]
        out += _chor_lines(chor.then_branch, indent + 1)
        out.append(pad + "} else {")
        out += _chor_lines(chor.else_branch, indent + 1)
        out.append(pad + "}")
        return out
    # Runtime terms appear in traces only; this form is not parseable.
    out = [pad + f"rt_call {chor.name} [{', '.join(chor.pending)}] {{"]
    out += _chor_lines(chor.body, indent + 1)
    out.append(pad + "}")
    return out


def print_chor(chor: Choreography) -> str:
    return "\n".join(_chor_lines(chor, 0))


def print_cc(program: CCProgram) -> str:
    lines: List[str] = []
    for name, (procs, body) in program.defs.items():
        lines.append(f"def {name}({', '.join(procs)}) {{")
        lines += _chor_lines(body, 1)
        lines.append("}")
        lines.append("")
    lines.append("main {")
    lines += _chor_lines(program.main, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_behaviour(behaviour: Behaviour) -> str:
    if isinstance(behaviour, BEnd):
        return "end"
    if isinstance(behaviour, Send):
        return (f"{behaviour.peer}!{print_expr(behaviour.expr)}{_ann_text(behaviour.ann)}; "
                f"{print_behaviour(behaviour.cont)}")
    if isinstance(behaviour, Recv):
        return (f"{behaviour.peer}?{behaviour.var}{_ann_text(behaviour.ann)}; "
                f"{print_behaviour(behaviour.cont)}")
    if isinstance(behaviour, Choose):
        return (f"{behaviour.peer}(+){behaviour.label.value}{_ann_text(behaviour.ann)}; "
                f"{print_behaviour(behaviour.cont)}")
    if isinstance(behaviour, Branch):
        slots = []
        for label, slot in ((SelLabel.LEFT, behaviour.left), (SelLabel.RIGHT, behaviour.right)):
            if slot is not None:
                ann, cont = slot
                slots.append(f"{label.value}{_ann_text(ann)}: {print_behaviour(cont)}")
        return f"{behaviour.peer} & {{{' | '.join(slots)}}}"
    if isinstance(behaviour, BCond):
        return (f"if {print_bexpr(behaviour.guard)} "
                f"then {{ {print_behaviour(behaviour.then_branch)} }} "
                f"else {{ {print_behaviour(behaviour.else_branch)} }}")
    name, proc = behaviour.name
    return f"call {name}@{proc}"


def print_network(network: Network) -> str:
    if not network.support():
        return f"{DEFAULT_PROCESS}[end]"
    return "\n| ".join(f"{p}[{print_behaviour(b)}]" for p, b in network.items())


def print_sp(program: SPProgram) -> str:
    lines = []
    for (name, proc), body in program.defs.items():
        lines.append(f"def {name}@{proc} {{ {print_behaviour(body)} }}")
    if lines:
        lines.append("")
    lines.append(print_network(program.network))
    return "\n".join(lines) + "\n"
