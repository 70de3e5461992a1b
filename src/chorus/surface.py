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
import re
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Dict, List, NamedTuple, Optional, Tuple

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

@dataclass(frozen=True)
class Span:
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}-{self.end_line}:{self.end_col}"


class Token(NamedTuple):
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


# Blanks, then one alternative per token class, tried in order; no
# alternative starts with a blank, so trailing blanks match nothing.  ``\w``
# is exactly ``str.isalnum`` or "_"; ``tokenize`` splits words with
# ``str.isdigit`` and ``str.isalpha``, since ``\d`` is not ``str.isdigit``.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<newline>\n) | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*") | (?P<open>")
  | (?P<word>\w+) | (?P<sym>\(\+\)|->|==|<=|&&|[!?@;:,.{}()\[\]+|&]) | (?P<stray>[^ \t\r]))
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start, pos, kind = 1, 0, 0, None
    while (match := _TOKEN.match(text, pos)) is not None:  # None: only blanks are left
        kind = match.lastgroup
        lexeme, pos = match[kind], match.end()
        col = pos - len(lexeme) - line_start + 1
        if kind == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(Token("ident", lexeme, line, col))
        elif kind == "word" and lexeme[0].isdigit():
            # A nat is a run of str.isdigit; the rest of the word is read next.
            nat = "".join(takewhile(str.isdigit, lexeme))
            pos += len(nat) - len(lexeme)
            tokens.append(Token("nat", nat, line, col))
        elif kind == "sym":
            tokens.append(Token("sym", lexeme, line, col))
        elif kind == "newline":
            line, line_start = line + 1, pos
        elif kind == "string":
            try:
                tokens.append(Token("string", json.loads(lexeme), line, col))
            except json.JSONDecodeError:
                raise ParseError(f"bad string literal {lexeme}",
                                 Span(line, col, line, col)) from None
        elif kind == "open":
            raise ParseError("unterminated string", Span(line, col, line, col))
        elif kind in ("word", "stray"):  # a word from a character such as "½"
            raise ParseError(f"stray character {lexeme[0]!r}", Span(line, col, line, col + 1))
    # A comment does not move the column, so the end of input after a final
    # comment sits where that comment starts.
    if kind != "comment":
        col = len(text) - line_start + 1
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        # Nothing consumes the eof token, so ``pos`` never passes it.
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind in ("sym", "ident") and tok.text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if not self.at(text):
            raise ParseError(f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                             tok.span, (text,))
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
            if not tok.text.isdecimal():  # int() reads exactly the isdecimal strings
                raise ParseError(f"{tok.text!r} is not a decimal number", tok.span)
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
    # Keyed by (spine, number of "cont" steps along it), in linear space.
    # Spines are ("main",), ("proc", NAME) and (spine, index, "then"|"else").
    spans: Dict[tuple, Span] = field(default_factory=dict)

    def span_at(self, path: Tuple[str, ...]) -> Optional[Span]:
        path = tuple(path)
        cut = 1 if path[:1] == ("main",) else 2
        spine, index = path[:cut], 0
        for step in path[cut:]:
            spine, index = (spine, index + 1) if step == "cont" else ((spine, index, step), 0)
        return self.spans.get((spine, index))


def parse_cc_file(text: str) -> SourceFile:
    parser = _Parser(text)
    spans: Dict[tuple, Span] = {}
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


def _parse_chor(parser: _Parser, spine: tuple, spans: Dict[tuple, Span]) -> Choreography:
    """Read a run of interactions in a loop; only conditionals recurse."""
    prefix = []
    while True:
        key = (spine, len(prefix))
        start = parser.peek()
        if parser.accept("end"):
            spans[key] = start.span
            chor: Choreography = End()
            break
        if parser.accept("call"):
            name = parser.name("procedure name")
            spans[key] = Span(start.line, start.col, name.line, name.col + len(name.text))
            chor = Call(name.text)
            break
        if parser.accept("if"):
            proc = parser.name("process name").text
            parser.expect(".")
            guard = parser.bexpr()
            parser.expect("then")
            parser.expect("{")
            then_branch = _parse_chor(parser, key + ("then",), spans)
            parser.expect("}")
            parser.expect("else")
            parser.expect("{")
            else_branch = _parse_chor(parser, key + ("else",), spans)
            close = parser.expect("}")
            spans[key] = Span(start.line, start.col, close.line, close.col + 1)
            chor = Cond(proc, guard, then_branch, else_branch)
            break

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
        spans[key] = Span(start.line, start.col, semi.line, semi.col + 1)
        prefix.append((eta, ann))
    for eta, ann in reversed(prefix):
        chor = Interaction(eta, ann, chor)
    return chor


# --------------------------------------------------------------------------
# Network files

@dataclass
class SPSourceFile:
    text: str
    program: SPProgram


def parse_sp_file(text: str) -> SPSourceFile:
    parser = _Parser(text)
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
        parser.expect("}")
        defs[(name, proc)] = body
    procs = {}
    while True:
        start = parser.peek()
        proc = parser.name("process name").text
        parser.expect("[")
        behaviour = _parse_behaviour(parser)
        parser.expect("]")
        if proc in procs:
            raise ParseError(f"process {proc} given two behaviours", start.span)
        procs[proc] = behaviour
        if not parser.accept("|"):
            break
    parser.eof()
    return SPSourceFile(text, SPProgram(DefSetB(defs), Network(procs)))


def parse_sp(text: str) -> SPProgram:
    return parse_sp_file(text).program


def _parse_behaviour(parser: _Parser) -> Behaviour:
    """Read a run of prefixes in a loop; only conditionals and offers recurse."""
    prefixes = []
    while True:
        if parser.accept("end"):
            behaviour: Behaviour = BEnd()
            break
        if parser.accept("call"):
            name = parser.name("procedure name").text
            parser.expect("@")
            proc = parser.name("process name").text
            behaviour = BCall((name, proc))
            break
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
            behaviour = BCond(guard, then_branch, else_branch)
            break

        peer = parser.name("process name").text
        if parser.accept("!"):
            kind, arg = Send, parser.expr()
        elif parser.accept("?"):
            kind, arg = Recv, parser.name("variable name").text
        elif parser.accept("(+)"):
            kind, arg = Choose, parser.label()
        else:
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
            behaviour = Branch(peer, slots.get(SelLabel.LEFT), slots.get(SelLabel.RIGHT))
            break
        prefixes.append((kind, peer, arg, parser.annot()))
        parser.expect(";")
    for kind, peer, arg, ann in reversed(prefixes):
        behaviour = kind(peer, arg, ann, behaviour)
    return behaviour


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


_ACTIONS = {Send: lambda b: f"{b.peer}!{print_expr(b.expr)}",
            Recv: lambda b: f"{b.peer}?{b.var}",
            Choose: lambda b: f"{b.peer}(+){b.label.value}"}


def print_behaviour(behaviour: Behaviour) -> str:
    """Runs of prefixes print in a loop; only offers and conditionals recurse."""
    prefix = []
    while type(behaviour) in _ACTIONS:
        prefix.append(f"{_ACTIONS[type(behaviour)](behaviour)}{_ann_text(behaviour.ann)}; ")
        behaviour = behaviour.cont
    if isinstance(behaviour, BEnd):
        tail = "end"
    elif isinstance(behaviour, Branch):
        slots = []
        for label, slot in ((SelLabel.LEFT, behaviour.left), (SelLabel.RIGHT, behaviour.right)):
            if slot is not None:
                ann, cont = slot
                slots.append(f"{label.value}{_ann_text(ann)}: {print_behaviour(cont)}")
        tail = f"{behaviour.peer} & {{{' | '.join(slots)}}}"
    elif isinstance(behaviour, BCond):
        tail = (f"if {print_bexpr(behaviour.guard)} "
                f"then {{ {print_behaviour(behaviour.then_branch)} }} "
                f"else {{ {print_behaviour(behaviour.else_branch)} }}")
    else:
        name, proc = behaviour.name
        tail = f"call {name}@{proc}"
    return "".join(prefix) + tail


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
