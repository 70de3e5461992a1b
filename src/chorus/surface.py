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
from itertools import islice, takewhile
from typing import Callable, Dict, List, Optional, Tuple, Union

from .choreography import (
    CCProgram, Call, Choreography, ComEta, Cond, DefSet, DEFAULT_PROCESS, End,
    Interaction, SelEta, node_at, walk,
)
from .processes import (
    BCall, BCond, BEnd, Branch, Behaviour, Choose, DefSetB, Network,
    Recv, SPProgram, Send,
)
from .values import (
    And, BExpr, BLit, Eq, Expr, Fst, Leq, Lit, Not, Pair, Plus, SelLabel,
    Snd, Succ, Var, left_spine,
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


# The parser reads lexemes: each token's source text, a string with its
# quotes, "" for the end of input.  Positions come from ``_locate``, run only
# for an error or a statement span.  ``tokenize``'s token is a plain tuple
# (kind, text, line, col, end col): the kind is ident, nat, string, sym or
# eof, a string's text is its decoded value, and the end column is one past
# the lexeme.
Token = Tuple[str, str, int, int, int]


def _locate(source, first: int, last: int) -> Span:
    """From token ``first`` to ``last`` of ``source.text``: from ``tokenize``'s
    tokens where ``_scan`` made them, else from one lexeme scan up to ``last``."""
    tokens = source.tokens
    if not tokens:
        matches = _LEXEMES.finditer(source.text)
        start = next(islice(matches, first, None))
        end = next(islice(matches, last - first - 1, None)) if last > first else start
        tokens = {first: _token(source.text, start), last: _token(source.text, end)}
    return Span(tokens[first][2], tokens[first][3], tokens[last][2], tokens[last][4])


def _token(text: str, match) -> Token:
    """A token with ``tokenize``'s line and columns for a lexeme match, and
    no kind or text.  As there, the end of input after a final comment, on
    the comment's line, sits where that comment starts."""
    offset = match.start(1)
    if offset == len(text):  # the end of input
        comment = text.find("#", text.rfind("\n", match.start(), offset) + 1 or match.start())
        offset = offset if comment < 0 else comment
    col = offset - text.rfind("\n", 0, offset)
    return "", "", text.count("\n", 0, offset) + 1, col, col + (len(match[1]) or 1)


class ParseError(Exception):
    """``span`` may be a function that makes the span when it is first read."""

    def __init__(self, message: str, span: Union[Span, Callable[[], Span]], expected=()):
        super().__init__(message)
        self.message = message
        self._span = span
        self.expected = expected

    @property
    def span(self) -> Span:
        if callable(self._span):
            self._span = self._span()
        return self._span

    def __str__(self) -> str:
        note = f" (expected {' or '.join(self.expected)})" if self.expected else ""
        return f"{self.span}: {self.message}{note}"


# Blanks, then one alternative per token class, the common ones first.  No
# alternative starts with a blank and every other character starts one, so
# ``finditer`` skips only trailing blanks.  ``\w`` is exactly ``str.isalnum``
# or "_"; ``tokenize`` splits words with ``str.isdigit`` and ``str.isalpha``,
# since ``\d`` is not ``str.isdigit``.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<word>\w+) | (?P<sym>\(\+\)|->|==|<=|&&|[!?@;:,.{}()\[\]+|&]) | (?P<newline>\n)
  | (?P<comment>\#[^\n]*) | (?P<string>"(?:[^"\\]|\\.)*") | (?P<open>") | (?P<stray>[^ \t\r]))
""", re.VERBOSE | re.DOTALL)

# ``_scan``'s lexemes: ASCII words, split as ``tokenize`` splits them, symbols
# and strings that ``json.loads`` takes, each after blanks and comments.  Where
# none starts, the group takes the rest of the text; at its end, "".
_LEXEME = (r'[A-Za-z_]\w*|\d+|\(\+\)|->|==|<=|&&|[!?@;:,.{}()\[\]+|&]'
           r'|"(?:[^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9A-Fa-f]{4})*"')
_GOOD = re.compile(_LEXEME, re.ASCII)
_LEXEMES = re.compile(rf'[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*({_LEXEME}|[\s\S]+|)', re.ASCII)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    add = tokens.append
    line, line_start, kind = 1, 0, None
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        lexeme = match[kind]
        end = match.end() - line_start + 1
        col = end - len(lexeme)
        if kind == "sym":
            add(("sym", lexeme, line, col, end))
        elif kind == "word":
            if lexeme[0].isdigit():
                # A nat is a run of str.isdigit; the rest of the word follows it.
                nat = "".join(takewhile(str.isdigit, lexeme))
                add(("nat", nat, line, col, col + len(nat)))
                lexeme, col = lexeme[len(nat):], col + len(nat)
            if lexeme and (lexeme[0].isalpha() or lexeme[0] == "_"):
                add(("ident", lexeme, line, col, end))
            elif lexeme:  # a word from a character such as "½"
                raise ParseError(f"stray character {lexeme[0]!r}", Span(line, col, line, col + 1))
        elif kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "string":
            try:
                add(("string", json.loads(lexeme), line, col, end))
            except json.JSONDecodeError:
                raise ParseError(f"bad string literal {lexeme}",
                                 Span(line, col, line, col)) from None
        elif kind == "open":
            raise ParseError("unterminated string", Span(line, col, line, col))
        elif kind == "stray":
            raise ParseError(f"stray character {lexeme!r}", Span(line, col, line, col + 1))
    # A comment does not move the column, so the end of input after a final
    # comment sits where that comment starts.
    if kind != "comment":
        col = len(text) - line_start + 1
    add(("eof", "", line, col, col + 1))
    return tokens


def _scan(text: str) -> Tuple[List[str], Optional[List[Token]]]:
    """The lexemes of ``text``, and its tokens if they had to be made: past a
    word character outside ASCII, a stray character or a bad string, the
    lexemes are sliced from ``tokenize``'s tokens, or it raises its error."""
    lexemes = _LEXEMES.findall(text)
    if len(lexemes) > 1 and not lexemes[-2]:  # trailing blanks end in "" twice
        lexemes.pop()
    if len(lexemes) == 1 or _GOOD.fullmatch(lexemes[-2]):
        return lexemes, None
    tokens, lines = tokenize(text), text.split("\n")  # no token spans a line break
    return [lines[line - 1][col - 1:end - 1] for _, _, line, col, end in tokens[:-1]] + [""], tokens


def _shown(lexeme: str) -> str:
    """A token's text as messages show it: a string's decoded value."""
    return json.loads(lexeme) if lexeme[:1] == '"' else lexeme


def _is_name(lexeme: str) -> bool:
    return (lexeme[:1].isalpha() or lexeme[:1] == "_") and lexeme not in _KEYWORDS


class _Parser:
    """Recursive descent over the lexemes."""

    def __init__(self, text: str):
        self.text = text
        self.lexemes, self.tokens = _scan(text)
        self.pos = 0

    def error(self, message: str, expected=(), index: Optional[int] = None) -> ParseError:
        index = self.pos if index is None else index
        return ParseError(message, lambda: _locate(self, index, index), expected)

    def peek(self) -> str:
        # Nothing consumes the end of input, so ``pos`` never passes it.
        return self.lexemes[self.pos]

    def accept(self, text: str) -> bool:
        if self.lexemes[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, *texts: str) -> int:
        """Consume ``texts`` in order; return the index of the last token."""
        for text in texts:
            found = self.lexemes[self.pos]
            if found != text:
                raise self.error(f"found {_shown(found)!r}" if found
                                 else "unexpected end of input", (text,))
            self.pos += 1
        return self.pos - 1

    def name(self, what: str) -> str:
        lexeme = self.lexemes[self.pos]
        if not _is_name(lexeme):
            raise self.error(f"found {_shown(lexeme)!r} where a {what} was needed", (what,))
        self.pos += 1
        return lexeme

    def eof(self) -> None:
        if self.peek():
            raise self.error(f"trailing input starting at {_shown(self.peek())!r}", ("end of file",))

    def annot(self) -> str:
        if not self.accept("@"):
            return ""
        if self.peek()[:1] != '"':
            raise self.error("annotations are quoted strings", ("string",))
        self.pos += 1
        return json.loads(self.lexemes[self.pos - 1])

    # -- expressions --------------------------------------------------

    def expr(self) -> Expr:
        out = self.expr_atom()
        while self.accept("+"):
            out = Plus(out, self.expr_atom())
        return out

    def expr_atom(self) -> Expr:
        text = self.peek()
        if _is_name(text):
            self.pos += 1
            return Var(text)
        if text[:1].isdigit():
            try:  # int() rejects digits that are not decimal (²) and, by default, over 4,300
                value = int(text)
            except ValueError as err:
                message = str(err) if text.isdecimal() else f"{text!r} is not a decimal number"
                raise self.error(message) from None
            self.pos += 1
            return Lit(value)
        if self.accept("("):
            inner = self.expr()
            self.expect(")")
            return inner
        if text in ("succ", "fst", "snd", "pair"):
            self.pos += 1
            self.expect("(")
            args = [self.expr()]
            if text == "pair":
                self.expect(",")
                args.append(self.expr())
            self.expect(")")
            return {"succ": Succ, "fst": Fst, "snd": Snd, "pair": Pair}[text](*args)
        raise self.error(f"found {_shown(text)!r} where an expression was needed",
                         ("expression",))

    def bexpr(self) -> BExpr:
        out = self.bterm()
        while self.accept("&&"):
            out = And(out, self.bterm())
        return out

    def bterm(self) -> BExpr:
        """A run of ``!`` is read in a loop, then negates the term after it."""
        negations = 0
        while self.accept("!"):
            negations += 1
        term = self.bterm_atom()
        for _ in range(negations):
            term = Not(term)
        return term

    def bterm_atom(self) -> BExpr:
        if self.accept("true"):
            return BLit(True)
        if self.accept("false"):
            return BLit(False)
        if self.peek() == "(":
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
        raise self.error("comparison needs '==' or '<='", ("==", "<="))

    def label(self) -> SelLabel:
        if self.peek() not in ("left", "right"):
            raise self.error(f"found {_shown(self.peek())!r} where a label was needed",
                             ("left", "right"))
        self.pos += 1
        return SelLabel(self.lexemes[self.pos - 1])


# --------------------------------------------------------------------------
# Choreography files

@dataclass
class SourceFile:
    """A parsed choreography file: its text, its program and its statements' spans."""
    text: str
    program: CCProgram
    # Per scope, ("main",) or ("proc", NAME), each statement's (first token,
    # last token) by index, in parse order, which is pre-order.
    spans: Dict[tuple, List[Tuple[int, int]]] = field(default_factory=dict)
    tokens: Optional[List[Token]] = field(default=None, repr=False, compare=False)  # made by _scan

    def span_at(self, path: Tuple[str, ...]) -> Optional[Span]:
        cut = 1 if path[:1] == ("main",) else 2
        node = self.program.main if cut == 1 else self.program.defs.body(path[1])
        index = 0  # in pre-order: a node per step, and a then branch's nodes before its else
        for step in path[cut:]:
            index += 1 + (sum(1 for _ in walk(node.then_branch)) if step == "else" else 0)
            node = node_at(node, (step,))
        spans = self.spans.get(path[:cut])
        return _locate(self, *spans[index]) if spans else None


def parse_cc_file(text: str) -> SourceFile:
    parser = _Parser(text)
    spans: Dict[tuple, List[Tuple[int, int]]] = {}
    defs = {}
    while parser.accept("def"):
        at = parser.pos
        name = parser.name("procedure name")
        if name in defs:
            raise parser.error(f"procedure {name} defined twice", index=at)
        parser.expect("(")
        procs = [parser.name("process name")]
        while parser.accept(","):
            procs.append(parser.name("process name"))
        parser.expect(")", "{")
        body = _parse_chor(parser, spans.setdefault(("proc", name), []))
        parser.expect("}")
        defs[name] = (tuple(procs), body)
    parser.expect("main", "{")
    main = _parse_chor(parser, spans.setdefault(("main",), []))
    parser.expect("}")
    parser.eof()
    return SourceFile(text, CCProgram(DefSet(defs), main), spans, parser.tokens)


def parse_cc(text: str) -> CCProgram:
    return parse_cc_file(text).program


def _parse_chor(parser: _Parser, spans: List[Tuple[int, int]]) -> Choreography:
    """Read a run of interactions in a loop; only conditionals recurse.  A
    statement's span runs from its first token, ``start``, to its last; a
    conditional keeps its place in ``spans`` ahead of its branches'."""
    prefix = []
    while True:
        start = last = parser.pos
        first = parser.lexemes[start]
        if first in ("end", "call", "if"):
            parser.pos += 1
        if first == "end":
            chor: Choreography = End()
        elif first == "call":
            last = parser.pos
            chor = Call(parser.name("procedure name"))
        elif first == "if":
            at = len(spans)
            spans.append(None)
            proc = parser.name("process name")
            parser.expect(".")
            guard = parser.bexpr()
            parser.expect("then", "{")
            then_branch = _parse_chor(parser, spans)
            parser.expect("}", "else", "{")
            else_branch = _parse_chor(parser, spans)
            spans[at] = (start, parser.expect("}"))
            chor = Cond(proc, guard, then_branch, else_branch)
            break
        else:
            sender = parser.name("process name")
            if parser.accept("->"):
                receiver = parser.name("process name")
                parser.expect("[")
                label = parser.label()
                parser.expect("]")
                eta = SelEta(sender, receiver, label)
            else:
                parser.expect(".")
                expr = parser.expr()
                parser.expect("->")
                receiver = parser.name("process name")
                parser.expect(".")
                eta = ComEta(sender, expr, receiver, parser.name("variable name"))
            prefix.append((eta, parser.annot()))
            last = parser.expect(";")
        spans.append((start, last))
        if first in ("end", "call"):
            break
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
    while parser.peek() == "def":
        start = parser.expect("def")
        name = parser.name("procedure name")
        parser.expect("@")
        proc = parser.name("process name")
        if (name, proc) in defs:
            raise parser.error(f"procedure copy {name}@{proc} defined twice", index=start)
        parser.expect("{")
        body = _parse_behaviour(parser)
        parser.expect("}")
        defs[(name, proc)] = body
    procs = {}
    while True:
        start = parser.pos
        proc = parser.name("process name")
        parser.expect("[")
        behaviour = _parse_behaviour(parser)
        parser.expect("]")
        if proc in procs:
            raise parser.error(f"process {proc} given two behaviours", index=start)
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
        first = parser.peek()
        if first in ("end", "call", "if"):
            parser.pos += 1
        if first == "end":
            behaviour: Behaviour = BEnd()
            break
        if first == "call":
            name = parser.name("procedure name")
            parser.expect("@")
            behaviour = BCall((name, parser.name("process name")))
            break
        if first == "if":
            guard = parser.bexpr()
            parser.expect("then", "{")
            then_branch = _parse_behaviour(parser)
            parser.expect("}", "else", "{")
            else_branch = _parse_behaviour(parser)
            parser.expect("}")
            behaviour = BCond(guard, then_branch, else_branch)
            break

        peer = parser.name("process name")
        if parser.accept("!"):
            kind, arg = Send, parser.expr()
        elif parser.accept("?"):
            kind, arg = Recv, parser.name("variable name")
        elif parser.accept("(+)"):
            kind, arg = Choose, parser.label()
        else:
            parser.expect("&", "{")
            slots = {}
            if parser.peek() != "}":
                while True:
                    at = parser.pos
                    label = parser.label()
                    if label in slots:
                        raise parser.error(f"offer {label.value} given twice", index=at)
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
        first, rights = left_spine(expr, Plus)
        return " + ".join([print_expr(first), *(
            f"({print_expr(right)})" if isinstance(right, Plus) else print_expr(right)
            for right in rights)])
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
        negations = 0
        while isinstance(bexpr, Not):
            bexpr, negations = bexpr.arg, negations + 1
        return f"{'!' * negations}({print_bexpr(bexpr)})"
    first, rights = left_spine(bexpr, And)
    return " && ".join([print_bexpr(first), *(
        f"({print_bexpr(right)})" if isinstance(right, And) else print_bexpr(right)
        for right in rights)])


def _ann_text(ann: str) -> str:
    return f" @ {json.dumps(ann)}" if ann else ""


def print_eta(eta) -> str:
    if isinstance(eta, ComEta):
        return f"{eta.sender}.{print_expr(eta.expr)} -> {eta.receiver}.{eta.var}"
    return f"{eta.sender} -> {eta.receiver}[{eta.label.value}]"


def _chor_lines(chor: Choreography, indent: int) -> List[str]:
    """Runs of interactions print in a loop; only conditionals and runtime
    terms recurse."""
    pad = "  " * indent
    out = []
    while isinstance(chor, Interaction):
        out.append(pad + print_eta(chor.eta) + _ann_text(chor.ann) + ";")
        chor = chor.cont
    if isinstance(chor, (End, Call)):
        out.append(pad + ("end" if isinstance(chor, End) else f"call {chor.name}"))
        return out
    if isinstance(chor, Cond):
        out.append(pad + f"if {chor.proc}.{print_bexpr(chor.guard)} then {{")
        out += _chor_lines(chor.then_branch, indent + 1)
        out.append(pad + "} else {")
        out += _chor_lines(chor.else_branch, indent + 1)
    else:  # Runtime terms appear in traces only; this form is not parseable.
        out.append(pad + f"rt_call {chor.name} [{', '.join(chor.pending)}] {{")
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
