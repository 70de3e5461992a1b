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
    Snd, Succ, Var, write,
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


_CALLS = {"succ": Succ, "fst": Fst, "snd": Snd, "pair": Pair}


def _turn(stack: list, error: ParseError) -> None:
    """Turn the ``try`` frames on top of ``stack`` into ``bool`` ones; the
    lowest keeps ``error``, where an expression in it failed."""
    index = len(stack) - 1
    while stack[index][0] == "try":
        stack[index][0] = "bool"
        index -= 1
    stack[index + 1][2] = error


class _Parser:
    """Reads the lexemes front to back with explicit stacks: of the blocks
    open around a statement (``_parse_chor``, ``_parse_behaviour``), and of
    the parentheses, calls, negations and comparisons open in a formula."""

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

    def formula(self, guard: bool = False) -> Union[Expr, BExpr]:
        """An expression, or with ``guard`` a Boolean expression, read with
        one stack of frames [kind, operand so far, extra]: the bottom, ``(``,
        a call, ``!``, ``cmp`` (extra: operator and left side), ``try`` and
        ``bool``.  A ``(`` where a Boolean term may start is read once, as
        ``try``: it closes as an expression if one fills it, and turns
        ``bool``, with the ``try`` frames below it, at the first token an
        expression cannot take there (``!``, ``true``, ``false`` first, ``==``
        or ``<=`` after an expression).  So the trees and errors are those of
        reading a Boolean parenthesis first and an expression where that
        fails: an error inside a ``bool`` frame is the one an expression met
        where the lowest turned, which that frame keeps."""
        text = self.lexemes[self.pos]
        if not guard and text and self.lexemes[self.pos + 1] != "+" and text != "(" \
                and text not in _CALLS:  # a name or a number alone needs no stack
            return self.operand(text)
        stack = [["bool" if guard else "expr", None, None]]
        term = guard  # at a Boolean term's place
        try:
            while True:
                text = self.lexemes[self.pos]
                boolean = term and text in ("!", "true", "false")
                if boolean:
                    if stack[-1][0] == "try":
                        _turn(stack, self.error(
                            f"found {_shown(text)!r} where an expression was needed", ("expression",)))
                    self.pos += 1
                    if text == "!":
                        stack.append(["!", None, None])
                        continue
                    value = BLit(text == "true")
                elif term and text == "(":
                    self.pos += 1
                    stack.append(["try", None, None])
                    continue
                else:
                    if term and stack[-1][0] != "try":
                        stack.append(["cmp", None, None])
                    term = False
                    if text == "(" or text in _CALLS:
                        self.pos += 1
                        if text != "(":
                            self.expect("(")
                        stack.append([text, None, None])
                        continue
                    value = self.operand(text)
                while True:  # close the frames that ``value`` ends
                    top = stack[-1]
                    kind = top[0]
                    if boolean:
                        if kind == "!":
                            stack.pop()
                            value = Not(value)
                            continue
                        top[1] = value if top[1] is None else And(top[1], value)
                        if self.accept("&&"):
                            term = True
                            break
                        if len(stack) == 1:
                            return top[1]
                        self.expect(")")
                        stack.pop()
                        value = top[1]
                        continue
                    top[1] = value if top[1] is None else Plus(top[1], value)
                    if self.accept("+"):
                        break
                    value, after = top[1], self.lexemes[self.pos]
                    if kind == "expr":
                        return value
                    if kind == "try" and after in ("==", "<="):
                        _turn(stack, self.error(f"found {_shown(after)!r}", (")",)))
                        top[1], top, kind = None, ["cmp", None, None], "cmp"
                        stack.append(top)
                    if kind in ("cmp", "pair") and top[2] is None:
                        if kind == "pair":
                            self.expect(",")
                        elif after in ("==", "<="):
                            self.pos += 1
                            value = (Eq if after == "==" else Leq, value)
                        else:
                            raise self.error("comparison needs '==' or '<='", ("==", "<="))
                        top[1], top[2] = None, value
                        break
                    stack.pop()
                    if kind == "cmp":
                        value, boolean = top[2][0](top[2][1], value), True
                        continue
                    self.expect(")")
                    if kind == "try" and stack[-1][0] != "try":
                        stack.append(["cmp", None, None])
                    elif kind == "pair":
                        value = Pair(top[2], value)
                    elif kind in _CALLS:
                        value = _CALLS[kind](value)
        except ParseError as error:
            turned = [frame[2] for frame in stack if frame[0] == "bool" and frame[2]]
            raise (turned[0] if turned else error) from None

    def operand(self, text: str) -> Expr:
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
        raise self.error(f"found {_shown(text)!r} where an expression was needed",
                         ("expression",))

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
    """Read statements in a loop, with a stack of the conditionals open
    around them: [span index, first token, process, guard, interactions
    before, then branch once read].  A statement's span runs from its first
    token, ``start``, to its last; a conditional keeps its place in
    ``spans`` ahead of its branches'."""
    conds, prefix = [], []
    while True:
        start = last = parser.pos
        first = parser.lexemes[start]
        if first in ("end", "call", "if"):
            parser.pos += 1
        if first == "if":
            spans.append(None)
            proc = parser.name("process name")
            parser.expect(".")
            guard = parser.formula(True)
            parser.expect("then", "{")
            conds.append([len(spans) - 1, start, proc, guard, prefix, None])
            prefix = []
            continue
        if first == "end":
            chor: Choreography = End()
        elif first == "call":
            last = parser.pos
            chor = Call(parser.name("procedure name"))
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
                expr = parser.formula()
                parser.expect("->")
                receiver = parser.name("process name")
                parser.expect(".")
                eta = ComEta(sender, expr, receiver, parser.name("variable name"))
            prefix.append((eta, parser.annot()))
            spans.append((start, parser.expect(";")))
            continue
        spans.append((start, last))
        while True:  # the branch ends here; so do the conditionals it closes
            for eta, ann in reversed(prefix):
                chor = Interaction(eta, ann, chor)
            if not conds:
                return chor
            if conds[-1][5] is None:
                conds[-1][5] = chor
                parser.expect("}", "else", "{")
                prefix = []
                break
            at, start, proc, guard, prefix, then_branch = conds.pop()
            spans[at] = (start, parser.expect("}"))
            chor = Cond(proc, guard, then_branch, chor)


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
    """Read prefixes in a loop, with a stack of the blocks open around them:
    [prefixes before, BCond, guard, then branch once read] for a conditional,
    [prefixes before, Branch, peer, offers read, label, annotation] for an
    offer."""
    blocks, prefixes = [], []
    while True:
        first = parser.peek()
        if first in ("end", "call", "if"):
            parser.pos += 1
        if first == "if":
            blocks.append([prefixes, BCond, parser.formula(True), None])
            parser.expect("then", "{")
            prefixes = []
            continue
        if first == "end":
            behaviour: Behaviour = BEnd()
        elif first == "call":
            name = parser.name("procedure name")
            parser.expect("@")
            behaviour = BCall((name, parser.name("process name")))
        else:
            peer = parser.name("process name")
            if parser.accept("!"):
                kind, arg = Send, parser.formula()
            elif parser.accept("?"):
                kind, arg = Recv, parser.name("variable name")
            elif parser.accept("(+)"):
                kind, arg = Choose, parser.label()
            else:
                parser.expect("&", "{")
                if parser.peek() != "}":
                    blocks.append([prefixes, Branch, peer, {}, *_slot(parser, {})])
                    prefixes = []
                    continue
                parser.expect("}")
                kind = Branch
            if kind is not Branch:
                prefixes.append((kind, peer, arg, parser.annot()))
                parser.expect(";")
                continue
            behaviour = Branch(peer, None, None)
        while True:  # the behaviour ends here; so do the blocks it closes
            for kind, peer, arg, ann in reversed(prefixes):
                behaviour = kind(peer, arg, ann, behaviour)
            if not blocks:
                return behaviour
            block = blocks[-1]
            if block[1] is BCond and block[3] is None:
                block[3] = behaviour
                parser.expect("}", "else", "{")
            elif block[1] is Branch:
                offers, label = block[3], block[4]
                offers[label] = (block[5], behaviour)
                if parser.accept("|"):
                    block[4:] = _slot(parser, offers)
                else:
                    parser.expect("}")
                    blocks.pop()
                    prefixes = block[0]
                    behaviour = Branch(block[2], offers.get(SelLabel.LEFT), offers.get(SelLabel.RIGHT))
                    continue
            else:
                parser.expect("}")
                blocks.pop()
                prefixes = block[0]
                behaviour = BCond(block[2], block[3], behaviour)
                continue
            prefixes = []
            break


def _slot(parser: _Parser, offers: dict) -> Tuple[SelLabel, str]:
    """An offer's label and annotation, up to its ``:``."""
    at = parser.pos
    label = parser.label()
    if label in offers:
        raise parser.error(f"offer {label.value} given twice", index=at)
    ann = parser.annot()
    parser.expect(":")
    return label, ann


# --------------------------------------------------------------------------
# Printers

def print_expr(expr: Union[Expr, BExpr]) -> str:
    return write(expr, _parts)


print_bexpr = print_expr


def _parts(node) -> list:
    """``write``'s parts of a node of a behaviour, an expression or a Boolean
    expression.  The right operand of a ``+`` or ``&&`` of its own kind is
    parenthesised, and so is the term a ``!`` negates, unless it is a negation."""
    kind = type(node)
    if kind is Send or kind is Recv or kind is Choose:  # a run of prefixes is one item
        parts = []
        while kind is Send or kind is Recv or kind is Choose:
            if kind is Send:
                parts += f"{node.peer}!", _leaf(node.expr), f"{_ann_text(node.ann)}; "
            else:
                action = f"?{node.var}" if kind is Recv else f"(+){node.label.value}"
                parts.append(f"{node.peer}{action}{_ann_text(node.ann)}; ")
            node = node.cont
            kind = type(node)
        parts.append("end" if kind is BEnd else node)
        return parts
    if kind is Lit or kind is Var:
        return [str(node.value) if kind is Lit else node.name]
    if kind is BEnd or kind is BLit:
        return ["end" if kind is BEnd else "true" if node.value else "false"]
    if kind is BCall:
        return [f"call {node.name[0]}@{node.name[1]}"]
    if kind is BCond:
        return ["if ", node.guard, " then { ", node.then_branch, " } else { ", node.else_branch, " }"]
    if kind is Branch:
        parts = [f"{node.peer} & {{"]
        for label, slot in ((SelLabel.LEFT, node.left), (SelLabel.RIGHT, node.right)):
            if slot is not None:
                parts += f"{' | ' if len(parts) > 1 else ''}{label.value}{_ann_text(slot[0])}: ", slot[1]
        return parts + ["}"]
    if kind is Eq or kind is Leq:
        return [_leaf(node.left), " == " if kind is Eq else " <= ", _leaf(node.right)]
    if kind is Plus or kind is And:
        operator = " + " if kind is Plus else " && "
        if type(node.right) is kind:
            return [_leaf(node.left), operator + "(", node.right, ")"]
        return [_leaf(node.left), operator, _leaf(node.right)]
    if kind is Pair:
        return ["pair(", _leaf(node.left), ", ", _leaf(node.right), ")"]
    if kind is Not:
        return ["!", node.arg] if type(node.arg) is Not else ["!(", node.arg, ")"]
    return [f"{kind.__name__.lower()}(", _leaf(node.arg), ")"]


def _leaf(expr: Expr) -> Union[str, Expr]:
    """The text of a literal or a variable, which ``write`` then need not
    open, else ``expr``."""
    kind = type(expr)
    return str(expr.value) if kind is Lit else expr.name if kind is Var else expr


def _ann_text(ann: str) -> str:
    return f" @ {json.dumps(ann)}" if ann else ""


def _chor_text(chor: Choreography, indent: int) -> str:
    """The lines of ``chor``, each ending in a line break, by ``write``."""
    return write((chor, "  " * indent), _chor_parts)


def _chor_parts(item) -> list:
    """``write``'s parts of a (choreography, indentation) pair, or else of
    an expression or a Boolean expression."""
    if type(item) is not tuple:
        return _parts(item)
    chor, pad = item
    kind = type(chor)
    if kind is Interaction:
        eta, end = chor.eta, f"{_ann_text(chor.ann)};\n"
        if type(eta) is ComEta:
            return [f"{pad}{eta.sender}.", _leaf(eta.expr), f" -> {eta.receiver}.{eta.var}{end}",
                    (chor.cont, pad)]
        return [f"{pad}{eta.sender} -> {eta.receiver}[{eta.label.value}]{end}", (chor.cont, pad)]
    if kind is End or kind is Call:
        return [pad + ("end\n" if kind is End else f"call {chor.name}\n")]
    if kind is Cond:
        return [f"{pad}if {chor.proc}.", chor.guard, " then {\n", (chor.then_branch, pad + "  "),
                pad + "} else {\n", (chor.else_branch, pad + "  "), pad + "}\n"]
    # Runtime terms appear in traces only; this form is not parseable.
    return [f"{pad}rt_call {chor.name} [{', '.join(chor.pending)}] {{\n",
            (chor.body, pad + "  "), pad + "}\n"]


def print_chor(chor: Choreography) -> str:
    return _chor_text(chor, 0)[:-1]


def print_cc(program: CCProgram) -> str:
    defs = "".join(f"def {name}({', '.join(procs)}) {{\n{_chor_text(body, 1)}}}\n\n"
                   for name, (procs, body) in program.defs.items())
    return f"{defs}main {{\n{_chor_text(program.main, 1)}}}\n"


def print_behaviour(behaviour: Behaviour) -> str:
    return write(behaviour, _parts)


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
