import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chorus import (
    And, B_END, BCall, BCond, BLit, Branch, Call, ComEta, Cond, DefSet, END, Eq,
    Interaction, Leq, Lit, Network, Not, ParseError, Plus, RTCall, Send,
    Var, gen_program, parse_cc, parse_sp, print_cc, print_chor,
    print_network, print_sp, program_wf,
)
from chorus.surface import _Parser, parse_cc_file, print_behaviour, tokenize

from helpers import auth_program, file_transfer_program, unmended_program
from references import FormulaReader

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_parse_minimal_program():
    program = parse_cc("main { end }")
    assert program == auth_program().__class__(DefSet(), END)


def test_parse_authentication_file_matches_builder():
    program = parse_cc(PROGRAMS.joinpath("authentication.cc").read_text())
    assert program == auth_program()


def test_parse_file_transfer_file_matches_builder():
    program = parse_cc(PROGRAMS.joinpath("file_transfer.cc").read_text())
    assert program == file_transfer_program()


def test_self_communication_parses_but_fails_wf():
    program = parse_cc("main { p.x -> p.y; end }")
    assert isinstance(program.main, Interaction)
    assert not program_wf(program)


def test_cc_round_trips():
    for program in (auth_program(), file_transfer_program(), unmended_program()):
        assert parse_cc(print_cc(program)) == program


def test_print_then_parse_is_identity_on_print():
    text = print_cc(file_transfer_program())
    assert print_cc(parse_cc(text)) == text


def test_long_programs_print_and_round_trip():
    program = parse_cc("main { " + "p.0 -> q.x; " * 20000 + "end }\n")
    text = print_cc(program)
    assert text == "main {\n" + "  p.0 -> q.x;\n" * 20000 + "  end\n}\n"
    assert hash(parse_cc(text).main) == hash(program.main)


def test_annotations_round_trip():
    chor = Interaction(ComEta("p", Lit(1), "q", "x"), 'needs "quotes"\n', END)
    program = auth_program().__class__(DefSet(), chor)
    assert parse_cc(print_cc(program)) == program


def test_expression_round_trips():
    guards = [
        And(Eq(Plus(Var("x"), Lit(1)), Lit(2)), Not(Leq(Var("y"), Lit(0)))),
        And(BLit(True), And(BLit(False), BLit(True))),
        Eq(Plus(Lit(1), Plus(Lit(2), Lit(3))), Plus(Plus(Lit(1), Lit(2)), Lit(3))),
    ]
    for guard in guards:
        program = auth_program().__class__(DefSet(), Cond("p", guard, END, END))
        assert parse_cc(print_cc(program)) == program


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_cc("main { p.x -> q. }")
    span = err.value.span
    lines = "main { p.x -> q. }".split("\n")
    assert 1 <= span.line <= len(lines)
    assert 1 <= span.col <= len(lines[span.line - 1]) + 1
    assert err.value.expected


def test_rtcall_not_parseable_but_printable():
    chor = RTCall("X", ("p", "q"), END)
    assert "rt_call X [p, q]" in print_chor(chor)
    with pytest.raises(ParseError):
        parse_cc("main { rt_call X [p, q] { end } }")


def test_spans_cover_nodes():
    source = parse_cc_file(PROGRAMS.joinpath("authentication.cc").read_text())
    span = source.span_at(("main", "cont"))  # the conditional
    assert span is not None
    text_lines = source.text.split("\n")
    assert "if" in text_lines[span.line - 1]
    assert span.end_line >= span.line


def test_parse_sp_round_trips():
    bc = "ip!creds; ip & {left: s?t; end | right: end}"
    program = parse_sp(f"c[{bc}]")
    assert print_behaviour(program.network.get("c")) == bc
    assert parse_sp(print_sp(program)) == program


def test_parse_sp_end_is_empty_network():
    program = parse_sp("p[end]")
    assert program.network == Network()
    assert print_network(program.network) == "p0[end]"


def test_parse_sp_branch_slots():
    program = parse_sp("p[q & {}]")
    assert program.network.get("p") == Branch("q", None, None)
    program = parse_sp("p[q & {right: end}]")
    assert program.network.get("p") == Branch("q", None, ("", B_END))
    # Either listing order works.
    both = parse_sp("p[q & {right: end | left: end}]")
    assert both.network.get("p") == Branch("q", ("", B_END), ("", B_END))


def test_parse_sp_defs_and_calls():
    text = """
def X@p { q!1; end }

p[call X@p]
| q[p?x; end]
"""
    program = parse_sp(text)
    assert program.defs.get(("X", "p")) == Send("q", Lit(1), "", B_END)
    assert program.network.get("p") == BCall(("X", "p"))
    assert parse_sp(print_sp(program)) == program


def test_sp_projection_round_trips():
    from chorus import epp
    projected = epp(file_transfer_program())
    assert parse_sp(print_sp(projected)) == projected


def test_deadlock_file_parses():
    program = parse_sp(PROGRAMS.joinpath("deadlock.sp").read_text())
    assert program.network.support() == ("p", "q")


def test_tokenizer_rejects_stray_characters():
    with pytest.raises(ParseError):
        tokenize("main { ^ }")


def test_comments_are_skipped():
    program = parse_cc("# leading\nmain { # inline\n end }\n# trailing")
    assert program.main == END


def test_parse_error_spans_stay_inside_input():
    broken = [
        "main { p.x -> }",
        "main { if p then { end } else { end } }",
        "def X() { end } main { end }",
        "main { p -> q[middle]; end }",
        "main { p.x -> q.y; }",
        "main { call }",
        "def X(p) { end }",
    ]
    for text in broken:
        with pytest.raises(ParseError) as err:
            parse_cc(text)
        span = err.value.span
        lines = text.split("\n")
        assert 1 <= span.line <= len(lines)
        assert span.col >= 1
        assert span.col <= len(lines[span.line - 1]) + 2


def test_digits_that_are_not_decimal_are_parse_errors():
    # The tokenizer reads a nat as a run of str.isdigit; int() needs str.isdecimal.
    for digit in ("\u00b2", "\u2460"):  # superscript two, circled one
        for parse, text in ((parse_cc, f"main {{ p.{digit} -> q.x; end }}"),
                            (parse_sp, f"p[q!{digit}; end]")):
            with pytest.raises(ParseError) as err:
                parse(text)
            span = err.value.span
            assert text[span.col - 1:span.end_col - 1] == digit
    # Arabic-Indic three is decimal.
    program = parse_cc("main { p.\u0663 -> q.x; end }")
    assert program.main == Interaction(ComEta("p", Lit(3), "q", "x"), "", END)


def test_literals_past_the_digit_limit_are_located_parse_errors():
    # int() refuses a decimal string past the interpreter's digit limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        digits = "9" * 5000
        for parse, text in ((parse_cc, f"main {{ p.{digits} -> q.x; end }}"),
                            (parse_sp, f"p[q!{digits}; end]")):
            with pytest.raises(ParseError) as err:
                parse(text)
            span = err.value.span
            assert text[span.col - 1:span.end_col - 1] == digits
            assert "4300" in err.value.message
    finally:
        sys.set_int_max_str_digits(limit)


def _statement_paths(root, chor):
    """(path, node) for every statement of ``chor`` under ``root``."""
    stack = [(root, chor)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Interaction):
            stack.append((path + ("cont",), node.cont))
        elif isinstance(node, Cond):
            stack.append((path + ("then",), node.then_branch))
            stack.append((path + ("else",), node.else_branch))


def _blank(gap):
    """``gap`` with comments and blanks removed."""
    return "".join(re.sub(r"#[^\n]*", "", gap).split())


def _check_statement_spans(text):
    """Every statement's span, sliced from ``text``, starts at its first
    token and ends just past its ``;``, ``end``, ``call NAME`` or ``}``;
    consecutive statements leave only blanks and comments between them."""
    source = parse_cc_file(text)
    line_starts = [0]
    for line in text.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)
    bounds = {}
    roots = [(("main",), source.program.main)]
    roots += [(("proc", name), body) for name, (_, body) in source.program.defs.items()]
    for root, chor in roots:
        for path, node in _statement_paths(root, chor):
            span = source.span_at(path)
            start = line_starts[span.line - 1] + span.col - 1
            end = line_starts[span.end_line - 1] + span.end_col - 1
            bounds[path] = (start, end)
            piece = text[start:end]
            if isinstance(node, Interaction):
                assert re.match(re.escape(node.eta.sender) + r"(?!\w)", piece), (path, piece)
                assert piece.endswith(";"), (path, piece)
            elif isinstance(node, Cond):
                assert re.match(r"if(?!\w)", piece) and piece.endswith("}"), (path, piece)
            elif isinstance(node, Call):
                assert re.fullmatch(r"call\s+" + re.escape(node.name), piece), (path, piece)
            else:
                assert piece == "end", (path, piece)
        assert _blank(text[:bounds[root][0]]).endswith("{"), root

    def chain_end(path):
        while path + ("cont",) in bounds:
            path += ("cont",)
        return bounds[path][1]

    for path, (start, end) in bounds.items():
        if path + ("cont",) in bounds:
            assert _blank(text[end:bounds[path + ("cont",)][0]]) == "", path
        if path + ("then",) in bounds:
            then_start, then_end = bounds[path + ("then",)][0], chain_end(path + ("then",))
            else_start, else_end = bounds[path + ("else",)][0], chain_end(path + ("else",))
            assert _blank(text[start:then_start]).endswith("then{"), path
            assert _blank(text[then_end:else_start]) == "}else{", path
            assert _blank(text[else_end:end]) == "}", path
    for root, _ in roots:
        assert _blank(text[chain_end(root):]).startswith("}"), root
    return len(bounds)


def test_statement_spans_slice_each_statement():
    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.cc"))]
    texts += [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.cc"))]
    texts += [print_cc(gen_program(seed)) for seed in range(50)]
    assert len(texts) >= 56
    assert sum(map(_check_statement_spans, texts)) > 400


def test_string_error_span_covers_the_quoted_lexeme():
    # The span is sized from the source, not from the decoded value.
    for lexeme in ('"ééé"', '"\\u00e9\\u00e9\\u00e9"', '"a\\"b"', '""'):
        for parse, text in ((parse_cc, f"main {{ {lexeme} }}"), (parse_sp, f"p[{lexeme}]")):
            with pytest.raises(ParseError) as err:
                parse(text)
            span = err.value.span
            assert (span.line, span.end_line) == (1, 1)
            assert text[span.col - 1:span.end_col - 1] == lexeme, text


# Guards that open with "(" but are comparisons: ``bterm_atom`` first tries a
# parenthesised Boolean expression, fails, and reads a comparison instead.
BACKTRACK_GUARDS = {
    "(x) == 1": Eq(Var("x"), Lit(1)),
    "((x + 1)) <= 2 && (true)": And(Leq(Plus(Var("x"), Lit(1)), Lit(2)), BLit(True)),
}


def test_parenthesised_comparisons_parse_after_backtracking():
    for guard, tree in BACKTRACK_GUARDS.items():
        program = parse_cc(f"main {{ if p.{guard} then {{ end }} else {{ end }} }}")
        assert program.main == Cond("p", tree, END, END), guard
        network = parse_sp(f"p[if {guard} then {{ q!1; end }} else {{ end }}]").network
        assert network.get("p") == BCond(tree, Send("q", Lit(1), "", B_END), B_END), guard


def test_parenthesised_guards_read_each_parenthesis_once():
    # 100,000 levels parse at once: a quadratic reading would not finish.
    depth = 100000
    guard = "(" * depth + "x" + ")" * depth + " == 1"
    assert parse_cc(f"main {{ if p.{guard} then {{ end }} else {{ end }} }}").main == Cond(
        "p", Eq(Var("x"), Lit(1)), END, END)
    guard = "(" * depth + "x == 1" + ")" * depth + " && !(true)"
    assert parse_sp(f"p[if {guard} then {{ end }} else {{ end }}]").network.get("p") == BCond(
        And(Eq(Var("x"), Lit(1)), Not(BLit(True))), B_END, B_END)


# The tokens of formulas, and two that end one.
FORMULA_ALPHABET = ("x", "y", "0", "7", "succ", "fst", "snd", "pair", "true", "false",
                    "(", ")", ",", "+", "==", "<=", "&&", "!", "then", ";")
# Formulas from the grammar, token by token, to which ``_edited`` then makes
# up to three edits: most random token strings fail at once.
_EXPRS = st.recursive(st.sampled_from(("x", "y", "0", "7")), lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda pair: f"{pair[0]} + {pair[1]}"),
    inner.map(lambda arg: f"( {arg} )"),
    st.tuples(st.sampled_from(("succ", "fst", "snd")), inner).map(lambda call: "{} ( {} )".format(*call)),
    st.tuples(inner, inner).map(lambda pair: "pair ( {} , {} )".format(*pair))), max_leaves=6)
_BEXPRS = st.recursive(st.one_of(
    st.sampled_from(("true", "false")),
    st.tuples(_EXPRS, st.sampled_from(("==", "<=")), _EXPRS).map(" ".join)), lambda inner: st.one_of(
    inner.map(lambda term: f"! {term}"), inner.map(lambda term: f"( {term} )"),
    st.tuples(inner, inner).map(lambda pair: f"{pair[0]} && {pair[1]}")), max_leaves=4)


@st.composite
def _edited(draw):
    tokens = draw(st.one_of(_EXPRS, _BEXPRS)).split()
    for _ in range(draw(st.integers(0, 3))):
        at, token = draw(st.integers(0, len(tokens))), draw(st.sampled_from(FORMULA_ALPHABET))
        if draw(st.booleans()) and at < len(tokens):
            del tokens[at]
        else:
            tokens.insert(at, token)
    return " ".join(tokens)


def _formula_outcome(read):
    try:
        return read()
    except ParseError as err:
        return ("error", err.message, err.span, err.expected)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(st.sampled_from(FORMULA_ALPHABET), max_size=16).map(" ".join), _edited()))
def test_formulas_read_as_the_recursive_reader_reads_them(text):
    """The same tree and end, or the same error, as reading each
    nonterminal by a Python call."""
    for rule in ("expr", "bexpr"):
        parser, reader = _Parser(text), FormulaReader(text)
        assert _formula_outcome(lambda: (parser.read(rule), parser.pos)) == \
            _formula_outcome(lambda: (getattr(reader, rule)(), reader.pos)), (rule, text)


def test_backtracking_guards_locate_tokens_at_most_once(monkeypatch):
    import chorus.surface as surface
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(surface, "tokenize", counted)
    guards = list(BACKTRACK_GUARDS) * 1000
    cc = "".join(f"def X{i}(p) {{ if p.{guard} then {{ end }} else {{ end }} }}\n"
                 for i, guard in enumerate(guards)) + "main { end }"
    sp = "\n| ".join(f"p{i}[if {guard} then {{ q!1; end }} else {{ end }}]"
                     for i, guard in enumerate(guards))
    for parse, text, count in ((parse_cc, cc, lambda p: p.defs.support()),
                               (parse_sp, sp, lambda p: p.network.support())):
        calls.clear()
        assert len(count(parse(text))) == 2000
        assert len(calls) <= 1
        calls.clear()
        with pytest.raises(ParseError) as err:
            parse(text + " x")
        assert err.value.message == "trailing input starting at 'x'"
        assert len(calls) <= 1
