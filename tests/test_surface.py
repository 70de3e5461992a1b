from pathlib import Path

import pytest

from chorus import (
    And, B_END, BCall, BLit, Branch, ComEta, Cond, DefSet, END, Eq,
    Interaction, Leq, Lit, Network, Not, ParseError, Plus, RTCall, Send,
    Var, parse_cc, parse_sp, print_cc, print_chor,
    print_network, print_sp, program_wf,
)
from chorus.surface import parse_cc_file, print_behaviour, tokenize

from helpers import auth_program, file_transfer_program, unmended_program

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


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
    projected = epp(file_transfer_program(), ("FileTransfer",))
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
