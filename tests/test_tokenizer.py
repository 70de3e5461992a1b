"""The tokenizer against the character-loop scanner it replaced, and the
parser's lexeme scan against the tokenizer."""
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import chorus.surface
from chorus import epp, gen_program, parse_cc, print_cc, print_sp
from chorus.cli import main
from chorus.surface import ParseError, Span, _locate, _scan, parse_cc_file, tokenize

from helpers import tokenize_reference

ROOT = Path(__file__).resolve().parent.parent

# Every symbol, quotes, escapes (``u`` and ``/`` make more of them),
# comments, line breaks, blanks, three characters that are not blanks (a
# vertical tab, a line separator, a control character), plain word
# characters, and word characters on which ``str.isdigit``, ``str.isalpha``
# and ``\d`` disagree.
ALPHABET = ("(+)", "->", "==", "<=", "&&", "!", "?", "@", ";", ":", ",", ".",
            "{", "}", "(", ")", "[", "]", "+", "|", "&", "-", "=", "<",
            '"', "\\", "#", "\n", "\r", " ", "\t", "\x0b", "\u2028", "\x01", "u", "/",
            "a", "x", "_", "0", "7", "²", "½", "é", "①", "Ⅻ", "٣",
            '"\\u00e9"', '"\\q"', '"a b"', '"\\\n"', "main", "end")


def _outcome(scan, text):
    try:
        return [tuple(token) for token in scan(text)]
    except ParseError as err:
        return ("error", err.message, err.span, err.expected)


def _slices(text):
    """The source text of each of ``tokenize``'s tokens, "" for the end."""
    lines = text.split("\n")
    return [lines[line - 1][col - 1:end - 1] for _, _, line, col, end in tokenize(text)[:-1]] + [""]


def _agree(text):
    """The tokenizer matches the reference scanner, and the lexeme scan
    gives the tokens' source text or raises the tokenizer's error."""
    assert _outcome(tokenize, text) == _outcome(tokenize_reference, text)
    assert _outcome(lambda t: _scan(t)[0], text) == _outcome(_slices, text)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_tokenize_matches_reference(text):
    _agree(text)


def test_tokenize_matches_reference_on_programs():
    texts = [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("programs/*"))]
    assert len(texts) >= 3
    for text in texts + ["", "# only a comment", "main { end } # last", "x\n# c\n"]:
        _agree(text)


def test_tokenize_matches_reference_on_generated_programs():
    programs = [gen_program(seed) for seed in range(200)]
    texts = [print_cc(program) for program in programs]
    texts += [print_sp(epp(program)) for program in programs]
    for text in texts:
        _agree(text)


def _spans_from_tokens(text):
    """Every token's ``Span`` as ``tokenize`` places it: the reference."""
    return [Span(line, col, line, end) for _, _, line, col, end in tokenize(text)]


def _joined(reference, first, last):
    """The span from token ``first`` to ``last`` of a reference."""
    return Span(reference[first].line, reference[first].col,
                reference[last].end_line, reference[last].end_col)


def _located(text, first, last):
    """``_locate`` on a text whose lexeme scan made no tokens."""
    assert _scan(text)[1] is None, "the text needs tokenize"
    return _locate(SimpleNamespace(text=text, tokens=None), first, last)


def _locates_every_token(text):
    reference = _spans_from_tokens(text)
    for index, span in enumerate(reference):
        assert _located(text, index, index) == span, (text, index)
    return reference


def _cc_texts():
    paths = sorted(ROOT.glob("programs/*.cc")) + sorted(ROOT.glob("tests/golden/*.cc"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    return texts + [print_cc(gen_program(seed)) for seed in range(200)]


def test_locator_places_every_token_of_the_parse_error_files_as_tokenize():
    paths = sorted((ROOT / "tests" / "golden" / "parse_errors").iterdir())
    assert len(paths) >= 12
    for path in paths:
        _locates_every_token(path.read_text(encoding="utf-8"))


def test_locator_places_every_statement_span_as_tokenize():
    ascii_texts = 0
    for text in _cc_texts():
        source = parse_cc_file(text)
        if source.tokens is not None:  # a name outside ASCII: tokenize's own tokens
            continue
        ascii_texts += 1
        reference = _spans_from_tokens(text)
        for spans in source.spans.values():
            for first, last in spans:
                assert _locate(source, first, last) == _joined(reference, first, last)
    assert ascii_texts >= 200


@pytest.mark.parametrize("text", [
    "main { end } # last",         # a final comment without a line break
    "main { end } # last\n",       # and with one
    "main { end }\n# a\n  # b  ",  # the end after comment lines and blanks
    "main {\r\n  p.0 -> q.x;\r\n  end\r\n}\r\n",  # CRLF line ends
    "main {\n\tp.0 -> q.x;\t# tabbed\n\tend }\t\t",
    "", "  ", "# only a comment", "\n\n", "x", "main",
])
def test_locator_hand_cases(text):
    reference = _locates_every_token(text)
    last = len(reference) - 1
    assert _located(text, 0, last) == _joined(reference, 0, last)
    if last:
        assert _located(text, 0, last - 1) == _joined(reference, 0, last - 1)
        assert _located(text, last - 1, last) == _joined(reference, last - 1, last)


def test_locator_falls_back_on_tokens_outside_ascii():
    text = "main {\n  \u00e9.1 -> q.x;\n  end }"
    source = parse_cc_file(text)
    assert source.tokens == tokenize(text)
    assert source.span_at(("main",)) == Span(2, 3, 2, 14)
    with pytest.raises(ParseError) as caught:
        parse_cc("main {\n  \u00e9.1 -> q.x;\n  end } x")
    assert caught.value.span == Span(3, 9, 3, 10)


def test_successful_commands_never_locate_tokens(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a token was located")

    monkeypatch.setattr(chorus.surface, "tokenize", refuse)
    monkeypatch.setattr(chorus.surface, "_locate", refuse)
    sp = str(tmp_path / "auth.sp")
    for path in sorted(ROOT.glob("programs/*.cc")):
        source = str(path)
        for argv in (["check", source], ["project", source, "--out", sp], ["run", source],
                     ["simulate", sp], ["verify", source, "--depth", "4"]):
            assert main(argv) == 0, argv
    with pytest.raises(AssertionError):
        main(["check", str(ROOT / "tests" / "golden" / "parse_errors" / "comparison.cc")])
    located = []
    monkeypatch.setattr(chorus.surface, "_locate",
                        lambda *args: located.append(args) or _locate(*args))
    assert main(["check", str(ROOT / "tests" / "golden" / "parse_errors" / "comparison.cc")]) == 2
    assert len(located) == 1
