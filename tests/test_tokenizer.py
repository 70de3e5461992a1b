"""The tokenizer against the character-loop scanner it replaced, and the
parser's lexeme scan against the tokenizer."""
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chorus.surface
from chorus import epp, gen_program, print_cc, print_sp
from chorus.cli import main
from chorus.surface import ParseError, _scan, tokenize

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


def test_successful_commands_never_locate_tokens(monkeypatch, tmp_path):
    def refuse(text):
        raise AssertionError("tokenize called")

    monkeypatch.setattr(chorus.surface, "tokenize", refuse)
    sp = str(tmp_path / "auth.sp")
    for path in sorted(ROOT.glob("programs/*.cc")):
        source = str(path)
        for argv in (["check", source], ["project", source, "--out", sp], ["run", source],
                     ["simulate", sp], ["verify", source, "--depth", "4"]):
            assert main(argv) == 0, argv
    with pytest.raises(AssertionError):
        main(["check", str(ROOT / "tests" / "golden" / "parse_errors" / "comparison.cc")])
