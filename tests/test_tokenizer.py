"""The tokenizer against the character-loop scanner it replaced."""
from pathlib import Path

from hypothesis import given, settings, strategies as st

from chorus import epp, gen_program, print_cc, print_sp
from chorus.surface import ParseError, tokenize

from helpers import tokenize_reference

ROOT = Path(__file__).resolve().parent.parent

# Every symbol, quotes, escapes, comments, line breaks, blanks, two
# characters that are not blanks (a vertical tab, a line separator), plain
# word characters, and word characters on which ``str.isdigit``,
# ``str.isalpha`` and ``\d`` disagree.
ALPHABET = ("(+)", "->", "==", "<=", "&&", "!", "?", "@", ";", ":", ",", ".",
            "{", "}", "(", ")", "[", "]", "+", "|", "&", "-", "=", "<",
            '"', "\\", "#", "\n", "\r", " ", "\t", "\x0b", "\u2028",
            "a", "x", "_", "0", "7", "²", "½", "é", "①", "Ⅻ", "٣",
            '"\\u00e9"', '"\\q"', '"a b"', '"\\\n"', "main", "end")


def _outcome(scan, text):
    try:
        return [tuple(token) for token in scan(text)]
    except ParseError as err:
        return ("error", err.message, err.span, err.expected)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_tokenize_matches_reference(text):
    assert _outcome(tokenize, text) == _outcome(tokenize_reference, text)


def test_tokenize_matches_reference_on_programs():
    texts = [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("programs/*"))]
    assert len(texts) >= 3
    for text in texts + ["", "# only a comment", "main { end } # last", "x\n# c\n"]:
        assert _outcome(tokenize, text) == _outcome(tokenize_reference, text)


def test_tokenize_matches_reference_on_generated_programs():
    programs = [gen_program(seed) for seed in range(200)]
    texts = [print_cc(program) for program in programs]
    texts += [print_sp(epp(program)) for program in programs]
    for text in texts:
        assert _outcome(tokenize, text) == _outcome(tokenize_reference, text)
