"""The JSON trace line of a step against the dict builders it replaced."""
import json

import pytest
from hypothesis import given, settings, strategies as st

from chorus.labels import (
    RCall, RCom, RCond, RSel, TCom, TTau, forget, rich_to_json, step_json, transition_to_json,
)
from chorus.values import SelLabel

# Arbitrary text, drawing often the characters JSON escapes: quotes,
# backslashes, control characters, non-ASCII and non-BMP characters, and a
# lone surrogate.
NAMES = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f é\ud800𝒳\U0010ffff'), st.characters()), max_size=8)

# Naturals, some above 2**64, and booleans, which ``int`` subclasses but
# JSON prints as ``true``/``false``; nested into pairs.
VALUES = st.recursive(
    st.integers(0, 2**16) | st.integers(2**64, 2**200) | st.booleans(),
    lambda inner: st.tuples(inner, inner), max_leaves=8)

LABELS = st.one_of(
    st.builds(RCom, NAMES, VALUES, NAMES, NAMES),
    st.builds(RSel, NAMES, NAMES, st.sampled_from(SelLabel)),
    st.builds(RCond, NAMES),
    st.builds(RCall, NAMES | st.tuples(NAMES, NAMES), NAMES),
)


def _reference(rich) -> str:
    return json.dumps({"label": transition_to_json(forget(rich)), "rich": rich_to_json(rich)})


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(LABELS)
def test_step_json_matches_dict_builders(rich):
    assert step_json(rich) == _reference(rich)


def test_step_json_on_each_kind():
    assert step_json(RCom("café", (1, (2, 2**70)), "q", "x")) == (
        '{"label": {"kind": "com", "from": "caf\\u00e9", "to": "q", "value": '
        '[1, [2, 1180591620717411303424]]}, "rich": {"kind": "com", "from": "caf\\u00e9", '
        '"to": "q", "value": [1, [2, 1180591620717411303424]], "var": "x"}}')
    assert step_json(RSel("p", "q", SelLabel.LEFT)) == (
        '{"label": {"kind": "sel", "from": "p", "to": "q", "sel": "left"}, '
        '"rich": {"kind": "sel", "from": "p", "to": "q", "sel": "left"}}')
    assert step_json(RCond("p")) == (
        '{"label": {"kind": "tau", "at": "p"}, "rich": {"kind": "cond", "at": "p"}}')
    assert step_json(RCall(("X", "p"), "p")) == (
        '{"label": {"kind": "tau", "at": "p"}, '
        '"rich": {"kind": "call", "proc": ["X", "p"], "at": "p"}}')
    for rich in (RCom("p", True, "q", "x"), RCall("X", "𝒳")):
        assert step_json(rich) == _reference(rich)


@pytest.mark.parametrize("label", [TTau("p"), TCom("p", 0, "q"), "com(p,0,q)"])
def test_step_json_rejects_what_forget_rejects(label):
    with pytest.raises(TypeError):
        forget(label)
    with pytest.raises(TypeError):
        step_json(label)
