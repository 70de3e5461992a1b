import random

import pytest
from hypothesis import given, settings, strategies as st

from chorus import (
    And, B_END, BFALSE, BLit, BTRUE, Branch, CCProgram, Choose, DefSet, DefSetB, EMPTY_STATE, END,
    Eq, Fst, Leq, Lit, Network, Not, Pair, Plus, RCom, RSel, RTCall, SPProgram, SelLabel,
    Send, Snd, State, Succ, Var, cc_enabled, epp, eval_bexpr, eval_expr, gen_program,
)
from chorus.choreography import DEFAULT_PROCESS
from chorus.surface import parse_cc, print_bexpr, print_expr
from chorus.values import (
    Node, eval_on_state, leftmost_nat, state_from_json, state_to_json,
    value_from_json, value_text, value_to_json,
)

from references import eval_bexpr_reference, eval_expr_reference


def env(**bindings):
    return lambda name: bindings.get(name, 0)


def test_eval_expr_basics():
    assert eval_expr(Succ(Lit(4)), env()) == 5
    assert eval_expr(Var("x"), env(x=7)) == 7
    assert eval_expr(Fst(Pair(Lit(1), Lit(2))), env()) == 1
    assert eval_expr(Snd(Pair(Lit(1), Lit(2))), env()) == 2
    assert eval_expr(Plus(Lit(2), Lit(3)), env()) == 5
    assert eval_expr(Pair(Lit(1), Pair(Lit(2), Lit(3))), env()) == (1, (2, 3))


def test_eval_expr_coercions():
    # Pairs coerce to their leftmost leaf for arithmetic; projections of
    # non-pairs return the value itself.
    assert leftmost_nat(((4, 1), 2)) == 4
    assert eval_expr(Succ(Pair(Lit(4), Lit(9))), env()) == 5
    assert eval_expr(Plus(Pair(Lit(2), Lit(9)), Lit(1)), env()) == 3
    assert eval_expr(Fst(Lit(3)), env()) == 3
    assert eval_expr(Snd(Lit(3)), env()) == 3


def test_eval_bexpr_basics():
    assert eval_bexpr(Eq(Lit(3), Lit(3)), env()) is True
    assert eval_bexpr(Leq(Lit(5), Lit(2)), env()) is False
    assert eval_bexpr(And(BTRUE, Not(BFALSE)), env()) is True
    # Structural equality distinguishes a pair from its leftmost leaf.
    assert eval_bexpr(Eq(Pair(Lit(1), Lit(2)), Lit(1)), env()) is False
    assert eval_bexpr(Leq(Pair(Lit(1), Lit(9)), Lit(1)), env()) is True


def test_eval_respects_extensional_env_equality():
    rng = random.Random(11)
    for _ in range(50):
        expr = Plus(Succ(Var("a")), Fst(Pair(Var("b"), Lit(rng.randrange(5)))))
        a, b = rng.randrange(9), rng.randrange(9)
        assert eval_expr(expr, env(a=a, b=b)) == eval_expr(expr, lambda n: {"a": a, "b": b}.get(n, 0))


def test_eval_on_state_uses_default():
    state = State({("ip", "x"): 9})
    assert eval_on_state(Var("x"), state, "ip") == 9
    assert eval_on_state(Lit(0), state, "other") == 0
    # Unset variable reads as 0, so succ gives 1.
    assert eval_on_state(Succ(Var("zz")), EMPTY_STATE, "anyone") == 1


def test_state_update_prunes_defaults():
    assert EMPTY_STATE.update("p", "x", 0) == EMPTY_STATE
    state = EMPTY_STATE.update("p", "x", 3)
    assert state.lookup("p", "x") == 3
    assert state.update("p", "x", 0) == EMPTY_STATE


def test_total_maps_repr_as_their_kind_over_sorted_entries():
    assert repr(State({("q", "y"): (1, 2), ("p", "x"): 3})) == (
        "State({('p', 'x'): 3, ('q', 'y'): (1, 2)})")
    assert repr(EMPTY_STATE) == "State({})"
    assert repr(Network({"q": B_END, "p": Send("q", Lit(1), "", B_END)})) == (
        "Network({'p': Send(peer='q', expr=Lit(value=1), ann='', cont=BEnd())})")


def test_state_eq_last_write_wins():
    base = State({("q", "y"): 1})
    twice = base.update("p", "x", 1).update("p", "x", 2)
    once = base.update("p", "x", 2)
    assert twice == once


def test_state_eq_ignores_explicit_defaults():
    # Construction prunes zero entries, so the two maps agree pointwise
    # over the union of their supports.
    left = State({("p", "x"): 0, ("q", "y"): 2})
    right = State({("q", "y"): 2})
    keys = set(dict(left.items())) | set(dict(right.items()))
    assert all(left.lookup(*k) == right.lookup(*k) for k in keys)
    assert left == right
    assert hash(left) == hash(right)


def test_state_eq_is_equivalence():
    states = [EMPTY_STATE, State({("p", "x"): 1}), State({("p", "x"): 1, ("q", "y"): (1, 2)})]
    for s in states:
        assert s == s
    assert states[1] == State({("p", "x"): 1})
    assert states[1] != states[2]


def test_canonical_invariant_after_updates():
    rng = random.Random(5)
    state = EMPTY_STATE
    for _ in range(200):
        value = rng.choice([0, 1, 2, (1, 2), (0, (1, 0))])
        state = state.update(rng.choice("pq"), rng.choice("xyz"), value)
        assert all(v != 0 for _, v in state.items())


SEND = Send("q", Lit(1), "", B_END)


# (map class, a key, a value as given, the value as stored, the default,
#  a second key)
@pytest.mark.parametrize("cls, key, given, stored, default, key2", [
    pytest.param(State, ("p", "x"), (0, 2), (0, 2), 0, ("q", "y"), id="State"),
    pytest.param(DefSet, "X", (("s", "c", "s"), END), (("c", "s"), END),
                 ((DEFAULT_PROCESS,), END), "Y", id="DefSet"),
    pytest.param(Network, "p", SEND, SEND, B_END, "q", id="Network"),
    pytest.param(DefSetB, ("X", "p"), SEND, SEND, B_END, ("Y", "q"), id="DefSetB"),
])
def test_total_map_laws(cls, key, given, stored, default, key2):
    empty = cls()
    one = cls({key: given})
    # Construction canonicalises (DefSet sorts and dedupes process lists).
    assert one.get(key) == stored and empty.get(key) == default
    assert one.support() == (key,) and one.items() == [(key, stored)]
    # Default entries are pruned on construction and by put.
    assert cls({key: default}) == empty and cls({key: default}).support() == ()
    assert one.put(key, default) == empty and one.put(key, default).support() == ()
    # Put is copy-on-write, and put-then-put-default restores the original.
    assert empty.put(key, stored) == one and empty.get(key) == default
    assert empty.put(key, stored).put(key, default) == empty
    # Equal maps have equal hashes.
    for same in (empty.put(key, stored), cls(dict(one.items()))):
        assert same == one and hash(same) == hash(one)
    assert hash(one.put(key, default)) == hash(empty)
    # The hash is computed on first use: a chain of puts, hashed at any point
    # or never, equals the same map built in one go, with the same hash.
    hashed = empty.put(key2, stored)
    hash(hashed)
    for chained in (empty.put(key2, stored).put(key, stored), hashed.put(key, stored)):
        at_once = cls({key: stored, key2: stored})
        assert chained == at_once and hash(chained) == hash(at_once)
    # Maps of different classes are unequal, even with the same entries.
    for other in (State, DefSet, Network, DefSetB):
        if other is not cls:
            assert other() != empty and other().put(key, stored) != one


def _deep_send(n):
    deep = B_END
    for _ in range(n):
        deep = Send("q", Lit(1), "", deep)
    return deep


def test_network_does_not_hash_behaviours(monkeypatch):
    deep = _deep_send(5000)

    def refuse(behaviour):
        raise AssertionError("a behaviour was hashed")

    monkeypatch.setattr(Send, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(deep)
    network = Network({"p": deep})
    assert network.put("q", deep).support() == ("p", "q")
    assert network.put("p", B_END) == Network()


def test_deep_behaviours_hash():
    deep = _deep_send(5000)
    assert hash(deep) == hash(_deep_send(5000))
    assert hash(Network({"p": deep})) == hash(Network({"p": _deep_send(5000)}))


def test_value_json_round_trip():
    for value in (0, 5, (1, 2), ((3, 0), (1, (2, 2)))):
        assert value_from_json(value_to_json(value)) == value


_VALUES = st.recursive(st.integers(0, 2**70), lambda inner: st.tuples(inner, inner),
                       max_leaves=10)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_value_writers_match_json_dumps(value):
    import json
    data = value_to_json(value)
    assert value_text(value, "[]") == value_text(data, "[]") == json.dumps(data)
    assert value_from_json(json.loads(json.dumps(data))) == value
    expected = str(value).replace(",)", ")") if isinstance(value, tuple) else str(value)
    assert value_text(value) == expected


def test_values_nested_past_the_recursion_limit_write_and_read_in_a_loop():
    value = 0
    for _ in range(100000):
        value = (value, 1)
    data = value_to_json(value)
    text = value_text(data, "[]")
    assert text == "[" * 100000 + "0" + ", 1]" * 100000
    assert value_text(value) == "(" * 100000 + "0" + ", 1)" * 100000
    assert value_from_json(data)[1] == 1 and leftmost_nat(value_from_json(data)) == 0


def test_state_json_round_trip():
    state = State({("p", "x"): 3, ("q", "y"): (1, (0, 2))})
    assert state_from_json(state_to_json(state)) == state
    assert state_to_json(state) == {"p.x": 3, "q.y": [1, [0, 2]]}


# --------------------------------------------------------------------------
# Chains of ``+`` and ``&&`` evaluate as the recursive definitions in
# references.py, and print as the recursive definitions below.

def _print_reference(expr) -> str:
    if isinstance(expr, Plus):
        right = _print_reference(expr.right)
        right = f"({right})" if isinstance(expr.right, Plus) else right
        return f"{_print_reference(expr.left)} + {right}"
    if isinstance(expr, Pair):
        return f"pair({_print_reference(expr.left)}, {_print_reference(expr.right)})"
    return print_expr(expr)


def _print_b_reference(bexpr) -> str:
    if isinstance(bexpr, And):
        right = _print_b_reference(bexpr.right)
        right = f"({right})" if isinstance(bexpr.right, And) else right
        return f"{_print_b_reference(bexpr.left)} && {right}"
    if isinstance(bexpr, Not):
        # A negation of a negation needs no parentheses: ``!!(b)``.
        arg = _print_b_reference(bexpr.arg)
        return f"!{arg}" if isinstance(bexpr.arg, Not) else f"!({arg})"
    if isinstance(bexpr, Eq):
        return f"{_print_reference(bexpr.left)} == {_print_reference(bexpr.right)}"
    return print_bexpr(bexpr)


_EXPRS = st.recursive(
    st.builds(Lit, st.integers(0, 3)) | st.builds(Var, st.sampled_from("xy")),
    lambda inner: st.builds(Plus, inner, inner) | st.builds(Pair, inner, inner), max_leaves=8)
_BEXPRS = st.recursive(
    st.builds(BLit, st.booleans()) | st.builds(Eq, _EXPRS, _EXPRS),
    lambda inner: st.builds(And, inner, inner) | st.builds(Not, inner), max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_EXPRS, _BEXPRS)
def test_chains_evaluate_and_print_as_the_recursive_definitions(expr, bexpr):
    bindings = env(x=(2, 1), y=5)
    assert eval_expr(expr, bindings) == eval_expr_reference(expr, bindings)
    assert eval_bexpr(bexpr, bindings) is eval_bexpr_reference(bexpr, bindings)
    assert print_expr(expr) == _print_reference(expr)
    assert print_bexpr(bexpr) == _print_b_reference(bexpr)


def test_right_nested_chains_keep_their_parentheses():
    text = "main { if p.a + (b + c) + d == 1 && (true && false) then { end } else { end } }"
    guard = parse_cc(text).main.guard
    assert guard == And(Eq(Plus(Plus(Var("a"), Plus(Var("b"), Var("c"))), Var("d")), Lit(1)),
                        And(BTRUE, BFALSE))
    assert print_bexpr(guard) == "a + (b + c) + d == 1 && (true && false)"


def _repr_reference(value):
    """The recursive ``Kind(field=repr, ...)`` that ``Node.__repr__`` writes in a loop."""
    if isinstance(value, Node):
        fields = ", ".join(f"{name}={_repr_reference(getattr(value, name))}"
                           for name in value.FIELDS)
        return f"{type(value).__name__}({fields})"
    if type(value) is tuple:
        inner = ", ".join(map(_repr_reference, value))
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return repr(value)


def test_node_repr_matches_the_recursive_reference():
    trees = [RTCall("X", ("q", "p"), END), RCom("p", (1, (2, 3)), "q", "x"),
             Branch("p", None, ("ann", Send("q", Var("x"), "", B_END))),
             RSel("p", SelLabel.LEFT, "q"), Not(And(BTRUE, Leq(Lit(1), Var("x")))),
             parse_cc("main { p.1 + (2 + x) -> q.x @ \"a\"; if p.!(true) then "
                      "{ p -> q[left]; end } else { call X } }").main]
    for seed in range(40):
        program = gen_program(seed)
        trees += [program.main, *(program.defs.body(name) for name in program.defs.support())]
        trees += [label for label, _, _ in cc_enabled(program.defs, program.main, EMPTY_STATE)]
        projected = epp(program)
        trees += [behaviour for _, behaviour in projected.network.items()]
        trees += [body for _, body in projected.defs.items()]
    for tree in trees:
        assert repr(tree) == _repr_reference(tree)
    assert repr(State({("p", "x"): (1, 2)})) == "State({('p', 'x'): (1, 2)})"


def test_repr_of_a_long_chain_does_not_recurse():
    chain = parse_cc("main { " + "p.0 -> q.x; " * 20000 + "end }").main
    text = repr(chain)
    assert text.startswith("Interaction(eta=ComEta(sender='p', expr=Lit(value=0), ")
    assert text.count("Interaction(") == 20000 and text.endswith("cont=End()" + ")" * 20000)
    behaviour = B_END
    for _ in range(20000):
        behaviour = Choose("q", SelLabel.LEFT, "", behaviour)
    for holder in (CCProgram(DefSet({"X": (("p", "q"), chain)}), chain),
                   SPProgram(DefSetB(), Network({"p": behaviour}))):
        assert repr(holder).count("cont=") >= 20000
