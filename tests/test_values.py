import random

import pytest

from chorus import (
    And, B_END, BFALSE, BTRUE, DefSet, DefSetB, EMPTY_STATE, END, Eq, Fst,
    Leq, Lit, Network, Not, Pair, Plus, Send, Snd, State, Succ, Var,
    eval_bexpr, eval_expr,
)
from chorus.choreography import DEFAULT_PROCESS
from chorus.values import (
    eval_on_state, leftmost_nat, state_from_json, state_to_json,
    value_from_json, value_to_json,
)


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


# (map class, a key, a value as given, the value as stored, the default)
@pytest.mark.parametrize("cls, key, given, stored, default", [
    pytest.param(State, ("p", "x"), (0, 2), (0, 2), 0, id="State"),
    pytest.param(DefSet, "X", (("s", "c", "s"), END), (("c", "s"), END),
                 ((DEFAULT_PROCESS,), END), id="DefSet"),
    pytest.param(Network, "p", SEND, SEND, B_END, id="Network"),
    pytest.param(DefSetB, ("X", "p"), SEND, SEND, B_END, id="DefSetB"),
])
def test_total_map_laws(cls, key, given, stored, default):
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
    # Maps of different classes are unequal, even with the same entries.
    for other in (State, DefSet, Network, DefSetB):
        if other is not cls:
            assert other() != empty and other().put(key, stored) != one


def test_value_json_round_trip():
    for value in (0, 5, (1, 2), ((3, 0), (1, (2, 2)))):
        assert value_from_json(value_to_json(value)) == value


def test_state_json_round_trip():
    state = State({("p", "x"): 3, ("q", "y"): (1, (0, 2))})
    assert state_from_json(state_to_json(state)) == state
    assert state_to_json(state) == {"p.x": 3, "q.y": [1, [0, 2]]}
