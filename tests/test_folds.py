"""The folds, loops and writers against the recursive definitions in
references.py, on shallow trees drawn by hypothesis, and the mechanism
itself: where ``fold`` is entered, and where not."""
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chorus import (
    And, B_END, BCall, BCond, BFALSE, BLit, BTRUE, Branch, Call, Choose, ComEta, Cond,
    DefSet, EMPTY_STATE, END, Eq, Fst, Interaction, Leq, Lit, Not, Pair, Plus, RCall, RCom,
    RCond, RSel, RTCall, Recv, SelEta, SelLabel, Send, Snd, State, Succ, Var, Network,
    ProjectionResult, bproj, cc_step, epp_c, eval_bexpr, eval_expr, merge, more_branches,
    parse_cc, parse_sp, print_behaviour, print_cc, print_chor,
)
from chorus.values import Failure, fold, write
from chorus.verification import _explore, check_property

from helpers import cc_enabled_unpruned
from references import (
    bproj_reference, cc_step_reference, chor_lines_reference, eval_bexpr_reference,
    eval_expr_reference, merge_reference, more_branches_reference, print_behaviour_reference,
)

PROCESSES = st.sampled_from("pqr")
ANNS = st.sampled_from(["", "a"])
EXPRS = st.sampled_from([Lit(1), Var("x"), Plus(Var("x"), Lit(1))])
GUARDS = st.sampled_from([BTRUE, BFALSE, Eq(Var("x"), Lit(1))])
ETAS = st.one_of(st.builds(ComEta, PROCESSES, EXPRS, PROCESSES, st.sampled_from("xy")),
                 st.builds(SelEta, PROCESSES, PROCESSES, st.sampled_from(SelLabel)))
CHORS = st.recursive(
    st.just(END) | st.builds(Call, st.sampled_from("XY")),
    lambda inner: (st.builds(Interaction, ETAS, ANNS, inner)
                   | st.builds(Cond, PROCESSES, GUARDS, inner, inner)
                   | st.builds(RTCall, st.just("X"), st.lists(PROCESSES, min_size=1, max_size=2),
                               inner)),
    max_leaves=10)
OFFERS = lambda inner: st.none() | st.tuples(ANNS, inner)  # noqa: E731
BEHAVIOURS = st.recursive(
    st.just(B_END) | st.just(BCall(("X", "p"))),
    lambda inner: (st.builds(Send, PROCESSES, EXPRS, ANNS, inner)
                   | st.builds(Recv, PROCESSES, st.sampled_from("xy"), ANNS, inner)
                   | st.builds(Choose, PROCESSES, st.sampled_from(SelLabel), ANNS, inner)
                   | st.builds(Branch, PROCESSES, OFFERS(inner), OFFERS(inner))
                   | st.builds(BCond, GUARDS, inner, inner)),
    max_leaves=8)
DEFS = DefSet({"X": (("p", "q"), END)})


def _outcome(result):
    return (result.behaviour, result.failure and (result.failure.reason, result.failure.path))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(CHORS)
def test_projection_and_printing_agree_with_the_recursive_definitions(chor):
    expected = {}
    for process in "pqrs":
        expected[process] = _outcome(bproj_reference(DEFS, chor, process))
        assert _outcome(bproj(DEFS, chor, process)) == expected[process]
    # epp_c's failure is the first failing process's, in name order.
    network = epp_c(DEFS, "srqp", chor)
    failed = [process for process in "pqrs" if expected[process][1]]
    if failed:
        assert (network.process, _outcome(ProjectionResult(None, network.diagnostic))) == (
            failed[0], expected[failed[0]])
    else:
        assert network == Network({p: expected[p][0] for p in "pqrs"})
    assert print_chor(chor) == "\n".join(chor_lines_reference(chor))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(BEHAVIOURS, BEHAVIOURS)
def test_merge_and_the_branching_order_agree_with_the_recursive_definitions(first, second):
    pairs = [(first, second), (first, first)]
    merged = merge(first, second)
    if merged.ok:
        pairs += [(merged.behaviour, first), (merged.behaviour, second)]
    for big, small in pairs:
        assert _outcome(merge(big, small)) == _outcome(merge_reference(big, small))
        assert more_branches(big, small) is more_branches_reference(big, small)
    assert print_behaviour(first) == print_behaviour_reference(first)


EXPR_TREES = st.recursive(
    st.builds(Lit, st.integers(0, 3)) | st.builds(Var, st.sampled_from("xy")),
    lambda inner: (st.builds(Succ, inner) | st.builds(Fst, inner) | st.builds(Snd, inner)
                   | st.builds(Plus, inner, inner) | st.builds(Pair, inner, inner)),
    max_leaves=8)
BEXPR_TREES = st.recursive(
    st.builds(BLit, st.booleans()) | st.builds(Eq, EXPR_TREES, EXPR_TREES)
    | st.builds(Leq, EXPR_TREES, EXPR_TREES),
    lambda inner: st.builds(Not, inner) | st.builds(And, inner, inner), max_leaves=6)
STATE = State({("p", "x"): 1, ("q", "x"): (2, 0), ("r", "y"): 3})
# Labels each of which some drawn choreography does not enable.
DISABLED = [RCom("p", 0, "q", "x"), RCom("q", 1, "r", "y"), RSel("q", "r", SelLabel.LEFT),
            RSel("p", "q", SelLabel.RIGHT), RCond("r"), RCall("X", "q"), RCall("Y", "p0")]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(CHORS)
def test_the_step_agrees_with_the_recursive_definition(chor):
    labels = [label for label, _, _ in cc_enabled_unpruned(DEFS, chor, STATE)]
    for label in labels + DISABLED:
        assert cc_step(DEFS, chor, STATE, label) == cc_step_reference(DEFS, chor, STATE, label)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(EXPR_TREES, BEXPR_TREES)
def test_evaluation_agrees_with_the_recursive_definitions(expr, bexpr):
    env = {"x": (2, (1, 0)), "y": 5}.get
    assert eval_expr(expr, lambda name: env(name, 0)) == eval_expr_reference(
        expr, lambda name: env(name, 0))
    assert eval_bexpr(bexpr, lambda name: env(name, 0)) is eval_bexpr_reference(
        bexpr, lambda name: env(name, 0))


@pytest.fixture
def fold_entries(monkeypatch):
    """The roots ``values.fold`` is entered with, from any module of ``chorus``."""
    entries = []

    def counted(root, open, close):
        entries.append(root)
        return fold(root, open, close)

    for name, module in list(sys.modules.items()):
        if name.startswith("chorus") and getattr(module, "fold", None) is fold:
            monkeypatch.setattr(module, "fold", counted)
    return entries


def test_chains_and_leaf_operands_enter_no_fold(fold_entries):
    # Interactions and a runtime term are walked in a loop, and the step is
    # rebuilt under them.
    ahead = Interaction(ComEta("r", Lit(4), "s", "y"), "", END)
    chor = Interaction(ComEta("p", Plus(Var("x"), Lit(1)), "q", "x"), "",
                       Interaction(SelEta("q", "p", SelLabel.LEFT), "",
                                   RTCall("X", ("q",), ahead)))
    assert cc_step(DEFS, chor, STATE, RCom("p", 2, "q", "x"))[0] == chor.cont
    delayed = cc_step(DEFS, chor, STATE, RCom("r", 4, "s", "y"))
    assert delayed == (Interaction(chor.eta, "", Interaction(chor.cont.eta, "",
                                                             RTCall("X", ("q",), END))),
                       STATE.put(("s", "y"), 4))
    # One level of operands, and chains of one-argument nodes over it.
    assert eval_expr(Plus(Var("x"), Lit(1)), lambda name: 3) == 4
    assert eval_expr(Succ(Fst(Pair(Lit(1), Var("x")))), lambda name: 3) == 2
    assert eval_bexpr(Not(Not(And(BTRUE, Eq(Var("x"), Lit(3))))), lambda name: 3) is True
    # No conditional that names the process, and equal branches to merge.
    told = Cond("r", BTRUE, Interaction(SelEta("r", "s", SelLabel.LEFT), "",
                                        Interaction(ComEta("r", Lit(0), "s", "y"), "", END)),
                Interaction(SelEta("r", "s", SelLabel.RIGHT), "", END))
    assert bproj(DEFS, Interaction(chor.eta, "", told), "q").behaviour == Recv(
        "p", "x", "", B_END)
    assert bproj(DEFS, Cond("r", BTRUE, chor, chor), "q").behaviour == Recv(
        "p", "x", "", Choose("p", SelLabel.LEFT, "", BCall(("X", "q"))))
    assert fold_entries == []
    # Differing branches are merged by one fold.
    assert bproj(DEFS, told, "s").behaviour == Branch(
        "r", ("", Recv("r", "y", "", B_END)), ("", B_END))
    assert len(fold_entries) == 1


def test_the_run_ahead_search_folds_only_to_hash_new_chains(fold_entries):
    program = parse_cc(Path(__file__).parent.joinpath("golden", "runahead.cc").read_text())
    reports = check_property("all", program, EMPTY_STATE, 8)
    assert [report.verdict for report in reports] == ["pass"] * 6
    # A successor is the one node of its tree, so no key is hashed by a fold.
    assert fold_entries == []
    graph = _explore(program, EMPTY_STATE, 8, link=True)
    for node, enabled in graph:
        for label, chor, state in enabled:
            assert cc_step(program.defs, node.chor, node.state, label)[0] is chor
        for label, child in node.children.items():
            assert child.chor is next(chor for rich, chor, _ in enabled if rich == label)
    # Choreographies with the same text (``repr`` writes every field) are one object.
    chors = [chor for _, enabled in graph for _, chor, _ in enabled]
    assert len({id(chor) for chor in chors}) == len({repr(chor) for chor in chors}) > len(graph)
    # A fold starts only where a tree branches: both of a conditional's
    # branches name the process and end in a conditional that names it.
    inner = Cond("p", BTRUE, END, END)
    bproj(DEFS, Cond("p", BTRUE, inner, inner), "p")
    assert len(fold_entries) == 1


def test_a_failure_names_the_first_branch_that_fails_and_its_path():
    ambiguous = Cond("p", BTRUE, Interaction(ComEta("a", Lit(1), "p", "y"), "", END), END)
    twice = Cond("r", BTRUE, Interaction(ComEta("r", Lit(0), "a", "w"), "", ambiguous), ambiguous)
    failure = bproj(DefSet(), twice, "a").failure
    assert (failure.reason, failure.path) == (
        "conditional at p is ambiguous for a: Send cannot merge with BEnd", ("then", "cont"))
    # The left offers' merge fails before the right offers' annotations are compared.
    left = Branch("p", ("", Send("q", Lit(1), "", B_END)), ("x", B_END))
    right = Branch("p", ("", B_END), ("y", B_END))
    failure = merge(left, right).failure
    assert (failure.reason, failure.path) == ("Send cannot merge with BEnd", ("left",))
    failure = merge(right, Branch("p", ("b", B_END), None)).failure
    assert (failure.reason, failure.path) == ("offer annotations differ", ("left",))


def test_fold_puts_the_path_before_a_failure_and_closes_in_order():
    tree = Interaction(SelEta("p", "q", SelLabel.LEFT), "",
                       Cond("p", BTRUE, END, RTCall("X", ("p",), Call("X"))))

    def down(node):
        if type(node) is Call:
            raise Failure("stop", ("here",))
        return node.children()

    with pytest.raises(Failure) as raised:
        fold(tree, down, lambda node, results: None)
    assert raised.value.path == ("cont", "else", "body", "here")
    names = fold(tree, lambda node: node.children() or type(node).__name__,
                 lambda node, results: f"{type(node).__name__}({', '.join(results)})")
    assert names == "Interaction(Cond(End, RTCall(Call)))"
    # An only child given as (step, child, None) passes its result up unclosed.
    passed = fold(tree, lambda node: [("cont", node.cont, None)] if type(node) is Interaction
                  else node.children() or "leaf", lambda node, results: f"{list(results)}")
    assert passed == "['leaf', \"['leaf']\"]"
    assert write(("a", ("b", "c")), lambda item: [item[0], "+", item[1]] if type(item) is tuple
                 else [item]) == "a+b+c"


DEPTH = 3000
# Each shape nests DEPTH deep in one way; each is a legal program.
SHAPES = {
    "else_if": "main { " + "".join(f"if p.x == {i} then {{ p -> q[left]; end }} else "
                                   f"{{ p -> q[right]; " for i in range(DEPTH))
               + "end" + " }" * DEPTH + " }",
    "then_nested": "main { " + "if p.x == 0 then { " * DEPTH + "q.1 -> r.y; end"
                   + " } else { q.1 -> r.y; end }" * DEPTH + " }",
    "parentheses": "main { p." + "(" * DEPTH + "1" + ")" * DEPTH + " -> q.x; end }",
    "guard": "main { if p." + "(" * DEPTH + "x" + ")" * DEPTH
             + " == 1 then { end } else { end } }",
    "pair": "main { p." + "pair(" * DEPTH + "1" + ", 0)" * DEPTH + " -> q.x; end }",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_deep_shapes_print_and_parse_back(shape):
    program = parse_cc(SHAPES[shape])
    assert parse_cc(print_cc(program)) == program


def test_deep_shapes_project_and_step():
    from chorus import EMPTY_STATE, cc_enabled, epp, print_sp
    for shape, text in SHAPES.items():
        program = parse_cc(text)
        projected = epp(program)
        assert parse_sp(print_sp(projected)) == projected, shape
        assert cc_enabled(program.defs, program.main, EMPTY_STATE), shape
    # Under DEPTH conditionals, the delayed q -> r steps both branches of each.
    program = parse_cc(SHAPES["then_nested"])
    labels = [label for label, _, _ in cc_enabled(program.defs, program.main, EMPTY_STATE)]
    assert [type(label).__name__ for label in labels] == ["RCond", "RCom"]
