import random

import pytest

from chorus import (
    B_END, BCall, BCond, BFALSE, BTRUE, Branch, CCProgram, Call, Choose,
    ComEta, Cond, DefSet, DefSetB, END, EppFailure, Lit, Network, RCom,
    RCall, RCond, RTCall, Recv, SelEta, Send, Var, behaviour_wf, bproj,
    cc_enabled, cc_step, ccp_pn, epp, epp_c, gen_program, merge, more_branches,
    more_branches_net, parse_cc, program_wf, projectable_d, projectable_p,
    singleton, str_proj, str_proj_p,
)
from chorus.choreography import walk
from chorus.values import EMPTY_STATE

from helpers import (
    LEFT, RIGHT, auth_expected_network, auth_program, file_transfer_body,
    file_transfer_program, seq, str_proj_reference, unmended_program,
)


# --------------------------------------------------------------------------
# Branching order

def test_more_branches_basics():
    assert more_branches(B_END, B_END)
    full = Branch("p", ("a", B_END), ("b", B_END))
    bare = Branch("p", None, None)
    assert more_branches(full, bare)
    assert not more_branches(bare, full)
    send_p = Send("p", Lit(1), "", B_END)
    send_q = Send("q", Lit(1), "", B_END)
    assert not more_branches(send_p, send_q)
    assert not more_branches(B_END, bare)


def test_more_branches_requires_matching_annotations():
    upper = Branch("p", ("a", B_END), None)
    lower = Branch("p", ("b", B_END), None)
    assert not more_branches(upper, lower)
    assert more_branches(upper, Branch("p", ("a", B_END), None))


def test_more_branches_net():
    net = auth_expected_network()
    assert more_branches_net(net, net)
    taller = Branch("q", None, None)
    assert not more_branches_net(Network(), singleton("p", taller))


def test_projection_shrinks_for_bystanders_after_conditional():
    # Taking the then-branch can only drop offers for uninvolved processes.
    program = auth_program()
    processes = ("c", "ip", "s")
    before = epp_c(program.defs, processes, program.main)
    st2 = EMPTY_STATE.update("ip", "x", 7).update("ip", "secret", 7)
    after_com = cc_step(program.defs, program.main, EMPTY_STATE.update("ip", "secret", 7).update("c", "creds", 7),
                        RCom("c", 7, "ip", "x"))
    chor2, st = after_com
    then = cc_step(program.defs, chor2, st, RCond("ip"))
    proj_then = epp_c(program.defs, processes, then[0])
    assert not isinstance(proj_then, EppFailure)
    # ip took the branch; c and s keep a superset of the new projection.
    assert more_branches(epp_c(program.defs, processes, chor2).get("c"), proj_then.get("c"))
    assert more_branches(epp_c(program.defs, processes, chor2).get("s"), proj_then.get("s"))


# --------------------------------------------------------------------------
# Merge

def test_merge_combines_offers():
    left = Branch("p", ("a", Send("q", Lit(1), "", B_END)), None)
    right = Branch("p", None, ("b", B_END))
    merged = merge(left, right)
    assert merged.ok
    assert merged.behaviour == Branch("p", ("a", Send("q", Lit(1), "", B_END)), ("b", B_END))


def test_merge_end_and_mismatches():
    assert merge(B_END, B_END).unwrap() == B_END
    r1 = merge(Recv("p", "x", "", B_END), Recv("q", "x", "", B_END))
    assert not r1.ok
    r2 = merge(Recv("p", "x", "", B_END), Send("p", Lit(1), "", B_END))
    assert not r2.ok
    r3 = merge(Branch("p", ("a", B_END), None), Branch("p", ("b", B_END), None))
    assert not r3.ok and r3.failure.path == ("left",)
    r4 = merge(BCond(BTRUE, B_END, B_END),
               BCond(BFALSE, B_END, B_END))
    assert not r4.ok
    r5 = merge(BCall(("X", "p")), BCall(("Y", "p")))
    assert not r5.ok


def test_merge_diag_path_descends_continuations():
    left = Send("q", Lit(1), "", Recv("p", "x", "", B_END))
    right = Send("q", Lit(1), "", Recv("r", "x", "", B_END))
    result = merge(left, right)
    assert not result.ok
    assert result.failure.path == ("cont",)


@pytest.mark.parametrize("first, second, reason, path", [
    (Send("q", Lit(1), "", B_END), Send("q", Lit(2), "", B_END), "send prefixes differ", ()),
    (Send("q", Lit(1), "a", B_END), Send("q", Lit(1), "b", B_END), "send prefixes differ", ()),
    (Recv("q", "x", "", B_END), Recv("q", "y", "", B_END), "receive prefixes differ", ()),
    (Choose("q", LEFT, "", B_END), Choose("r", LEFT, "", B_END), "selection prefixes differ", ()),
    (Choose("q", LEFT, "", Choose("r", LEFT, "", B_END)),
     Choose("q", LEFT, "", Choose("r", RIGHT, "", B_END)), "selection prefixes differ", ("cont",)),
    (Recv("p", "x", "", B_END), Send("p", Lit(1), "", B_END), "Recv cannot merge with Send", ()),
])
def test_merge_prefix_diagnostics(first, second, reason, path):
    failure = merge(first, second).failure
    assert (failure.reason, failure.path) == (reason, path)
    assert not more_branches(first, second) and not more_branches(second, first)
    assert merge(first, first).unwrap() == first and more_branches(first, first)


_CALL_X, _CALL_Y = BCall(("X", "p")), BCall(("Y", "p"))
_GUARDED, _UNGUARDED = BCond(BTRUE, B_END, B_END), BCond(BFALSE, B_END, B_END)


def _prefixed(behaviour):
    return Send("q", Lit(1), "", Recv("q", "x", "", behaviour))


@pytest.mark.parametrize("first, second, reason, path", [
    (Branch("p", ("", B_END), None), Branch("q", ("", B_END), None),
     "branching sources differ", ()),
    (Branch("p", ("a", B_END), None), Branch("p", ("b", B_END), None),
     "offer annotations differ", ("left",)),
    (Branch("p", ("", B_END), ("a", B_END)), Branch("p", ("", B_END), ("b", B_END)),
     "offer annotations differ", ("right",)),
    (_GUARDED, _UNGUARDED, "conditional guards differ", ()),
    (BCond(BTRUE, B_END, _CALL_X), BCond(BTRUE, B_END, _CALL_Y),
     "procedure copies differ", ("else",)),
    (_CALL_X, _CALL_Y, "procedure copies differ", ()),
    (_prefixed(_CALL_X), _prefixed(_CALL_Y), "procedure copies differ", ("cont", "cont")),
    (Branch("p", None, ("", _prefixed(_GUARDED))),
     Branch("p", ("", B_END), ("", _prefixed(_UNGUARDED))),
     "conditional guards differ", ("right", "cont", "cont")),
])
def test_merge_node_diagnostics(first, second, reason, path):
    failure = merge(first, second).failure
    assert (failure.reason, failure.path) == (reason, path)
    assert merge(second, first).failure == failure
    assert merge(first, first).unwrap() == first


# --------------------------------------------------------------------------
# Per-process projection

def test_bproj_end():
    assert bproj(DefSet(), END, "p").unwrap() == B_END


def test_golden_projection_matches_expected_network():
    projected = epp(auth_program())
    assert not isinstance(projected, EppFailure)
    assert projected.network == auth_expected_network()
    assert projected.defs == DefSetB()


def test_bproj_selection_receiver_gets_single_offer():
    # The receiver of a selection offers exactly the selected side.
    chor = Cond("p", BTRUE,
                seq(SelEta("p", "q", LEFT), ComEta("q", Var("e"), "p", "z"), END),
                seq(SelEta("p", "q", RIGHT), END))
    projected = bproj(DefSet(), chor, "q").unwrap()
    assert projected == Branch("p", ("", Send("p", Var("e"), "", B_END)), ("", B_END))


def test_unmended_conditional_unprojectable():
    program = unmended_program()
    assert not bproj(program.defs, program.main, "q").ok
    result = bproj(program.defs, program.main, "q")
    assert not result.ok
    assert result.failure.path == ()  # the conditional itself
    assert bproj(program.defs, program.main, "p").ok
    assert not projectable_p(program)


def test_file_transfer_projection_by_rule_table():
    program = file_transfer_program()
    defs = program.defs
    body = file_transfer_body()
    expected_c = Recv("s", "x", "", BCond(
        body.cont.guard,
        Choose("s", LEFT, "", B_END),
        Choose("s", RIGHT, "", BCall(("FileTransfer", "c")))))
    expected_s = Send("c", body.eta.expr, "", Branch(
        "c", ("", B_END), ("", BCall(("FileTransfer", "s")))))
    assert bproj(defs, body, "c").unwrap() == expected_c
    assert bproj(defs, body, "s").unwrap() == expected_s

    projected = epp(program)
    assert not isinstance(projected, EppFailure)
    assert projected.defs.get(("FileTransfer", "c")) == expected_c
    assert projected.defs.get(("FileTransfer", "s")) == expected_s
    assert projected.network.get("c") == BCall(("FileTransfer", "c"))
    assert projected.network.get("s") == BCall(("FileTransfer", "s"))


def test_epp_c_empty_process_set():
    assert epp_c(DefSet(), (), auth_program().main) == Network()


def test_epp_reports_first_failure():
    program = unmended_program()
    failure = epp(program)
    assert isinstance(failure, EppFailure)
    assert failure.scope == "main"
    assert failure.process == "q"
    assert failure.diagnostic.path == ()


# An ambiguous conditional for ``a``, the first process in sorted order, and
# the same ambiguity one merge further down: ``a`` decides the inner
# conditionals, whose else branches differ.
_AMBIGUOUS = Cond("p", BTRUE, seq(ComEta("a", Lit(1), "p", "y"), END), END)
_AMBIGUOUS_ELSE = Cond("p", BTRUE, Cond("a", BTRUE, END, END),
                       Cond("a", BTRUE, END, seq(ComEta("a", Lit(1), "r", "y"), END)))
_TO_A = ComEta("r", Lit(0), "a", "w")
_AMBIGUOUS_SEND = "conditional at p is ambiguous for a: Send cannot merge with BEnd"
_BODY = DefSet({"X": (("a", "p", "r"), seq(ComEta("p", Lit(0), "a", "z"), _AMBIGUOUS_ELSE))})

NESTED_FAILURES = {
    "cont": (CCProgram(DefSet(), seq(_TO_A, _AMBIGUOUS)), "main", _AMBIGUOUS_SEND, ("cont",)),
    "then": (CCProgram(DefSet(), Cond("r", BTRUE, seq(_TO_A, _AMBIGUOUS), seq(_TO_A, END))),
             "main", _AMBIGUOUS_SEND, ("then", "cont")),
    "else": (CCProgram(DefSet(), Cond("r", BTRUE, END, _AMBIGUOUS)),
             "main", _AMBIGUOUS_SEND, ("else",)),
    "procedure_body": (
        CCProgram(_BODY, Call("X")), "X",
        "conditional at p is ambiguous for a: BEnd cannot merge with Send", ("cont",)),
    "runtime_body": (CCProgram(_BODY, RTCall("X", ("r",), seq(_TO_A, _AMBIGUOUS))),
                     "main", _AMBIGUOUS_SEND, ("body", "cont")),
}


@pytest.mark.parametrize("case", sorted(NESTED_FAILURES))
def test_nested_projection_failures(case):
    program, scope, reason, path = NESTED_FAILURES[case]
    chor = program.main if scope == "main" else program.defs.body(scope)
    failure = bproj(program.defs, chor, "a").failure
    assert (failure.reason, failure.path) == (reason, path)
    assert str(epp(program)) == (
        f"cannot project {scope} for a: {reason} (at {'/'.join(path)})")


def test_merge_reports_differing_else_branches():
    first, second = (bproj(DefSet(), branch, "a").unwrap()
                     for branch in (_AMBIGUOUS_ELSE.then_branch, _AMBIGUOUS_ELSE.else_branch))
    failure = merge(first, second).failure
    assert (failure.reason, failure.path) == ("BEnd cannot merge with Send", ("else",))


def test_unwrap_names_the_diagnostic_of_a_failed_projection():
    failed = bproj(DefSet(), _AMBIGUOUS, "a")
    with pytest.raises(ValueError) as raised:
        failed.unwrap()
    assert str(raised.value) == f"projection failed: {_AMBIGUOUS_SEND} (at <root>)"
    assert bproj(DefSet(), _AMBIGUOUS, "q").unwrap() == B_END


def test_bproj_counts_calls_and_stores_nothing():
    # bench/layers.py reads the declared projection.bproj.hit_ratio and
    # .entries from bproj.cache_info(); without the wrapper they vanish from
    # the traced result, so it stays until the benchmark reads them elsewhere.
    from chorus import verification

    misses = bproj.cache_info().misses
    epp(auth_program())
    info = bproj.cache_info()
    assert (info.maxsize, info.currsize, info.hits) == (0, 0, 0)
    assert info.misses > misses
    assert [name for name in vars(verification)
            if "cache" in name and not name.startswith("__")] == []


def test_bproj_preserves_behaviour_wf():
    for seed in range(40):
        program = gen_program(seed)
        processes = sorted(ccp_pn(program))
        for p in processes:
            result = bproj(program.defs, program.main, p)
            assert result.ok
            assert behaviour_wf(p, result.behaviour)


# --------------------------------------------------------------------------
# Strong projectability

def test_str_proj_trivial_cases():
    assert str_proj(DefSet(), END, "r")
    assert str_proj(DefSet(), Call("X"), "r")


def test_str_proj_holds_for_initial_projectable_programs():
    assert str_proj_p(auth_program())
    assert str_proj_p(file_transfer_program())
    assert not str_proj_p(unmended_program())


def test_str_proj_preserved_by_transitions():
    program = file_transfer_program()
    chor, state = program.main, EMPTY_STATE
    for _ in range(6):
        enabled = cc_enabled(program.defs, chor, state)
        if not enabled:
            break
        _, chor, state = enabled[0]
        stepped = CCProgram(program.defs, chor)
        assert str_proj_p(stepped)


def _str_proj_programs():
    """Generated programs, the example and golden files, and the hand-written
    special, merge-heavy and nested-failure cases."""
    from pathlib import Path

    from test_chor_semantics import SPECIAL
    from test_verification import MERGE_HEAVY

    root = Path(__file__).resolve().parent
    yield from map(gen_program, range(200))
    for folder in (root.parent / "programs", root / "golden"):
        yield from (parse_cc(path.read_text()) for path in sorted(folder.glob("*.cc")))
    yield from SPECIAL.values()
    yield from map(parse_cc, MERGE_HEAVY.values())
    yield from (program for program, *_ in NESTED_FAILURES.values())


def test_str_proj_matches_the_definition_on_reachable_configurations():
    # Every configuration within 6 steps of each program's main.  Both verdicts
    # occur, with and without a runtime term.
    seen, verdicts = set(), set()
    for program in _str_proj_programs():
        defs = program.defs
        frontier = [program.main]
        for _ in range(7):
            following = []
            for chor in frontier:
                if (defs, chor) in seen:
                    continue
                seen.add((defs, chor))
                config = CCProgram(defs, chor)
                runtime_term = any(isinstance(node, RTCall) for node in walk(chor))
                processes = sorted(ccp_pn(config) | ccp_pn(program))
                expected = [str_proj_reference(defs, chor, r) for r in processes]
                assert [str_proj(defs, chor, r) for r in processes] == expected
                assert str_proj_p(config) == (program_wf(config) and projectable_d(defs) and all(
                    str_proj_reference(defs, chor, r) for r in sorted(ccp_pn(config))))
                verdicts.update((runtime_term, verdict) for verdict in expected)
                following += [succ for _, succ, _ in cc_enabled(defs, chor, EMPTY_STATE)]
            frontier = following
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def _nested_conditionals(depth):
    """``depth`` conditionals at p, each nested in the then branch of the
    last; each branch tells the 8 bystanders which one p took."""
    def tell(side):
        return "".join(f"p -> b{i}[{side}]; " for i in range(8))

    return parse_cc("main { " + ("if p.true then { " + tell("left")) * depth + "end"
                    + (" } else { " + tell("right") + "end }") * depth + " }")


def test_str_proj_p_projects_each_process_once():
    # One projection per process: 2d + 1 bproj calls on d nested conditionals.
    depth = 60
    program = _nested_conditionals(depth)
    processes = ccp_pn(program)
    misses = bproj.cache_info().misses
    assert str_proj_p(program)
    assert bproj.cache_info().misses - misses <= len(processes) * (2 * depth + 1)


def test_str_proj_p_decides_the_runtime_term_clause_once():
    # 8 pairs, then a joins X: 19 projections of main, 3 of X's body for
    # projectable_d, and the clause's 4 (X's definition and the runtime
    # term's body, for b and c), once rather than once per process.
    pairs = "".join(f"x{i}.1 -> y{i}.v; " for i in range(8))
    program = parse_cc("def X(a, b, c) { a.1 -> b.x; b.1 -> c.y; end } main { " + pairs
                       + "call X }")
    [chor] = [succ for label, succ, _ in cc_enabled(program.defs, program.main, EMPTY_STATE)
              if label == RCall("X", "a")]
    misses = bproj.cache_info().misses
    assert str_proj_p(CCProgram(program.defs, chor))
    assert bproj.cache_info().misses - misses == 19 + 3 + 4


def test_merge_preserves_behaviour_wf():
    rng = random.Random(21)
    checked = 0
    while checked < 300:
        top = gen_behaviour_wf(rng)
        first, second = _weaken(rng, top), _weaken(rng, top)
        merged = merge(first, second)
        assert merged.ok
        if behaviour_wf("me", first) and behaviour_wf("me", second):
            assert behaviour_wf("me", merged.behaviour)
            checked += 1


def gen_behaviour_wf(rng):
    from helpers import gen_behaviour

    return gen_behaviour(rng, rng.randint(1, 4), peers=("a", "b", "me"))


def _weaken(rng, behaviour):
    from helpers import weaken

    return weaken(rng, behaviour)
