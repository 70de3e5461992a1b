import random
from pathlib import Path

import pytest

from chorus import (
    BTRUE, CCConfiguration, CCProgram, Call, ComEta, Cond, DefSet, END, Eq, Lit,
    RCall, RCom, RCond, RSel, RTCall, SelEta, State, TCom, TSel, TTau, Var,
    cc_enabled, cc_step, ccc_pn, ccp_multistep, ccp_step, forget, gen_program,
    parse_cc, program_wf,
)
from chorus import chor_semantics
from chorus.chor_semantics import cc_moves
from chorus.choreography import DEFAULT_PROCESS
from chorus.values import EMPTY_STATE

from helpers import (
    LEFT, RIGHT, auth_program, auth_state, cc_enabled_unpruned,
    file_transfer_program, seq,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def test_forget():
    assert forget(RCond("ip")) == TTau("ip")
    assert forget(RCom("c", 5, "ip", "x")) == TCom("c", 5, "ip")
    assert forget(RCall("FileTransfer", "c")) == TTau("c")
    assert forget(RSel("ip", "s", LEFT)) == TSel("ip", "s", LEFT)


def test_cc_step_com():
    program = auth_program()
    st1 = auth_state(good=True)
    result = cc_step(program.defs, program.main, st1, RCom("c", 7, "ip", "x"))
    assert result is not None
    cont, st2 = result
    assert isinstance(cont, Cond)
    assert st2 == st1.update("ip", "x", 7)
    # A wrong value is not enabled.
    assert cc_step(program.defs, program.main, st1, RCom("c", 8, "ip", "x")) is None


def test_cc_step_call_joins():
    program = file_transfer_program()
    st = EMPTY_STATE
    joined = cc_step(program.defs, program.main, st, RCall("FileTransfer", "c"))
    assert joined is not None
    chor, st2 = joined
    assert chor == RTCall("FileTransfer", ("s",), program.defs.body("FileTransfer"))
    assert st2 == st


def test_cc_step_end_is_stuck():
    assert cc_step(DefSet(), END, EMPTY_STATE, RCond("p")) is None
    assert cc_enabled(DefSet(), END, EMPTY_STATE) == []


def test_enabled_file_transfer_joins():
    program = file_transfer_program()
    enabled = cc_enabled(program.defs, program.main, EMPTY_STATE)
    assert {label for label, _, _ in enabled} == {RCall("FileTransfer", "c"),
                                                  RCall("FileTransfer", "s")}
    # Both join orders converge on the expanded body.
    body = program.defs.body("FileTransfer")
    for label, chor, state in enabled:
        other = RCall("FileTransfer", "s" if label.proc == "c" else "c")
        final = cc_step(program.defs, chor, state, other)
        assert final == (body, EMPTY_STATE)


def test_enabled_head_and_delayed_communication():
    chor = seq(ComEta("o1", Lit(1), "s1", "x"), ComEta("o2", Lit(2), "s2", "y"), END)
    enabled = cc_enabled(DefSet(), chor, EMPTY_STATE)
    assert [label for label, _, _ in enabled] == [RCom("o1", 1, "s1", "x"),
                                                  RCom("o2", 2, "s2", "y")]


def test_delay_blocked_by_shared_process():
    chor = seq(ComEta("o1", Lit(1), "s1", "x"), ComEta("o1", Lit(2), "s2", "y"), END)
    enabled = cc_enabled(DefSet(), chor, EMPTY_STATE)
    assert len(enabled) == 1


def test_delay_under_conditional_needs_both_branches():
    inner = seq(ComEta("q", Lit(1), "r", "x"), END)
    both = Cond("p", BTRUE, inner, inner)
    enabled = cc_enabled(DefSet(), both, EMPTY_STATE)
    labels = [label for label, _, _ in enabled]
    assert RCond("p") in labels
    assert RCom("q", 1, "r", "x") in labels
    # If only one branch can take the step, the delay is not enabled.
    lop_sided = Cond("p", BTRUE, inner, END)
    labels2 = [label for label, _, _ in cc_enabled(DefSet(), lop_sided, EMPTY_STATE)]
    assert labels2 == [RCond("p")]


def test_ccp_multistep_empty_is_identity():
    conf = CCConfiguration(auth_program(), auth_state(True))
    assert ccp_multistep(conf, []) == [conf]


def _auth_trace(good: bool):
    st1 = auth_state(good)
    v1 = 7 if good else 5
    if good:
        labels = [TCom("c", v1, "ip"), TTau("ip"), TSel("ip", "s", LEFT),
                  TSel("ip", "c", LEFT), TCom("s", 99, "c")]
    else:
        labels = [TCom("c", v1, "ip"), TTau("ip"), TSel("ip", "s", RIGHT),
                  TSel("ip", "c", RIGHT)]
    return st1, labels


def test_auth_happy_path_trace():
    st1, labels = _auth_trace(good=True)
    conf = CCConfiguration(auth_program(), st1)
    final = ccp_multistep(conf, labels)
    st2 = st1.update("ip", "x", 7)
    st3 = st2.update("c", "t", 99)
    assert final == [CCConfiguration(CCProgram(auth_program().defs, END), st3)]


def test_auth_failure_trace():
    st1, labels = _auth_trace(good=False)
    conf = CCConfiguration(auth_program(), st1)
    final = ccp_multistep(conf, labels)
    st2 = st1.update("ip", "x", 5)
    assert final == [CCConfiguration(CCProgram(auth_program().defs, END), st2)]


def test_ccp_step_matches_forgetting():
    program = file_transfer_program()
    conf = CCConfiguration(program, EMPTY_STATE)
    succ = ccp_step(conf, TTau("c"))
    assert len(succ) == 1
    assert succ[0].program.main == RTCall("FileTransfer", ("s",),
                                          program.defs.body("FileTransfer"))


def _random_walk(program, state, steps, seed):
    rng = random.Random(seed)
    chor = program.main
    seen = [(chor, state)]
    for _ in range(steps):
        enabled = cc_enabled(program.defs, chor, state)
        if not enabled:
            break
        _, chor, state = rng.choice(enabled)
        seen.append((chor, state))
    return seen


def test_pn_monotone_and_wf_preserved_along_runs():
    for program, state in ((auth_program(), auth_state(True)),
                           (file_transfer_program(), EMPTY_STATE)):
        names = program.defs.names
        for seed in range(5):
            walk = _random_walk(program, state, 12, seed)
            pns = [ccc_pn(chor, names) for chor, _ in walk]
            for before, after in zip(pns, pns[1:]):
                assert after <= before
            for chor, _ in walk:
                assert program_wf(CCProgram(program.defs, chor))


def test_enabled_agrees_with_step_everywhere():
    for program, state in ((auth_program(), auth_state(False)),
                           (file_transfer_program(), EMPTY_STATE)):
        for seed in range(4):
            for chor, st in _random_walk(program, state, 10, seed):
                for label, succ_chor, succ_state in cc_enabled(program.defs, chor, st):
                    assert cc_step(program.defs, chor, st, label) == (succ_chor, succ_state)


# --------------------------------------------------------------------------
# The pruned enumerator against the unpruned reference

def _bfs_compare(program, state, depth=8):
    """Compare ``cc_enabled`` with the reference at every configuration a
    breadth-first search reaches within ``depth`` steps; return how many.
    Each move, called in any order and any number of times, builds the
    transition ``cc_enabled`` lists at its place, which ``cc_step`` takes."""
    defs = program.defs
    frontier = [(program.main, state)]
    seen = set(frontier)
    for level in range(depth + 1):
        following = []
        for chor, st in frontier:
            enabled = cc_enabled(defs, chor, st)
            assert enabled == cc_enabled_unpruned(defs, chor, st)
            built = [(move(), move()) for move in reversed(list(cc_moves(defs, chor, st)))]
            assert all(first == second for first, second in built)
            assert [first for first, _ in reversed(built)] == enabled
            for label, succ, succ_state in enabled:
                assert cc_step(defs, chor, st, label) == (succ, succ_state)
                if level < depth and (succ, succ_state) not in seen:
                    seen.add((succ, succ_state))
                    following.append((succ, succ_state))
        frontier = following
    return len(seen)


def _com(sender, receiver, value=1, var="x"):
    return ComEta(sender, Lit(value), receiver, var)


_PIPE = seq(_com("a", "b"), _com("b", "c", var="y"), _com("c", "a", var="z"), END)

# Hand-written programs for the cases the pruning must get right.
SPECIAL = {
    # A call to an undefined procedure joins at DEFAULT_PROCESS; the first
    # program lets it run ahead, the second blocks it.
    "undefined_call": CCProgram(DefSet(), seq(_com("a", "b"), Call("Missing"))),
    "undefined_call_blocked": CCProgram(
        DefSet(), seq(_com(DEFAULT_PROCESS, "b"), _com("c", "d"), Call("Missing"))),
    # A defined procedure over DEFAULT_PROCESS whose processes are all blocked
    # when the walk reaches the call: it enters the call and finds no join.
    "defined_call_blocked": CCProgram(
        DefSet({"Z": ((DEFAULT_PROCESS, "b"), seq(_com("b", DEFAULT_PROCESS), END))}),
        seq(_com(DEFAULT_PROCESS, "b"), _com("c", "d"), Call("Z"))),
    # Steps inside a runtime term run ahead of its pending processes, and
    # the interactions before the call run ahead of the joins.
    "runtime_term": CCProgram(DefSet({"X": (("a", "b", "c"), _PIPE)}),
                              seq(_com("d", "e"), _com("a", "d"), Call("X"))),
    "runtime_term_direct": CCProgram(DefSet({"X": (("a", "b", "c"), _PIPE)}),
                                     RTCall("X", ("c",), seq(_com("e", "f"), _PIPE))),
    # Delayed steps under a conditional: the branches agree on q -> r but
    # disagree on the value s sends, and on what t does.
    "cond_branches": CCProgram(DefSet(), Cond(
        "p", Eq(Var("g"), Lit(0)),
        seq(_com("q", "r"), _com("s", "u", 1), _com("t", "v"), END),
        seq(_com("q", "r"), _com("s", "u", 2), _com("v", "t"), END))),
    "nested_conds": CCProgram(DefSet(), seq(_com("a", "b"), Cond(
        "c", BTRUE,
        Cond("d", BTRUE, seq(_com("e", "f"), END), seq(_com("e", "f"), END)),
        Cond("d", BTRUE, seq(_com("e", "f"), END), seq(SelEta("e", "f", LEFT), END))))),
    # Not well-formed: the procedure body uses processes it does not declare.
    "undeclared_processes": CCProgram(
        DefSet({"Y": (("a", "c"), seq(_com("a", "b"), _com("c", "d"), _com("b", "d"), END))}),
        seq(_com("d", "e"), Call("Y"))),
}


def _cc_files():
    for path in sorted(PROGRAMS.glob("*.cc")):
        program = parse_cc(path.read_text())
        for state in (EMPTY_STATE, State({("s", "file"): 1, ("c", "creds"): 7,
                                          ("ip", "secret"): 7})):
            yield program, state


def test_pruned_enabled_matches_reference_on_example_files():
    configs = [_bfs_compare(program, state) for program, state in _cc_files()]
    assert len(configs) == 4 and min(configs) > 5


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_pruned_enabled_matches_reference_on_special_cases(name):
    for state in (EMPTY_STATE, State({("p", "g"): 1})):
        assert _bfs_compare(SPECIAL[name], state) > 2


def test_pruned_enabled_matches_reference_on_generated_programs():
    for seed in range(200):
        _bfs_compare(gen_program(seed), EMPTY_STATE)


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_special_cases_are_deterministic_and_commute(name):
    # cond_branches and nested_conds run cc_step through the delay rule for
    # conditionals, which only these checks call on a delayed step.
    from chorus.verification import check_property

    for state in (EMPTY_STATE, State({("p", "g"): 1})):
        reports = [check_property(prop, SPECIAL[name], state, 8)[0]
                   for prop in ("determinism", "diamond")]
        assert [report.passed for report in reports] == [True, True]


def test_special_cases_reach_the_pruned_rules():
    assert not program_wf(SPECIAL["undeclared_processes"])
    defs, main = SPECIAL["undefined_call"].defs, SPECIAL["undefined_call"].main
    assert [label for label, _, _ in cc_enabled(defs, main, EMPTY_STATE)] == [
        RCom("a", 1, "b", "x"), RCall("Missing", DEFAULT_PROCESS)]
    program = SPECIAL["undefined_call_blocked"]
    assert [label for label, _, _ in cc_enabled(program.defs, program.main, EMPTY_STATE)] == [
        RCom(DEFAULT_PROCESS, 1, "b", "x"), RCom("c", 1, "d", "x")]
    program = SPECIAL["defined_call_blocked"]
    assert [label for label, _, _ in cc_enabled(program.defs, program.main, EMPTY_STATE)] == [
        RCom(DEFAULT_PROCESS, 1, "b", "x"), RCom("c", 1, "d", "x")]
    program = SPECIAL["runtime_term_direct"]
    assert [label for label, _, _ in cc_enabled(program.defs, program.main, EMPTY_STATE)] == [
        RCall("X", "c"), RCom("e", 1, "f", "x"), RCom("a", 1, "b", "x")]
    program = SPECIAL["cond_branches"]
    assert [label for label, _, _ in cc_enabled(program.defs, program.main, EMPTY_STATE)] == [
        RCond("p"), RCom("q", 1, "r", "x")]


def _straight(n):
    """n interactions cycling over four processes, as in the benchmark."""
    cycle = (("a", "b"), ("c", "d"), ("b", "c"), ("d", "a"))
    return seq(*(_com(*cycle[i % 4], value=i) for i in range(n)), END)


class _CountingBits(dict):
    """A copy of the process bit table that records every lookup."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = []

    def __getitem__(self, process):
        self.lookups.append(process)
        return super().__getitem__(process)


def test_enabled_enters_a_bounded_number_of_nodes(monkeypatch):
    for n in (20, 2000):
        chor = _straight(n)
        table = _CountingBits(chor_semantics.PROCESS_BIT)
        monkeypatch.setattr(chor_semantics, "PROCESS_BIT", table)
        enabled = cc_enabled(DefSet(), chor, EMPTY_STATE)
        assert [label for label, _, _ in enabled] == [RCom("a", 0, "b", "x"),
                                                      RCom("c", 1, "d", "x")]
        # Each interaction entered looks up its two processes.  The first two
        # block all four processes, so nothing below them is entered.
        assert table.lookups == ["a", "b", "c", "d"]


def test_enabled_walks_long_runs_without_recursion():
    n = 5000
    chor = seq(*(_com("a", "b", value=i) for i in range(n)), _com("c", "d"), END)
    enabled = cc_enabled(DefSet(), chor, EMPTY_STATE)
    assert [label for label, _, _ in enabled] == [RCom("a", 0, "b", "x"),
                                                  RCom("c", 1, "d", "x")]


def test_step_delays_past_long_runs_without_recursion():
    n = 3000
    chor = seq(*(_com("a", "b", value=0) for _ in range(n)), _com("c", "d", var="y"), END)
    succ, state = cc_step(DefSet(), chor, EMPTY_STATE, RCom("c", 1, "d", "y"))
    assert state == EMPTY_STATE.put(("d", "y"), 1)
    assert succ == seq(*(_com("a", "b", value=0) for _ in range(n)), END)


def test_cc_step_joins_exactly_where_cc_enabled_lists_the_join():
    # The sound game reads a None from cc_step as a step the choreography
    # cannot match, also for a join label of a procedure or process the
    # Call or runtime term in front of it does not name.
    program = file_transfer_program()
    names = [*program.defs.support(), "Other"]
    processes = sorted(ccc_pn(program.main, program.defs.names) | {"nobody"})
    tried = 0
    for seed in range(4):
        for chor, state in _random_walk(program, EMPTY_STATE, 10, seed):
            enabled = {label: (succ, succ_state)
                       for label, succ, succ_state in cc_enabled(program.defs, chor, state)}
            for label in (RCall(name, process) for name in names for process in processes):
                assert cc_step(program.defs, chor, state, label) == enabled.get(label)
                tried += label not in enabled
    assert tried
