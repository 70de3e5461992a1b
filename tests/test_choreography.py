import pytest

from chorus import (
    BTRUE, CCProgram, Call, ComEta, Cond, DefSet, EMPTY_STATE, END, Interaction,
    Lit, RTCall, SelEta, SelLabel, cc_enabled, ccc_pn, ccp_pn, chor_wf,
    consistent, gen_program, initial, no_empty_ann, no_self_comm, program_wf,
    program_wf_dec, well_ann,
)
from chorus.choreography import DEFAULT_PROCESS, End, _first, node_at, walk

from helpers import (
    auth_choreography, auth_program, file_transfer_body, file_transfer_program,
    seq, walk_reference, wf_oracle,
)


def rt(name, pending, body=END):
    return RTCall(name, pending, body)


def test_initial():
    assert initial(END)
    assert not initial(rt("X", ("p",)))
    assert initial(file_transfer_body())
    assert initial(auth_choreography())


def test_no_self_comm_and_no_empty_ann():
    self_com = Interaction(ComEta("p", Lit(1), "p", "x"), "", END)
    assert not no_self_comm(self_com)
    assert no_self_comm(END) and no_empty_ann(END)
    assert not no_empty_ann(rt("X", ()))
    assert no_empty_ann(rt("X", ("p",)))


def test_chor_wf():
    assert chor_wf(END)
    assert chor_wf(auth_choreography())
    assert not chor_wf(Interaction(SelEta("p", "p", SelLabel.LEFT), "", END))


def test_consistent():
    assert consistent(lambda name: frozenset(), END)
    assert not consistent(lambda name: frozenset({"p"}), rt("X", ("q",)))
    names = {"FileTransfer": frozenset({"c", "s"})}
    assert consistent(lambda n: names.get(n, frozenset()), rt("FileTransfer", ("s",), file_transfer_body()))


def test_ccc_pn():
    assert ccc_pn(END, lambda n: frozenset()) == frozenset()
    assert ccc_pn(auth_choreography(), lambda n: frozenset()) == {"c", "ip", "s"}
    names = {"X": frozenset({"c", "s"})}
    assert ccc_pn(Call("X"), lambda n: names[n]) == {"c", "s"}
    running = rt("X", ("p",), Interaction(ComEta("q", Lit(0), "r", "x"), "", END))
    assert ccc_pn(running, lambda n: frozenset()) == {"p", "q", "r"}


def test_ccp_pn():
    assert ccp_pn(auth_program()) == {"c", "ip", "s"}
    assert ccp_pn(file_transfer_program()) == {"c", "s"}


def test_rtcall_pending_is_canonical():
    node = RTCall("X", ("s", "c", "s"), END)
    assert node.pending == ("c", "s")
    assert RTCall("X", ("c", "s"), END) == node


def test_default_defs():
    defs = DefSet()
    assert defs.vars("anything") == (DEFAULT_PROCESS,)
    assert defs.body("anything") == END


def test_well_ann_and_program_wf():
    trivial = CCProgram(DefSet(), END)
    assert program_wf(trivial)
    assert well_ann(file_transfer_program(), "FileTransfer")
    assert program_wf(file_transfer_program())
    assert program_wf(auth_program())
    bad = CCProgram(DefSet(), RTCall("X", (), END))
    assert not program_wf(bad)


def test_program_wf_matches_oracle_on_examples():
    programs = [
        CCProgram(DefSet(), END),
        auth_program(),
        file_transfer_program(),
        CCProgram(DefSet(), Interaction(ComEta("p", Lit(1), "p", "x"), "", END)),
        CCProgram(DefSet(), RTCall("X", (), END)),
        CCProgram(DefSet({"X": (("p",), rt("X", ("p",)))}), END),
        CCProgram(DefSet({"X": (("p",), seq(ComEta("p", Lit(0), "q", "x"), END))}), END),
    ]
    for program in programs:
        assert program_wf(program) == wf_oracle(program)


def test_program_wf_dec_accepts_file_transfer():
    report = program_wf_dec(file_transfer_program())
    assert report.ok


def test_program_wf_dec_locates_self_comm():
    body = seq(ComEta("c", Lit(0), "s", "x"),
               Interaction(ComEta("s", Lit(1), "s", "y"), "", END))
    program = CCProgram(DefSet({"X": (("c", "s"), body)}), Call("X"))
    report = program_wf_dec(program)
    assert not report.ok
    assert report.clause == "no_self_comm"
    assert report.scope == "X"
    assert report.path == ("cont",)
    assert isinstance(node_at(body, report.path), Interaction)


def test_program_wf_dec_accepts_undefined_call():
    # An undefined procedure reads the default definition, which is well formed.
    assert program_wf_dec(CCProgram(DefSet(), Call("Y"))).ok


def test_program_wf_dec_reports_first_clause_in_main():
    from chorus import BTRUE

    main = Cond("p", BTRUE,
                RTCall("X", (), END),
                Interaction(ComEta("q", Lit(0), "q", "x"), "", END))
    report = program_wf_dec(CCProgram(DefSet(), main))
    assert not report.ok
    # Self-communication is checked before empty pending lists.
    assert report.clause == "no_self_comm"
    assert report.path == ("else",)


def _com(cont):
    return Interaction(ComEta("p", Lit(0), "q", "x"), "", cont)


# Runtime terms and empty process lists, which the parser never builds: one
# program per clause that only the library reaches, with its report.
_LIBRARY_ONLY_FAILURES = {
    "no_empty_ann": (CCProgram(DefSet({"X": (("p",), END)}), _com(rt("X", ()))),
                     "main", ("cont",), "runtime term with no pending processes"),
    "consistent": (CCProgram(DefSet({"X": (("q",), END)}),
                             Cond("p", BTRUE, END, rt("X", ("q", "r")))),
                   "main", ("else",), "pending processes escape procedure X"),
    "initial": (CCProgram(DefSet({"X": (("p", "q"), _com(rt("X", ("p",))))}), Call("X")),
                "X", ("cont",), "runtime term in a procedure body"),
    "well_ann": (CCProgram(DefSet({"X": ((), END)}), Call("X")), "X", (), "empty process list"),
}


@pytest.mark.parametrize("clause", sorted(_LIBRARY_ONLY_FAILURES))
def test_program_wf_dec_locates_library_only_failures(clause):
    program, scope, path, detail = _LIBRARY_ONLY_FAILURES[clause]
    report = program_wf_dec(program)
    assert (report.ok, report.clause, report.scope, report.path, report.detail) == (
        False, clause, scope, path, detail)
    assert program_wf(program) is False and wf_oracle(program) is False
    if path:
        root = program.main if scope == "main" else program.defs.body(scope)
        assert isinstance(node_at(root, path), RTCall)


def _self_com(process, cont=END):
    return Interaction(ComEta(process, Lit(0), process, "x"), "", cont)


# Scopes that break several clauses, or one clause twice: the report names
# the first clause in clause order, at its first node in pre-order.
_CLAUSE_ORDER = {
    "escaping_before_empty_pending": (
        CCProgram(DefSet({"X": (("q",), END)}),
                  Cond("p", BTRUE, rt("X", ("q", "r")), rt("X", ()))),
        "no_empty_ann", "main", ("else",), "runtime term with no pending processes"),
    "runtime_term_before_self_comm_and_undeclared": (
        CCProgram(DefSet({"X": (("p",), Cond("p", BTRUE, rt("X", ("p",)), _self_com("q")))}),
                  Call("X")),
        "no_self_comm", "X", ("else",), "interaction with itself"),
    "runtime_term_and_undeclared": (
        CCProgram(DefSet({"X": (("p",), _com(rt("X", ("p",))))}), Call("X")),
        "initial", "X", ("cont",), "runtime term in a procedure body"),
    "self_comm_in_both_branches": (
        CCProgram(DefSet(), Cond("p", BTRUE, _self_com("q"), _self_com("r"))),
        "no_self_comm", "main", ("then",), "interaction with itself"),
    "self_comm_in_both_branches_of_a_procedure": (
        CCProgram(DefSet({"X": (("p", "q", "r"), Cond("p", BTRUE, _com(_self_com("q")),
                                                          _self_com("r")))}), Call("X")),
        "no_self_comm", "X", ("then", "cont"), "interaction with itself"),
}


@pytest.mark.parametrize("case", sorted(_CLAUSE_ORDER))
def test_program_wf_dec_reports_the_first_clause_broken(case):
    program, clause, scope, path, detail = _CLAUSE_ORDER[case]
    report = program_wf_dec(program)
    assert (report.ok, report.clause, report.scope, report.path, report.detail) == (
        False, clause, scope, path, detail)
    assert program_wf(program) is False and wf_oracle(program) is False


def test_wf_invariant_under_extra_end_procedures():
    program = file_transfer_program()
    extended = CCProgram(program.defs.with_def("Spare", ("c",), END), program.main)
    assert program_wf(program) == program_wf(extended)
    assert program_wf_dec(extended).ok


def _walk_corpus():
    """Choreographies with every node kind, runtime terms and shared nodes."""
    yield auth_choreography()
    yield file_transfer_body()
    shared = seq(ComEta("p", Lit(0), "q", "x"), END)
    yield Cond("p", BTRUE, shared, Cond("q", BTRUE, shared, shared))
    for seed in range(40):
        program = gen_program(seed)
        yield from (program.defs.body(name) for name in program.defs.support())
        chor, state = program.main, EMPTY_STATE
        for step in range(6):
            yield chor
            enabled = cc_enabled(program.defs, chor, state)
            if not enabled:
                break
            _, chor, state = enabled[(seed + step) % len(enabled)]


def test_walk_and_node_at_agree():
    """``walk`` order, ``node_at`` and ``_first`` paths match the recursive
    reference walk on every node."""
    kinds = set()
    for chor in _walk_corpus():
        reference = list(walk_reference(chor))
        assert [id(node) for node in walk(chor)] == [id(node) for _, node in reference]
        for path, node in reference:
            kinds.add(type(node))
            assert node_at(chor, path) is node
            first = next(p for p, n in reference if n is node)
            assert _first(chor, lambda n, node=node: n is node) == (first, node)
        assert _first(chor, lambda n: False) is None
    assert kinds == {Interaction, Cond, Call, RTCall, End}
    with pytest.raises(KeyError):
        node_at(auth_choreography(), ("then",))


def test_initial_implies_no_empty_ann_and_consistent():
    from chorus import gen_program

    for seed in range(40):
        program = gen_program(seed)
        chors = [program.main] + [program.defs.body(name)
                                  for name in program.defs.support()]
        for chor in chors:
            assert initial(chor)
            assert no_empty_ann(chor)
            assert consistent(lambda name: frozenset(), chor)
            assert consistent(program.defs.names, chor)
