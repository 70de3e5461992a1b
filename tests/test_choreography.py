import pytest

from chorus import (
    CCProgram, Call, ComEta, Cond, DefSet, END, Interaction, Lit, RTCall,
    SelEta, SelLabel, UsedProceduresViolated, ccc_pn, ccp_pn, chor_wf,
    consistent, initial, no_empty_ann, no_self_comm, program_wf,
    program_wf_dec, used_procedures, well_ann,
)
from chorus.choreography import DEFAULT_PROCESS, node_at, walk

from helpers import (
    auth_choreography, auth_program, file_transfer_body, file_transfer_program,
    seq, wf_oracle,
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


def test_used_procedures():
    assert used_procedures(CCProgram(DefSet(), END), ())
    ft = file_transfer_program()
    assert used_procedures(ft, ("FileTransfer",))
    assert not used_procedures(ft, ())


def test_program_wf_dec_accepts_file_transfer():
    report = program_wf_dec(file_transfer_program(), ("FileTransfer",))
    assert report.ok


def test_program_wf_dec_locates_self_comm():
    body = seq(ComEta("c", Lit(0), "s", "x"),
               Interaction(ComEta("s", Lit(1), "s", "y"), "", END))
    program = CCProgram(DefSet({"X": (("c", "s"), body)}), Call("X"))
    report = program_wf_dec(program, ("X",))
    assert not report.ok
    assert report.clause == "no_self_comm"
    assert report.scope == "X"
    assert report.path == ("cont",)
    assert isinstance(node_at(body, report.path), Interaction)


def test_program_wf_dec_requires_used_procedures():
    program = CCProgram(DefSet(), Call("Y"))
    with pytest.raises(UsedProceduresViolated):
        program_wf_dec(program, ())


def test_program_wf_dec_reports_first_clause_in_main():
    from chorus import BTRUE

    main = Cond("p", BTRUE,
                RTCall("X", (), END),
                Interaction(ComEta("q", Lit(0), "q", "x"), "", END))
    report = program_wf_dec(CCProgram(DefSet(), main), ("X",))
    assert not report.ok
    # Self-communication is checked before empty pending lists.
    assert report.clause == "no_self_comm"
    assert report.path == ("else",)


def test_wf_invariant_under_extra_end_procedures():
    program = file_transfer_program()
    extended = CCProgram(program.defs.with_def("Spare", ("c",), END), program.main)
    assert program_wf(program) == program_wf(extended)
    assert program_wf_dec(extended, ("FileTransfer", "Spare")).ok


def test_walk_and_node_at_agree():
    chor = auth_choreography()
    for path, node in walk(chor):
        assert node_at(chor, path) == node


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
