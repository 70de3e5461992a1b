import json

import pytest

from chorus import (
    B_END, Branch, CCConfiguration, CCProgram, DefSet, END, EppFailure,
    GenParams, Network, NotStronglyProjectable, SPConfiguration, SPProgram,
    TTau, ccp_multistep, ccp_pn, epp, gen_program, initial,
    print_cc, program_wf, projectable_p, spp_multistep, str_proj_p,
)
from chorus.values import EMPTY_STATE, SelLabel
from chorus.labels import TCom, TSel
from chorus.verification import (
    check_determinism, check_diamond, check_epp_complete, check_epp_sound,
    check_progress, check_termination_unique,
)

from helpers import auth_program, auth_state, file_transfer_program, unmended_program


def _label_from_json(data):
    if data["kind"] == "com":
        return TCom(data["from"], _value(data["value"]), data["to"])
    if data["kind"] == "sel":
        return TSel(data["from"], data["to"], SelLabel(data["sel"]))
    return TTau(data["at"])


def _value(data):
    return (_value(data[0]), _value(data[1])) if isinstance(data, list) else data


# --------------------------------------------------------------------------
# Generator

def test_gen_program_size_zero_is_end():
    program = gen_program(0, GenParams(max_actions=0))
    assert program.main == END


def test_gen_program_deterministic():
    for seed in range(20):
        first, second = gen_program(seed), gen_program(seed)
        assert first == second
        assert print_cc(first) == print_cc(second)


def test_gen_program_wf_and_projectable():
    for seed in range(60):
        program = gen_program(seed)
        names = program.defs.support()
        assert initial(program.main)
        assert program_wf(program)
        assert projectable_p(program, names)
        assert str_proj_p(program, names)


# --------------------------------------------------------------------------
# Meta-property checks on the worked examples

def test_meta_checks_pass_on_examples():
    cases = [(auth_program(), auth_state(True), ()),
             (auth_program(), auth_state(False), ()),
             (file_transfer_program(), EMPTY_STATE, ("FileTransfer",))]
    for program, state, names in cases:
        assert check_determinism(program, state, 10).passed
        assert check_diamond(program, state, 10).passed
        assert check_progress(program, state, 10).passed
        assert check_termination_unique(program, state, 10).passed
        assert check_epp_complete(program, state, 10, names).passed
        assert check_epp_sound(program, state, 10, names).passed


def test_end_program_trivially_passes():
    program = CCProgram(DefSet(), END)
    assert check_progress(program, EMPTY_STATE, 5).passed
    assert check_termination_unique(program, EMPTY_STATE, 5).passed


def test_file_transfer_game_covers_both_join_orders():
    report = check_epp_complete(file_transfer_program(), EMPTY_STATE, 6, ("FileTransfer",))
    assert report.passed
    assert report.nodes >= 6


def test_games_require_strong_projectability():
    with pytest.raises(NotStronglyProjectable):
        check_epp_complete(unmended_program(), EMPTY_STATE, 5)
    with pytest.raises(NotStronglyProjectable):
        check_epp_sound(unmended_program(), EMPTY_STATE, 5)


# --------------------------------------------------------------------------
# Negative controls: corrupted projections must fail with replayable traces

def _swap_branch_slot(network: Network, process: str) -> Network:
    behaviour = network.get(process)
    assert isinstance(behaviour, Branch)
    return network.put(process, Branch(behaviour.peer, behaviour.right, behaviour.left))


def _selection_first_program():
    from chorus import ComEta, Lit, SelEta
    from helpers import LEFT, seq

    chor = seq(SelEta("p", "q", LEFT), ComEta("q", Lit(1), "p", "y"), END)
    return CCProgram(DefSet(), chor)


def test_corrupted_projection_fails_completeness_at_selection():
    program = _selection_first_program()
    good = epp(program)
    corrupted = _swap_branch_slot(good.network, "q")
    report = check_epp_complete(program, EMPTY_STATE, 10, initial_network=corrupted)
    assert not report.passed
    failing = report.counterexample["failing"]
    assert failing["label"]["kind"] == "sel"

    # The counterexample replays: the prefix runs on both sides, and the
    # failing selection extends it on the choreography side but not on the
    # corrupted network.
    labels = [_label_from_json(step["label"]) for step in report.counterexample["trace"]]
    cc_conf = CCConfiguration(program, EMPTY_STATE)
    divergence = _label_from_json(failing["label"])
    assert ccp_multistep(cc_conf, labels + [divergence])
    sp_conf = SPConfiguration(SPProgram(good.defs, corrupted), EMPTY_STATE)
    assert spp_multistep(sp_conf, labels) != []
    assert spp_multistep(sp_conf, labels + [divergence]) == []


def test_corrupted_projection_in_auth_fails_before_divergence_is_observable():
    # Swapping a two-offer branch keeps both selections enabled, so the game
    # instead notices that the matched network fell below the projection of
    # the successor at the very first communication.
    program = auth_program()
    state = auth_state(True)
    good = epp(program)
    corrupted = _swap_branch_slot(good.network, "s")
    report = check_epp_complete(program, state, 10, initial_network=corrupted)
    assert not report.passed
    assert "below the projection" in report.detail
    assert report.counterexample["failing"]["label"]["kind"] == "com"


def test_corrupted_defs_fail_soundness_at_call():
    program = file_transfer_program()
    good = epp(program, ("FileTransfer",))
    broken_defs = good.defs.with_def(("FileTransfer", "c"), B_END)
    report = check_epp_sound(program, EMPTY_STATE, 6, ("FileTransfer",),
                             initial_defs=broken_defs)
    assert not report.passed
    # The game collapses right when c joins through its (corrupted) copy.
    assert report.counterexample["failing"]["rich"]["kind"] == "call"
    assert report.counterexample["failing"]["rich"]["at"] == "c"


def test_game_invariant_network_stays_above_projection():
    import random

    from chorus import RCall, cc_enabled, epp_c, more_branches_net, sp_step

    for seed in range(8):
        program = gen_program(seed)
        names = program.defs.support()
        projected = epp(program, names)
        assert not isinstance(projected, EppFailure)
        rng = random.Random(seed)
        chor, state, net = program.main, EMPTY_STATE, projected.network
        processes = ccp_pn(program)
        for _ in range(8):
            projection = epp_c(program.defs, processes, chor)
            assert not isinstance(projection, EppFailure)
            assert more_branches_net(net, projection)
            enabled = cc_enabled(program.defs, chor, state)
            if not enabled:
                break
            label, next_chor, next_state = rng.choice(enabled)
            sp_label = (RCall((label.name, label.proc), label.proc)
                        if isinstance(label, RCall) else label)
            stepped = sp_step(projected.defs, net, state, sp_label)
            assert stepped is not None and stepped[1] == next_state
            chor, state, net = next_chor, next_state, stepped[0]


def test_reports_serialise():
    report = check_determinism(auth_program(), auth_state(True), 10)
    data = json.loads(json.dumps(report.to_json()))
    assert data["verdict"] == "pass"
    assert data["property"] == "determinism"


# --------------------------------------------------------------------------
# The generated corpus drives every check (small sample; the acceptance
# suite runs the full 200-program corpus)

def test_generated_programs_pass_all_checks_smoke():
    for seed in range(12):
        program = gen_program(seed)
        names = program.defs.support()
        state = EMPTY_STATE
        assert check_determinism(program, state, 6).passed
        assert check_diamond(program, state, 6).passed
        assert check_progress(program, state, 6).passed
        assert check_termination_unique(program, state, 6).passed
        assert check_epp_complete(program, state, 6, names).passed
        assert check_epp_sound(program, state, 6, names).passed


def test_diamond_on_independent_communications():
    from chorus import ComEta, Lit
    from helpers import seq

    chor = seq(ComEta("o1", Lit(1), "s1", "x"), ComEta("o2", Lit(2), "s2", "y"), END)
    program = CCProgram(DefSet(), chor)
    assert check_diamond(program, EMPTY_STATE, 4).passed
    assert check_determinism(program, EMPTY_STATE, 4).passed
