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


# --------------------------------------------------------------------------
# Meta-check failure paths: a patched enumerator or step function makes each
# meta-check fail, and the whole report is pinned.

def _step(sender, value, receiver, var):
    return {"rich": {"kind": "com", "from": sender, "to": receiver, "value": value,
                     "var": var},
            "label": {"kind": "com", "from": sender, "to": receiver, "value": value}}


def _fork_program():
    """o1 tells o2, then o1 -> s1 and o2 -> s2 may run in either order."""
    from chorus import ComEta, Lit
    from helpers import seq

    return CCProgram(DefSet(), seq(ComEta("o1", Lit(0), "o2", "z"),
                                   ComEta("o1", Lit(1), "s1", "x"),
                                   ComEta("o2", Lit(2), "s2", "y"), END))


def _where_forked(change):
    """cc_enabled, with ``change`` applied wherever two labels are enabled."""
    from chorus.chor_semantics import cc_enabled

    def patched(defs, chor, state):
        enabled = cc_enabled(defs, chor, state)
        return change(enabled) if len(enabled) >= 2 else enabled
    return patched


def _patch_duplicate(monkeypatch):
    monkeypatch.setattr("chorus.verification.cc_enabled",
                        _where_forked(lambda enabled: enabled + enabled[:1]))


def _patch_step_refuses_s2(monkeypatch):
    from chorus.chor_semantics import cc_step

    monkeypatch.setattr(
        "chorus.verification.cc_step",
        lambda defs, chor, state, label:
            None if label.receiver == "s2" else cc_step(defs, chor, state, label))


def _patch_same_successor(monkeypatch):
    collapsed = _where_forked(
        lambda enabled: [(label, enabled[0][1], state) for label, _, state in enabled])
    monkeypatch.setattr("chorus.verification.cc_enabled", collapsed)
    monkeypatch.setattr(
        "chorus.verification.cc_step",
        lambda defs, chor, state, label: next(
            ((c, s) for l, c, s in collapsed(defs, chor, state) if l == label), None))


def _patch_stuck(monkeypatch):
    monkeypatch.setattr("chorus.verification.cc_enabled", _where_forked(lambda enabled: []))


def _patch_two_ends(monkeypatch):
    monkeypatch.setattr(
        "chorus.verification.cc_enabled",
        _where_forked(lambda enabled: [(label, END, state) for label, _, state in enabled]))


_FIRST = [_step("o1", 0, "o2", "z")]

META_FAILURES = {
    "duplicated_label": (
        _patch_duplicate, "determinism", check_determinism, 5,
        {"trace": _FIRST, "reason": "a rich label was enumerated twice"}),
    "step_disagrees": (
        _patch_step_refuses_s2, "determinism", check_determinism, 5,
        {"trace": _FIRST, "reason": "enumeration and step disagree on com(o2,2,s2,y)"}),
    "same_successor": (
        _patch_same_successor, "determinism", check_determinism, 6,
        {"trace": _FIRST, "reason": "labels com(o1,1,s1,x) and com(o2,2,s2,y) "
                                    "reach the same choreography"}),
    "no_commute": (
        _patch_step_refuses_s2, "diamond", check_diamond, 5,
        {"trace": _FIRST, "reason": "com(o1,1,s1,x) and com(o2,2,s2,y) do not commute"}),
    "stuck": (
        _patch_stuck, "progress", check_progress, 2,
        {"trace": _FIRST, "reason": "well-formed configuration is stuck before End"}),
    "two_terminal_states": (
        _patch_two_ends, "termination_unique", check_termination_unique, 4,
        {"trace": _FIRST + [_step("o2", 2, "s2", "y")],
         "reason": "two terminated runs end in different states",
         "other_trace": _FIRST + [_step("o1", 1, "s1", "x")]}),
}


@pytest.mark.parametrize("case", sorted(META_FAILURES))
def test_meta_check_failure_reports(monkeypatch, case):
    from chorus.verification import check_property

    patch, name, check, nodes, counterexample = META_FAILURES[case]
    expected = {"property": name, "verdict": "fail", "nodes": nodes, "depth": 4,
                "counterexample": counterexample, "detail": counterexample["reason"]}
    program = _fork_program()
    patch(monkeypatch)
    assert check(program, EMPTY_STATE, 4).to_json() == expected
    key = "termination" if name == "termination_unique" else name
    [report] = check_property(key, program, EMPTY_STATE, 4)
    assert report.to_json() == expected


# Projection-game failure paths, patched the same way.  Each game fails on
# o2 -> s2, which the fork program enables after its first step.

def _to_s2(label):
    return label.receiver == "s2"


def _moved_s2(step):
    """``step``, changing the state at s2.y after each step to s2."""
    def patched(defs, term, state, label):
        stepped = step(defs, term, state, label)
        return (stepped[0], stepped[1].put(("s2", "y"), 9)) if _to_s2(label) else stepped
    return patched


def _patch_net_state(monkeypatch):
    from chorus.proc_semantics import sp_step

    monkeypatch.setattr("chorus.verification.sp_step", _moved_s2(sp_step))


def _patch_chor_state(monkeypatch):
    from chorus.chor_semantics import cc_step

    monkeypatch.setattr("chorus.verification.cc_step", _moved_s2(cc_step))


def _patch_foreign_call(monkeypatch):
    from chorus import RCall
    from chorus.proc_semantics import sp_enabled

    monkeypatch.setattr(
        "chorus.verification.sp_enabled",
        lambda defs, net, state: [(RCall("X", label.sender) if _to_s2(label) else label, succ, st)
                                  for label, succ, st in sp_enabled(defs, net, state)])


def _patch_unprojectable(monkeypatch):
    from chorus import BTRUE, ComEta, Cond, Lit
    from chorus.chor_semantics import cc_enabled
    from helpers import seq

    ambiguous = seq(ComEta("s1", Lit(0), "s2", "v"),
                    Cond("o1", BTRUE, seq(ComEta("o2", Lit(1), "o1", "y"), END), END))
    monkeypatch.setattr(
        "chorus.verification.cc_enabled",
        lambda defs, chor, state: [(label, ambiguous if _to_s2(label) else succ, st)
                                   for label, succ, st in cc_enabled(defs, chor, state)])


_AT_S2 = {"rich": {"kind": "com", "from": "o2", "to": "s2", "value": 2, "var": "y"},
          "label": {"kind": "com", "from": "o2", "to": "s2", "value": 2}}

GAME_FAILURES = {
    "complete_state_differs": (
        _patch_net_state, "complete", check_epp_complete,
        "matched step ends in a different state", _AT_S2),
    "sound_state_differs": (
        _patch_chor_state, "sound", check_epp_sound,
        "matched step ends in a different state", _AT_S2),
    "foreign_call": (
        _patch_foreign_call, "sound", check_epp_sound,
        "network call call(X,o2) is not the caller's own copy",
        {"rich": {"kind": "call", "proc": "X", "at": "o2"},
         "label": {"kind": "tau", "at": "o2"}}),
    "unmatched_network_step": (
        _patch_step_refuses_s2, "sound", check_epp_sound,
        "choreography cannot match network step com(o2,2,s2,y)", _AT_S2),
    "unprojectable_successor": (
        _patch_unprojectable, "complete", check_epp_complete,
        "successor is not projectable: cannot project main for o2: conditional at o1 "
        "is ambiguous for o2: Send cannot merge with BEnd (at cont)", _AT_S2),
}


@pytest.mark.parametrize("case", sorted(GAME_FAILURES))
def test_game_failure_reports(monkeypatch, case):
    from chorus.verification import check_property

    patch, name, check, reason, failing = GAME_FAILURES[case]
    expected = {"property": name, "verdict": "fail", "nodes": 2, "depth": 4,
                "counterexample": {"trace": _FIRST, "reason": reason, "failing": failing},
                "detail": reason}
    program = _fork_program()
    patch(monkeypatch)
    assert check(program, EMPTY_STATE, 4).to_json() == expected
    [report] = check_property(name, program, EMPTY_STATE, 4)
    assert report.to_json() == expected


def test_meta_checks_pass_on_fork_program():
    program = _fork_program()
    for check in (check_determinism, check_diamond, check_progress,
                  check_termination_unique):
        report = check(program, EMPTY_STATE, 4)
        assert report.passed and report.nodes == 5


def test_check_property_all_explores_one_graph(monkeypatch):
    """The four meta-checks scan one shared graph: with ``all`` they call
    cc_enabled once per configuration, on top of the completeness game."""
    from chorus.chor_semantics import cc_enabled
    from chorus.verification import check_property

    calls = []

    def counted(*args):
        calls.append(args)
        return cc_enabled(*args)

    monkeypatch.setattr("chorus.verification.cc_enabled", counted)
    cases = [(auth_program(), auth_state(True), ()),
             (file_transfer_program(), EMPTY_STATE, ("FileTransfer",))]
    cases += [(program, EMPTY_STATE, program.defs.support())
              for program in map(gen_program, range(6))]
    for program, state, names in cases:
        calls.clear()
        check_property("complete", program, state, 8, names)
        game_calls = len(calls)
        calls.clear()
        reports = check_property("all", program, state, 8, names)
        assert all(report.passed for report in reports)
        [nodes] = {report.nodes for report in reports[2:]}
        assert len(calls) - game_calls == nodes
        calls.clear()
        [report] = check_property("diamond", program, state, 8)
        assert report.nodes == nodes == len(calls)
