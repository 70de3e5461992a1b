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
        assert initial(program.main)
        assert program_wf(program)
        assert projectable_p(program)
        assert str_proj_p(program)


# --------------------------------------------------------------------------
# Meta-property checks on the worked examples

def test_meta_checks_pass_on_examples():
    cases = [(auth_program(), auth_state(True)),
             (auth_program(), auth_state(False)),
             (file_transfer_program(), EMPTY_STATE)]
    for program, state in cases:
        assert check_determinism(program, state, 10).passed
        assert check_diamond(program, state, 10).passed
        assert check_progress(program, state, 10).passed
        assert check_termination_unique(program, state, 10).passed
        assert check_epp_complete(program, state, 10).passed
        assert check_epp_sound(program, state, 10).passed


def test_end_program_trivially_passes():
    program = CCProgram(DefSet(), END)
    assert check_progress(program, EMPTY_STATE, 5).passed
    assert check_termination_unique(program, EMPTY_STATE, 5).passed


def test_file_transfer_game_covers_both_join_orders():
    report = check_epp_complete(file_transfer_program(), EMPTY_STATE, 6)
    assert report.passed
    assert report.nodes >= 6


def test_games_require_strong_projectability():
    with pytest.raises(NotStronglyProjectable):
        check_epp_complete(unmended_program(), EMPTY_STATE, 5)
    with pytest.raises(NotStronglyProjectable):
        check_epp_sound(unmended_program(), EMPTY_STATE, 5)


def test_games_start_from_the_projection_that_decided_strong_projectability(monkeypatch):
    # At depth 0 the games only start, so every bproj call is the program's
    # own projection: main once per process, and each procedure body once
    # per process that uses it, however many games are played.
    from collections import Counter
    from pathlib import Path

    from chorus import parse_cc_file, projection
    from chorus.verification import check_property

    calls = Counter()
    bproj = projection.bproj
    monkeypatch.setattr(projection, "bproj", lambda defs, chor, process: calls.update(
        [(chor, process)]) or bproj(defs, chor, process))
    root = Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("programs/*.cc")) + sorted(root.glob("tests/golden/*.cc"))
    projectable = 0
    for path in paths:
        program = parse_cc_file(path.read_text(encoding="utf-8")).program
        defs = program.defs
        expected = Counter([(program.main, process) for process in ccp_pn(program)]
                           + [(defs.body(name), process) for name in defs.support()
                              for process in defs.vars(name)])
        for name in ("all", "complete", "sound"):
            calls.clear()
            try:
                check_property(name, program, EMPTY_STATE, 0)
            except NotStronglyProjectable:  # projection stopped at the first failure
                assert calls <= expected, (path.name, name)
            else:
                assert calls == expected, (path.name, name)
                projectable += 1
    assert projectable >= 3 * 6  # both programs/ and four golden programs


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
    good = epp(program)
    broken_defs = good.defs.with_def(("FileTransfer", "c"), B_END)
    report = check_epp_sound(program, EMPTY_STATE, 6,
                             projected=SPProgram(broken_defs, good.network))
    assert not report.passed
    # The game collapses right when c joins through its (corrupted) copy.
    assert report.counterexample["failing"]["rich"]["kind"] == "call"
    assert report.counterexample["failing"]["rich"]["at"] == "c"


def test_game_invariant_network_stays_above_projection():
    import random

    from chorus import RCall, cc_enabled, epp_c, more_branches_net, sp_step

    for seed in range(8):
        program = gen_program(seed)
        projected = epp(program)
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
        state = EMPTY_STATE
        assert check_determinism(program, state, 6).passed
        assert check_diamond(program, state, 6).passed
        assert check_progress(program, state, 6).passed
        assert check_termination_unique(program, state, 6).passed
        assert check_epp_complete(program, state, 6).passed
        assert check_epp_sound(program, state, 6).passed


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


@pytest.mark.parametrize("case", sorted(META_FAILURES))
def test_text_verify_prints_the_reason_under_a_failed_verdict(tmp_path, monkeypatch, capsys,
                                                              case):
    from chorus.cli import main

    patch, name, _, nodes, counterexample = META_FAILURES[case]
    cc = tmp_path / "fork.cc"
    cc.write_text(print_cc(_fork_program()), encoding="utf-8")
    patch(monkeypatch)
    key = "termination" if name == "termination_unique" else name
    assert main(["verify", str(cc), "--property", key, "--depth", "4", "--format", "text"]) == 1
    assert capsys.readouterr().out == (
        f"{name}: fail ({nodes} configurations)\n  {counterexample['reason']}\n")


# Projection-game failure paths, patched the same way.  Each game fails on
# o2 -> s2, which the fork program enables after its first step.

def _to_s2(label):
    return getattr(label, "receiver", None) == "s2"


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


def _bystander_dropped(step):
    """``step``, also dropping s1's behaviour after each step to s2."""
    def patched(*args):
        stepped = step(*args)
        if stepped is None or not _to_s2(args[-1]):
            return stepped
        return stepped[0].put("s1", B_END), stepped[1]
    return patched


def _patch_bystander_complete(monkeypatch):
    from chorus.proc_semantics import sp_step

    monkeypatch.setattr("chorus.verification.sp_step", _bystander_dropped(sp_step))


def _patch_bystander_sound(monkeypatch):
    from chorus.proc_semantics import sp_enabled

    def enabled(defs, net, state):
        return [(label, succ.put("s1", B_END) if _to_s2(label) else succ, st)
                for label, succ, st in sp_enabled(defs, net, state)]
    monkeypatch.setattr("chorus.verification.sp_enabled", enabled)


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
    # A network step that also changes a third process is checked there too.
    "bystander_dropped_complete": (
        _patch_bystander_complete, "complete", check_epp_complete,
        "matched network dropped below the projection of the successor", _AT_S2),
    "bystander_dropped_sound": (
        _patch_bystander_sound, "sound", check_epp_sound,
        "matched network dropped below the projection of the successor", _AT_S2),
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
    """The four meta-checks scan one shared graph, and the completeness game
    reads its moves there: with ``all``, cc_enabled runs once per
    configuration in all."""
    from chorus.chor_semantics import cc_enabled
    from chorus.verification import check_property

    calls = []

    def counted(*args):
        calls.append(args)
        return cc_enabled(*args)

    monkeypatch.setattr("chorus.verification.cc_enabled", counted)
    cases = [(auth_program(), auth_state(True)), (file_transfer_program(), EMPTY_STATE)]
    cases += [(program, EMPTY_STATE) for program in map(gen_program, range(6))]
    for program, state in cases:
        calls.clear()
        reports = check_property("all", program, state, 8)
        assert all(report.passed for report in reports)
        [nodes] = {report.nodes for report in reports[2:]}
        assert len(calls) == nodes
        calls.clear()
        [report] = check_property("diamond", program, state, 8)
        assert report.nodes == nodes == len(calls)


# --------------------------------------------------------------------------
# With ``all``, determinism checks each enabled step with cc_step once; diamond
# and the sound game read the steps it checked from the graph.

def _pairs(count, rounds=1):
    from chorus import parse_cc

    return parse_cc("main { " + "".join(f"a{i}.{r} -> b{i}.x; " for r in range(rounds)
                                        for i in range(count)) + "end }")


def _count_steps(monkeypatch):
    """Each cc_step call's configuration, with the check running it."""
    from chorus import verification
    from chorus.chor_semantics import cc_step

    calls, running = [], [None]

    def counted(defs, chor, state, label):
        calls.append((running[0], chor, state))
        return cc_step(defs, chor, state, label)

    def tagged(key, check):
        def run(*args, **kwargs):
            running[0] = key
            return check(*args, **kwargs)
        return run

    monkeypatch.setattr(verification, "cc_step", counted)
    for key, check in list(verification._CHECKS.items()):
        monkeypatch.setitem(verification._CHECKS, key, tagged(key, check))
    return calls


def test_all_steps_each_edge_once_on_a_closed_graph(monkeypatch):
    # 4 disjoint pairs: 2^4 configurations and 4 * 2^3 edges, all below the bound.
    from chorus.verification import check_property

    calls = _count_steps(monkeypatch)
    reports = check_property("all", _pairs(4), EMPTY_STATE, 8)
    assert all(report.passed for report in reports)
    assert {report.nodes for report in reports} == {16}
    assert len(calls) == 32 and {check for check, _, _ in calls} == {"determinism"}


@pytest.mark.parametrize("program, depth", [
    (_pairs(4), 2), (_pairs(4, rounds=2), 3), (file_transfer_program(), 3),
    (gen_program(13), 4), (gen_program(54), 4),
], ids=["pairs", "pairs_twice", "file_transfer", "seed13", "seed54"])
def test_all_steps_again_only_at_the_bound(monkeypatch, program, depth):
    # Determinism steps every enabled label once, and the sound game reads
    # every step from the graph.  Diamond steps only from the successors of
    # nodes at the last two layers: once for each side of a pair whose
    # successor lies at the bound, where the graph holds no children.
    from itertools import combinations

    from chorus.verification import _explore, check_property

    graph = _explore(program, EMPTY_STATE, depth, link=True)
    late = {(chor, state) for node, enabled in graph if node.dist >= depth - 1
            for _, chor, state in enabled}
    at_bound = sum(node.dist == depth or node.children[label].dist == depth
                   for node, enabled in graph for pair in combinations(enabled, 2)
                   for label, _, _ in pair)
    calls = _count_steps(monkeypatch)
    assert all(report.passed for report in check_property("all", program, EMPTY_STATE, depth))
    assert {check for check, _, _ in calls} <= {"determinism", "diamond"}
    by_check = {"determinism": [], "diamond": []}
    for check, chor, state in calls:
        by_check[check].append((chor, state))
    assert len(by_check["determinism"]) == sum(len(enabled) for _, enabled in graph)
    assert len(by_check["diamond"]) == at_bound
    assert late.issuperset(by_check["diamond"])


@pytest.mark.parametrize("case", sorted(META_FAILURES) + sorted(GAME_FAILURES))
def test_all_reports_equal_each_check_alone_under_a_patch(monkeypatch, case):
    # Where a patched enumerator or step makes a check fail, the other
    # checks report what they report alone: where determinism fails, they
    # step with cc_step, and where a game fails, each game is played alone.
    from chorus.verification import _CHECKS, check_property

    patch = (META_FAILURES.get(case) or GAME_FAILURES[case])[0]
    program = _fork_program()
    patch(monkeypatch)
    alone = [check_property(key, program, EMPTY_STATE, 4)[0].to_json() for key in _CHECKS]
    assert [report.to_json() for report in check_property("all", program, EMPTY_STATE, 4)] == alone
    assert any(report["verdict"] == "fail" for report in alone)


def test_all_steps_as_each_check_alone_where_determinism_fails(monkeypatch):
    # Determinism fails part-way through the graph, where b0 and b1 have
    # both received: no check reads a step from the graph, so each calls
    # cc_step as often under ``all`` as it does alone.
    from chorus import parse_cc
    from chorus.chor_semantics import cc_enabled
    from chorus.verification import _CHECKS, check_property

    def repeated(defs, chor, state):
        enabled = cc_enabled(defs, chor, state)
        both = state.lookup("b0", "x") == state.lookup("b1", "x") == 1
        return enabled + enabled[:1] if both else enabled

    program = parse_cc("main { a0.1 -> b0.x; a1.1 -> b1.x; c.1 -> d.y; end }")
    monkeypatch.setattr("chorus.verification.cc_enabled", repeated)
    calls = _count_steps(monkeypatch)
    alone, steps_alone = [], {}
    for key in _CHECKS:
        calls.clear()
        alone.append(check_property(key, program, EMPTY_STATE, 4)[0].to_json())
        steps_alone[key] = len(calls)
    calls.clear()
    everything = check_property("all", program, EMPTY_STATE, 4)
    assert json.dumps([report.to_json() for report in everything]) == json.dumps(alone)
    assert alone[2]["verdict"] == "fail" and alone[2]["detail"] == "a rich label was enumerated twice"
    assert {key: sum(check == key for check, _, _ in calls) for key in _CHECKS} == steps_alone
    assert (steps_alone["diamond"], steps_alone["complete"], steps_alone["sound"]) == (14, 0, 12)


def _wider(label, net, succ):
    """``succ``, the network after ``label`` from ``net``, with d offered a
    second branch if the step is a -> b and e has not sent: a network above
    the projection that neither semantics gives."""
    offer = succ.get("d")
    if getattr(label, "sender", None) != "a" or net.get("e") == B_END or \
            not isinstance(offer, Branch):
        return succ
    return succ.put("d", Branch(offer.peer, offer.left, offer.left))


def _patch_wider_step(monkeypatch):
    from chorus.proc_semantics import sp_step

    def patched(defs, net, state, label):
        succ, succ_state = sp_step(defs, net, state, label)
        return _wider(label, net, succ), succ_state
    monkeypatch.setattr("chorus.verification.sp_step", patched)


def _patch_repeated_label(monkeypatch):
    # Lists a -> b twice, first to the wider network: the last of each label
    # agrees with the complete game.
    from chorus.proc_semantics import sp_enabled

    def patched(defs, net, state):
        enabled = sp_enabled(defs, net, state)
        return [(label, _wider(label, net, succ), st) for label, succ, st in enabled
                if _wider(label, net, succ) != succ] + enabled
    monkeypatch.setattr("chorus.verification.sp_enabled", patched)


@pytest.mark.parametrize("patch", [_patch_wider_step, _patch_repeated_label],
                         ids=["wider_step", "repeated_label"])
def test_all_replays_the_games_alone_where_they_disagree(monkeypatch, patch):
    # Neither game fails alone, but from the root one game reaches a network
    # the other does not, so the two report different nodes.
    from chorus import parse_cc
    from chorus.verification import _CHECKS, check_property

    program = parse_cc("main { a.0 -> b.x; e.1 -> f.y; c -> d[left]; end }")
    patch(monkeypatch)
    alone = [check_property(key, program, EMPTY_STATE, 8)[0].to_json() for key in _CHECKS]
    assert all(report["verdict"] == "pass" for report in alone)
    assert alone[0]["nodes"] != alone[1]["nodes"]
    everything = check_property("all", program, EMPTY_STATE, 8)
    assert json.dumps([report.to_json() for report in everything]) == json.dumps(alone)


def test_all_projects_each_product_configuration_once(monkeypatch):
    """Under ``all`` both games are played on one product graph: each of its
    configurations but the root is projected once in all, and both games
    report the graph's ``nodes``."""
    from pathlib import Path

    from chorus import parse_cc
    from chorus.verification import check_property

    checked = _count_projections(monkeypatch)
    programs = [gen_program(seed) for seed in range(50)]
    folder = Path(__file__).resolve().parent.parent / "programs"
    programs += [parse_cc(path.read_text()) for path in sorted(folder.glob("*.cc"))]
    for program in programs:
        checked.clear()
        complete, sound = check_property("all", program, EMPTY_STATE, 8)[:2]
        assert complete.passed and sound.passed
        assert complete.nodes == sound.nodes == len(checked) + 1


def _corpus():
    from pathlib import Path

    from chorus import parse_cc

    root = Path(__file__).resolve().parent
    yield from ((f"seed{seed}", gen_program(seed)) for seed in range(50))
    for folder in (root.parent / "programs", root / "golden"):
        yield from ((path.name, parse_cc(path.read_text())) for path in sorted(folder.glob("*.cc")))


def test_all_equals_the_six_checks_alone():
    # A check run alone explores its own graph and reads no step from it.
    from chorus.verification import _CHECKS, check_property

    for name, program in _corpus():
        if not str_proj_p(program):
            for key in ("all", "complete", "sound"):
                with pytest.raises(NotStronglyProjectable):
                    check_property(key, program, EMPTY_STATE, 8)
            continue
        alone = [check_property(key, program, EMPTY_STATE, 8)[0].to_json() for key in _CHECKS]
        everything = check_property("all", program, EMPTY_STATE, 8)
        assert json.dumps([report.to_json() for report in everything]) == json.dumps(alone), name


# --------------------------------------------------------------------------
# After a communication, a selection or a join the games project only the
# processes of its label again; the rest of the projection is the parent's.

MERGE_HEAVY = {
    # q -> r runs under p's conditional, and neither q nor r hears from p.
    "bystander_without_selection": """main { s.1 -> t.x; if p.x == 0 then {
        q.1 -> r.y; p.2 -> s.z; end } else { q.1 -> r.y; p.3 -> s.z; end } }""",
    # a -> b runs inside a runtime term while c has not joined.
    "runtime_term": """def X(a, b, c) { a.1 -> b.x; c.2 -> a.w; end }
        main { d.1 -> a.z; call X }""",
    # c's conditional step runs before a -> b; d's offers are merged for e.
    "delayed_conditional": """main { a.1 -> b.x; if c.true then {
        c -> d[left]; d.1 -> e.y; end } else { c -> d[right]; d.1 -> e.y; end } }""",
}


def _count_projections(monkeypatch):
    """The children the games project, each as ``[label, chor, net, in_full]``,
    where ``in_full`` says whether ``epp_c`` projected it."""
    from chorus import verification

    checked = []
    checked_projection, epp_c = verification._checked_projection, verification.epp_c

    def counted(defs, processes, parent, label, chor, net):
        checked.append([label, chor, net, False])
        return checked_projection(defs, processes, parent, label, chor, net)

    def counted_epp_c(defs, processes, chor):
        checked[-1][3] = True
        return epp_c(defs, processes, chor)

    monkeypatch.setattr(verification, "_checked_projection", counted)
    monkeypatch.setattr(verification, "epp_c", counted_epp_c)
    return checked


def _partial(checked):
    """How many children of each label type were projected only in part."""
    from collections import Counter

    return Counter(type(label) for label, _, _, in_full in checked if not in_full)


def _differential_games(monkeypatch):
    """``check_property("all")``, then each game alone, checking the
    projection of every game node and every game child against ``epp_c``;
    and the children projected, as ``_count_projections`` lists them."""
    from chorus import epp_c, verification
    from chorus.verification import GAMES, check_property

    checked, playing = _count_projections(monkeypatch), []
    checked_projection, bfs = verification._checked_projection, verification._bfs

    def differential(defs, processes, parent, label, chor, net):
        projection = checked_projection(defs, processes, parent, label, chor, net)
        assert projection == epp_c(defs, processes, chor)
        return projection

    def nodes_checked(root, expand, nodes, project=None):
        bfs(root, expand, nodes, project)
        if root.net is not None:  # a game, not the meta graph
            defs, processes = playing[-1].defs, ccp_pn(playing[-1])
            assert all(node.proj == epp_c(defs, processes, node.chor) for node in nodes)

    def run(program, depth):
        playing.append(program)
        return check_property("all", program, EMPTY_STATE, depth) + [
            check_property(game, program, EMPTY_STATE, depth)[0] for game in GAMES]

    monkeypatch.setattr(verification, "_checked_projection", differential)
    monkeypatch.setattr(verification, "_bfs", nodes_checked)
    return run, checked


def _differential_cases():
    """The programs of ``programs/``, then the strongly projectable ``SPECIAL`` ones."""
    from pathlib import Path

    from chorus import parse_cc
    from test_chor_semantics import SPECIAL

    for path in sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.cc")):
        program = parse_cc(path.read_text())
        for depth in (4, 10):
            yield program, depth
    for program in SPECIAL.values():
        if str_proj_p(program):
            yield program, 8


def test_games_project_only_the_participants_again(monkeypatch):
    # The merge-heavy programs run one by one below.
    from chorus import RCall, RCom, RSel

    run, checked = _differential_games(monkeypatch)
    for seed in range(200):
        program = gen_program(seed)
        assert all(report.passed for report in run(program, 8))
    assert _partial(checked)[RCall] > 0
    for program, depth in _differential_cases():
        assert all(report.passed for report in run(program, depth))
    partial = _partial(checked)
    assert partial[RCom] + partial[RSel] > 1000


@pytest.mark.parametrize("name", sorted(MERGE_HEAVY))
def test_merge_heavy_games_reuse_projections(monkeypatch, name):
    from chorus import RCall, RCom, RSel, parse_cc

    run, checked = _differential_games(monkeypatch)
    program = parse_cc(MERGE_HEAVY[name])
    assert str_proj_p(program)
    assert all(report.passed for report in run(program, 10))
    partial = _partial(checked)
    assert partial[RCom] + partial[RSel]
    if name == "runtime_term":
        assert partial[RCall]


def test_games_project_each_new_configuration_once(monkeypatch):
    """A game projects each child whose configuration is new, and only
    those: the root is checked, so every other node once.  Only a
    conditional's child is projected in full."""
    from chorus import RCall, RCond, parse_cc

    checked = _count_projections(monkeypatch)
    program = parse_cc("""def X(p, q, r) { p.x -> q.y; if q.y == 0 then {
        q -> p[left]; q -> r[left]; q.1 -> r.z; call X }
        else { q -> p[right]; q -> r[right]; end } } main { call X }""")
    for game in (check_epp_complete, check_epp_sound):
        checked.clear()
        report = game(program, EMPTY_STATE, 12)
        assert report.passed
        assert len(checked) == report.nodes - 1
        assert _partial(checked)[RCall]
        full = [label for label, _, _, in_full in checked if in_full]
        assert full and all(isinstance(label, RCond) for label in full)


def test_game_still_checks_a_return_to_an_unchecked_root(monkeypatch):
    """A root network passed in by the caller is never checked as a child;
    a child that returns to it is projected and checked again."""
    from chorus import parse_cc

    checked = _count_projections(monkeypatch)
    program = parse_cc("def X(p, q) { p.0 -> q.x; call X } main { call X }")
    network = epp(program).network
    report = check_epp_complete(program, EMPTY_STATE, 6)
    assert report.passed and report.nodes == 4
    assert len(checked) == 3 and [program.main, network] not in [
        entry[1:3] for entry in checked]
    checked.clear()
    report = check_epp_complete(program, EMPTY_STATE, 6, initial_network=network)
    assert report.passed and report.nodes == 4
    assert len(checked) == 4 and checked[-1][1:3] == [program.main, network]
