from pathlib import Path

from chorus import (
    B_END, BCall, DefSetB, EppFailure, Lit, Network, RCall, RCom, RCond,
    RSel, Recv, SPConfiguration, SPProgram, Send, TCom, TSel, TTau, epp,
    gen_program, parse_cc, sp_enabled, sp_step, spp_multistep, spp_step,
)
from chorus.proc_semantics import sp_moves
from chorus.processes import EMPTY_NETWORK
from chorus.values import EMPTY_STATE

from helpers import (
    LEFT, RIGHT, auth_expected_network, auth_state, deadlock_network,
    file_transfer_program,
)

NO_DEFS = DefSetB()
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def test_sp_step_communication():
    net = auth_expected_network()
    st1 = auth_state(good=True)
    stepped = sp_step(NO_DEFS, net, st1, RCom("c", 7, "ip", "x"))
    assert stepped is not None
    net2, st2 = stepped
    assert st2 == st1.update("ip", "x", 7)
    assert net2.get("c") == net.get("c").cont
    assert net2.get("s") == net.get("s")
    assert net2.get("ip") == net.get("ip").cont


def test_sp_step_selection_resolves_branch():
    net = auth_expected_network()
    st2 = auth_state(True).update("ip", "x", 7)
    after_cond = sp_step(NO_DEFS, net, st2, RCom("c", 7, "ip", "x"))[0]
    after_cond = sp_step(NO_DEFS, after_cond, st2, RCond("ip"))[0]
    stepped = sp_step(NO_DEFS, after_cond, st2, RSel("ip", "s", LEFT))
    assert stepped is not None
    net2, _ = stepped
    # s's branching term resolved to its left offer: send the token to c.
    assert net2.get("s") == Send("c", auth_expected_network().get("s").left[1].expr, "", B_END)


def test_deadlocked_network_has_no_transitions():
    assert sp_enabled(NO_DEFS, deadlock_network(), EMPTY_STATE) == []


def test_sp_enabled_empty_network():
    assert sp_enabled(NO_DEFS, EMPTY_NETWORK, EMPTY_STATE) == []


def test_sp_enabled_two_independent_pairs():
    net = Network({
        "o1": Send("s1", Lit(1), "", B_END),
        "o2": Send("s2", Lit(2), "", B_END),
        "s1": Recv("o1", "x", "", B_END),
        "s2": Recv("o2", "y", "", B_END),
    })
    labels = [label for label, _, _ in sp_enabled(NO_DEFS, net, EMPTY_STATE)]
    assert labels == [RCom("o1", 1, "s1", "x"), RCom("o2", 2, "s2", "y")]


def test_sp_enabled_auth_initial():
    net = auth_expected_network()
    labels = [label for label, _, _ in sp_enabled(NO_DEFS, net, auth_state(True))]
    assert labels == [RCom("c", 7, "ip", "x")]


def test_sp_call_uses_own_copy():
    program = epp(file_transfer_program())
    assert not isinstance(program, EppFailure)
    net, defs = program.network, program.defs
    assert net.get("c") == BCall(("FileTransfer", "c"))
    stepped = sp_step(defs, net, EMPTY_STATE, RCall(("FileTransfer", "c"), "c"))
    assert stepped is not None
    assert stepped[0].get("c") == defs.get(("FileTransfer", "c"))


def test_spp_multistep_traces_match_choreography_labels():
    program = SPProgram(NO_DEFS, auth_expected_network())
    st1 = auth_state(good=True)
    happy = [TCom("c", 7, "ip"), TTau("ip"), TSel("ip", "s", LEFT),
             TSel("ip", "c", LEFT), TCom("s", 99, "c")]
    final = spp_multistep(SPConfiguration(program, st1), happy)
    st3 = st1.update("ip", "x", 7).update("c", "t", 99)
    assert final == [SPConfiguration(SPProgram(NO_DEFS, EMPTY_NETWORK), st3)]

    st1_bad = auth_state(good=False)
    sad = [TCom("c", 5, "ip"), TTau("ip"), TSel("ip", "s", RIGHT), TSel("ip", "c", RIGHT)]
    final = spp_multistep(SPConfiguration(program, st1_bad), sad)
    st2 = st1_bad.update("ip", "x", 5)
    assert final == [SPConfiguration(SPProgram(NO_DEFS, EMPTY_NETWORK), st2)]


def test_spp_multistep_empty_is_identity():
    conf = SPConfiguration(SPProgram(NO_DEFS, auth_expected_network()), EMPTY_STATE)
    assert spp_multistep(conf, []) == [conf]


def test_spp_step_filters_by_observable_label():
    conf = SPConfiguration(SPProgram(NO_DEFS, auth_expected_network()), auth_state(True))
    assert spp_step(conf, TTau("ip")) == []
    assert len(spp_step(conf, TCom("c", 7, "ip"))) == 1


def test_sp_step_depends_on_defs_extensionally():
    # Two differently-built but extensionally equal definition maps give the
    # same transitions (pruned End entries make equality structural).
    program = epp(file_transfer_program())
    same = DefSetB(dict(program.defs.items()) | {("Ghost", "p"): B_END})
    assert same == program.defs
    label = RCall(("FileTransfer", "c"), "c")
    assert (sp_step(program.defs, program.network, EMPTY_STATE, label)
            == sp_step(same, program.network, EMPTY_STATE, label))


def _bfs_moves(defs, network, state, depth=8):
    """At every network a breadth-first search reaches within ``depth``
    steps, each move, called in any order and any number of times, builds
    the transition ``sp_enabled`` lists at its place, which ``sp_step``
    takes; return how many networks were reached."""
    frontier = [(network, state)]
    seen = set(frontier)
    for level in range(depth + 1):
        following = []
        for net, st in frontier:
            enabled = sp_enabled(defs, net, st)
            built = [(move(), move()) for move in reversed(list(sp_moves(defs, net, st)))]
            assert all(first == second for first, second in built)
            assert [first for first, _ in reversed(built)] == enabled
            for label, succ, succ_state in enabled:
                assert sp_step(defs, net, st, label) == (succ, succ_state)
                if level < depth and (succ, succ_state) not in seen:
                    seen.add((succ, succ_state))
                    following.append((succ, succ_state))
        frontier = following
    return len(seen)


def test_moves_build_what_sp_enabled_lists():
    assert _bfs_moves(NO_DEFS, auth_expected_network(), auth_state(True)) > 5
    assert _bfs_moves(NO_DEFS, auth_expected_network(), auth_state(False)) > 4
    assert _bfs_moves(NO_DEFS, deadlock_network(), EMPTY_STATE) == 1
    programs = [file_transfer_program(), *map(parse_cc, map(Path.read_text,
                                                           sorted(PROGRAMS.glob("*.cc"))))]
    programs += [gen_program(seed) for seed in range(100)]
    for program in programs:
        projected = epp(program)
        if not isinstance(projected, EppFailure):
            _bfs_moves(projected.defs, projected.network, EMPTY_STATE)


def test_sp_step_takes_a_label_exactly_where_sp_enabled_lists_it():
    # The completeness game reads a None from sp_step as a step the network
    # cannot match; every label seen anywhere in a run is tried everywhere,
    # so each kind is also tried where it is not enabled.
    for path in sorted(PROGRAMS.glob("*.cc")):
        projected = epp(parse_cc(path.read_text(encoding="utf-8")))
        frontier, seen, labels = [(projected.network, EMPTY_STATE)], [], set()
        for _ in range(8):
            following = []
            for net, state in frontier:
                seen.append((net, state))
                for label, succ, succ_state in sp_enabled(projected.defs, net, state):
                    labels.add(label)
                    following.append((succ, succ_state))
            frontier = following
        assert {type(label) for label in labels} >= {RCom, RSel, RCond} and labels
        for net, state in seen:
            enabled = {label: (succ, succ_state)
                       for label, succ, succ_state in sp_enabled(projected.defs, net, state)}
            for label in labels:
                assert sp_step(projected.defs, net, state, label) == enabled.get(label)
