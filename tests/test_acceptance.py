"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 4-6, 8 and 9 run over seeded random corpora; everything is
deterministic.
"""
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from chorus import (
    Branch, CCConfiguration, CCProgram, ComEta, DefSet, END, EppFailure,
    Interaction, Lit, Network, RCall, SPConfiguration, SPProgram, SelEta,
    State, TCom, TSel, TTau, cc_enabled, cc_step, ccp_multistep, epp,
    gen_program, merge, more_branches, more_branches_net,
    program_wf, program_wf_dec, sp_enabled, sp_step, spp_multistep,
)
from chorus.cli import main
from chorus.values import EMPTY_STATE, SelLabel
from chorus.verification import (
    check_determinism, check_diamond, check_epp_complete, check_epp_sound,
    check_progress, check_termination_unique,
)

from helpers import (
    LEFT, RIGHT, auth_expected_network, auth_program, auth_state,
    deadlock_network, file_transfer_program, gen_behaviour, seq, strengthen,
    weaken, wf_oracle,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


@contextmanager
def criterion(number: int, name: str, limit: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")
    assert elapsed <= limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"


@pytest.fixture(scope="module")
def corpus():
    return [gen_program(seed) for seed in range(200)]


def test_criterion_1_golden_projection():
    with criterion(1, "golden projection", 1.0):
        projected = epp(auth_program())
        assert not isinstance(projected, EppFailure)
        assert projected.network == auth_expected_network()
        assert not projected.defs.support()


def test_criterion_2_golden_traces():
    with criterion(2, "golden traces", 1.0):
        program = auth_program()
        network = SPProgram(epp(program).defs, epp(program).network)

        st1 = auth_state(good=True)
        st2 = st1.update("ip", "x", 7)
        st3 = st2.update("c", "t", 99)
        happy = [TCom("c", 7, "ip"), TTau("ip"), TSel("ip", "s", LEFT),
                 TSel("ip", "c", LEFT), TCom("s", 99, "c")]
        cc_final = ccp_multistep(CCConfiguration(program, st1), happy)
        assert [conf.program.main for conf in cc_final] == [END]
        assert [conf.state for conf in cc_final] == [st3]
        sp_final = spp_multistep(SPConfiguration(network, st1), happy)
        assert [conf.program.network for conf in sp_final] == [Network()]
        assert [conf.state for conf in sp_final] == [st3]

        st1_bad = auth_state(good=False)
        st2_bad = st1_bad.update("ip", "x", 5)
        sad = [TCom("c", 5, "ip"), TTau("ip"), TSel("ip", "s", RIGHT),
               TSel("ip", "c", RIGHT)]
        cc_final = ccp_multistep(CCConfiguration(program, st1_bad), sad)
        assert [(c.program.main, c.state) for c in cc_final] == [(END, st2_bad)]
        sp_final = spp_multistep(SPConfiguration(network, st1_bad), sad)
        assert [(c.program.network, c.state) for c in sp_final] == [(Network(), st2_bad)]


def test_criterion_3_file_transfer_joins():
    with criterion(3, "file transfer joins", 1.0):
        program = file_transfer_program()
        state = State({("s", "file"): 4})
        enabled = cc_enabled(program.defs, program.main, state)
        assert {label for label, _, _ in enabled} == {
            RCall("FileTransfer", "c"), RCall("FileTransfer", "s")}
        outcomes = set()
        for label, chor, mid_state in enabled:
            other = RCall("FileTransfer", "s" if label.proc == "c" else "c")
            outcomes.add(cc_step(program.defs, chor, mid_state, other))
        assert len(outcomes) == 1
        assert outcomes.pop() == (program.defs.body("FileTransfer"), state)


def test_criterion_4_merge_algebra():
    with criterion(4, "merge algebra", 30.0):
        rng = random.Random(42)
        for _ in range(1000):
            top = gen_behaviour(rng, rng.randint(1, 5))
            first = weaken(rng, top)
            second = weaken(rng, top)
            third = weaken(rng, top)
            other = gen_behaviour(rng, rng.randint(1, 4))

            # Functionality (stable, unique result) and idempotency.
            once, twice = merge(first, second), merge(first, second)
            assert once.ok and twice.ok and once.behaviour == twice.behaviour
            assert merge(first, first).unwrap() == first

            # Commutativity, including on unrelated pairs.
            flipped = merge(second, first)
            assert flipped.ok and flipped.behaviour == once.behaviour
            forward, backward = merge(first, other), merge(other, first)
            assert forward.ok == backward.ok
            if forward.ok:
                assert forward.behaviour == backward.behaviour

            # Upper bound and least upper bound under the common top.
            merged = once.behaviour
            assert more_branches(merged, first) and more_branches(merged, second)
            assert more_branches(top, merged)

            # Associativity where defined.
            left = merge(merged, third)
            right_inner = merge(second, third)
            assert right_inner.ok
            right = merge(first, right_inner.behaviour)
            assert left.ok and right.ok and left.behaviour == right.behaviour

            # Order/merge duality.
            assert more_branches(top, first)
            assert merge(top, first).unwrap() == top
            if merge(other, first).ok and merge(other, first).behaviour == other:
                assert more_branches(other, first)

            # Stability under weakening both sides.
            weaker_first, weaker_second = weaken(rng, first), weaken(rng, second)
            stable = merge(weaker_first, weaker_second)
            assert stable.ok
            assert more_branches(merged, stable.behaviour)


def test_criterion_5_order_laws_and_step_preservation(corpus):
    with criterion(5, "order laws and SP step preservation", 30.0):
        rng = random.Random(1234)
        for _ in range(1000):
            top = gen_behaviour(rng, rng.randint(1, 5))
            mid = weaken(rng, top)
            low = weaken(rng, mid)
            assert more_branches(top, top)
            assert more_branches(top, mid) and more_branches(mid, low)
            assert more_branches(top, low)  # transitivity
            if more_branches(mid, top):
                assert mid == top  # antisymmetry

        nets = []
        for _ in range(200):
            top_net = Network({p: gen_behaviour(rng, 3) for p in ("a", "b")})
            mid_net = Network({p: weaken(rng, top_net.get(p)) for p in ("a", "b")})
            low_net = Network({p: weaken(rng, mid_net.get(p)) for p in ("a", "b")})
            assert more_branches_net(top_net, top_net)
            assert more_branches_net(top_net, mid_net)
            assert more_branches_net(mid_net, low_net)
            assert more_branches_net(top_net, low_net)
            if more_branches_net(mid_net, top_net):
                assert mid_net == top_net
            nets.append(top_net)

        # Adding branches preserves every transition: 200 (network, step)
        # instances drawn from projections of generated programs.
        instances = 0
        seed = 0
        while instances < 200:
            program = corpus[seed % len(corpus)]
            seed += 1
            projected = epp(program, program.defs.support())
            if isinstance(projected, EppFailure):
                continue
            net, state = projected.network, EMPTY_STATE
            for _ in range(rng.randint(0, 4)):
                moves = sp_enabled(projected.defs, net, state)
                if not moves:
                    break
                _, net, state = rng.choice(moves)
            moves = sp_enabled(projected.defs, net, state)
            if not moves:
                continue
            taller = Network({p: strengthen(rng, net.get(p)) for p in net.support()})
            assert more_branches_net(taller, net)
            for label, succ, succ_state in moves:
                stepped = sp_step(projected.defs, taller, state, label)
                assert stepped is not None
                taller_succ, taller_state = stepped
                assert taller_state == succ_state
                assert more_branches_net(taller_succ, succ)
                instances += 1


def test_criterion_6_meta_property_suite(corpus):
    with criterion(6, "meta-property suite on 200 programs", 300.0):
        for program in corpus:
            names = program.defs.support()
            assert check_determinism(program, EMPTY_STATE, 8).passed
            assert check_diamond(program, EMPTY_STATE, 8).passed
            assert check_progress(program, EMPTY_STATE, 8).passed
            assert check_termination_unique(program, EMPTY_STATE, 8).passed
            assert check_epp_complete(program, EMPTY_STATE, 8, names).passed
            assert check_epp_sound(program, EMPTY_STATE, 8, names).passed


def test_criterion_7a_corrupted_projection(tmp_path):
    with criterion(7, "negative control: corrupted projection", 1.0):
        chor = seq(SelEta("p", "q", LEFT), ComEta("q", Lit(1), "p", "y"), END)
        program = CCProgram(DefSet(), chor)
        good = epp(program)
        branch = good.network.get("q")
        corrupted = good.network.put("q", Branch(branch.peer, branch.right, branch.left))
        report = check_epp_complete(program, EMPTY_STATE, 10,
                                    initial_network=corrupted)
        assert not report.passed
        failing = report.counterexample["failing"]
        assert failing["label"] == {"kind": "sel", "from": "p", "to": "q", "sel": "left"}

        # Replayable: the choreography performs the failing selection, the
        # corrupted network cannot.
        prefix = [_label(step["label"]) for step in report.counterexample["trace"]]
        divergence = _label(failing["label"])
        assert ccp_multistep(CCConfiguration(program, EMPTY_STATE),
                             prefix + [divergence])
        sp_conf = SPConfiguration(SPProgram(good.defs, corrupted), EMPTY_STATE)
        assert spp_multistep(sp_conf, prefix + [divergence]) == []


def test_criterion_7b_self_communication_rejected(tmp_path, capsys):
    with criterion(7, "negative control: self-communication", 1.0):
        path = tmp_path / "self.cc"
        path.write_text("main { p.x -> p.y; end }\n", encoding="utf-8")
        assert main(["check", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clause"] == "no_self_comm"


def test_criterion_7c_unprojectable_span(tmp_path, capsys):
    with criterion(7, "negative control: unmended conditional", 1.0):
        text = ("main {\n"
                "  if p.true then {\n"
                "    q.1 -> p.y;\n"
                "    end\n"
                "  } else {\n"
                "    end\n"
                "  }\n"
                "}\n")
        path = tmp_path / "unmended.cc"
        path.write_text(text, encoding="utf-8")
        assert main(["project", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cannot project main for q" in err
        assert "2:3-7:4" in err  # span of the whole conditional


def test_criterion_8_decidability_harness(corpus):
    with criterion(8, "decidability harness", 30.0):
        rng = random.Random(7)
        for program in corpus:
            names = program.defs.support()
            report = program_wf_dec(program, names)
            assert report.ok == program_wf(program) == wf_oracle(program)
            for mutant in _mutants(rng, program):
                mutant_report = program_wf_dec(mutant, mutant.defs.support())
                assert mutant_report.ok == program_wf(mutant) == wf_oracle(mutant)


def _mutants(rng, program):
    out = []
    # Self-communication injected in front of the main choreography.
    p = rng.choice(("p1", "p2"))
    out.append(CCProgram(program.defs,
                         Interaction(ComEta(p, Lit(0), p, "x"), "", program.main)))
    # A procedure whose body strays outside its declared processes.
    body = Interaction(ComEta("z1", Lit(0), "z2", "x"), "", END)
    out.append(CCProgram(program.defs.with_def("Rogue", ("z1",), body), program.main))
    return out


def test_criterion_9_deadlock_exhibit(corpus):
    with criterion(9, "deadlock exhibit and deadlock freedom", 60.0):
        from chorus import parse_sp
        from chorus.processes import DefSetB

        parsed = parse_sp((PROGRAMS / "deadlock.sp").read_text(encoding="utf-8"))
        assert parsed.network == deadlock_network()
        assert sp_enabled(parsed.defs, parsed.network, EMPTY_STATE) == []
        assert sp_enabled(DefSetB(), deadlock_network(), EMPTY_STATE) == []

        # No reachable configuration of a generated program is stuck early.
        for program in corpus:
            report = check_progress(program, EMPTY_STATE, 8)
            assert report.passed


def _label(data):
    if data["kind"] == "com":
        value = tuple(data["value"]) if isinstance(data["value"], list) else data["value"]
        return TCom(data["from"], value, data["to"])
    if data["kind"] == "sel":
        return TSel(data["from"], data["to"], SelLabel(data["sel"]))
    return TTau(data["at"])
