import json
import re
import sys
from pathlib import Path

import pytest

from chorus import (
    CCConfiguration, END, SPConfiguration, State, TTau, cc_enabled, ccp_multistep,
    parse_cc, parse_sp, print_cc, program_wf, sp_enabled, spp_multistep,
)
import chorus.cli
from chorus.cli import main
from chorus.values import SelLabel
from chorus.labels import TCom, TSel

from helpers import auth_expected_network, auth_program

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
AUTH = str(PROGRAMS / "authentication.cc")
FT = str(PROGRAMS / "file_transfer.cc")
DEADLOCK = str(PROGRAMS / "deadlock.sp")
GOLDEN = Path(__file__).resolve().parent / "golden"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _label_from_json(data):
    if data["kind"] == "com":
        value = data["value"]
        value = tuple(value) if isinstance(value, list) else value
        return TCom(data["from"], value, data["to"])
    if data["kind"] == "sel":
        return TSel(data["from"], data["to"], SelLabel(data["sel"]))
    return TTau(data["at"])


def test_check_accepts_examples(capsys):
    assert main(["check", AUTH]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["check", FT]) == 0


def test_check_rejects_self_communication(tmp_path, capsys):
    path = _write(tmp_path, "bad.cc", "main { p.x -> p.y; end }\n")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "no_self_comm" in out

    assert main(["check", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["clause"] == "no_self_comm"
    assert report["ok"] is False


def test_check_reports_parse_errors(tmp_path, capsys):
    path = _write(tmp_path, "broken.cc", "main { p.x -> }")
    assert main(["check", path]) == 2
    assert "expected" in capsys.readouterr().err


def test_project_golden(tmp_path, capsys):
    out = tmp_path / "auth.sp"
    assert main(["project", AUTH, "--out", str(out)]) == 0
    projected = parse_sp(out.read_text(encoding="utf-8"))
    assert projected.network == auth_expected_network()
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest == {}

    out2 = tmp_path / "ft.sp"
    assert main(["project", FT, "--out", str(out2)]) == 0
    manifest2 = json.loads(Path(str(out2) + ".manifest.json").read_text())
    assert set(manifest2) == {"FileTransfer@c", "FileTransfer@s"}


def test_project_unprojectable_reports_span(tmp_path, capsys):
    text = "main {\n  if p.true then {\n    q.1 -> p.y;\n    end\n  } else {\n    end\n  }\n}\n"
    path = _write(tmp_path, "unmended.cc", text)
    assert main(["project", path]) == 1
    err = capsys.readouterr().err
    assert "cannot project main for q" in err
    assert "2:3" in err  # the conditional starts at line 2, column 3


def test_project_nested_failure_reports_path_and_span(tmp_path, capsys):
    text = ("main {\n  if r.true then {\n    r.0 -> a.w;\n    if p.true then {\n"
            "      a.1 -> p.y;\n      end\n    } else {\n      end\n    }\n"
            "  } else {\n    r.0 -> a.w;\n    end\n  }\n}\n")
    path = _write(tmp_path, "nested.cc", text)
    assert main(["project", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: cannot project main for a: conditional at p is ambiguous for a: "
        "Send cannot merge with BEnd (at then/cont) (4:5-9:6)\n")
    assert captured.out == ""


def test_run_trace_replays(tmp_path, capsys):
    state = _write(tmp_path, "st.json", json.dumps(
        {"c.creds": 7, "ip.secret": 7, "s.tok": 99}))
    assert main(["run", AUTH, "--state", state]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[-1]["status"] == "terminated"
    labels = [_label_from_json(line["label"]) for line in lines[:-1]]
    start = State({("c", "creds"): 7, ("ip", "secret"): 7, ("s", "tok"): 99})
    final = ccp_multistep(CCConfiguration(auth_program(), start), labels)
    assert len(final) >= 1
    assert all(conf.program.main == END for conf in final)


def test_run_deterministic_output(tmp_path, capsys):
    assert main(["run", FT, "--scheduler", "random", "--seed", "3",
                 "--max-steps", "12"]) == 0
    first = capsys.readouterr().out
    assert main(["run", FT, "--scheduler", "random", "--seed", "3",
                 "--max-steps", "12"]) == 0
    assert capsys.readouterr().out == first
    # With the all-zero store the checksum matches, so the run terminates.
    assert json.loads(first.splitlines()[-1])["status"] == "terminated"


def test_simulate_deadlock_reports_stuck(capsys):
    assert main(["simulate", DEADLOCK]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines == [{"status": "stuck", "state": {}}]


def test_simulate_projected_network(tmp_path, capsys):
    out = tmp_path / "auth.sp"
    main(["project", AUTH, "--out", str(out)])
    capsys.readouterr()
    state = _write(tmp_path, "st.json", json.dumps(
        {"c.creds": 7, "ip.secret": 7, "s.tok": 99}))
    assert main(["simulate", str(out), "--state", state]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[-1]["status"] == "terminated"
    labels = [_label_from_json(line["label"]) for line in lines[:-1]]
    conf = SPConfiguration(parse_sp(out.read_text()),
                           State({("c", "creds"): 7, ("ip", "secret"): 7, ("s", "tok"): 99}))
    assert spp_multistep(conf, labels)


def test_verify_all_passes_on_auth(capsys):
    assert main(["verify", AUTH, "--property", "all", "--depth", "10"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["property"] for r in reports} == {
        "complete", "sound", "determinism", "diamond", "progress",
        "termination_unique"}
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_single_property_text(capsys):
    assert main(["verify", FT, "--property", "complete", "--depth", "6",
                 "--format", "text"]) == 0
    assert "complete: pass" in capsys.readouterr().out


def test_verify_rejects_sp_input(capsys):
    assert main(["verify", DEADLOCK]) == 2


@pytest.mark.parametrize("argv", [["project", AUTH], ["step", FT]])
def test_format_is_not_an_option_of_project_or_step(argv, capsys):
    # Neither command prints a format-dependent result, so the flag is a usage error.
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--format", "json"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_step_interactive(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n0\nq\n"))
    assert main(["step", FT]) == 0
    out = capsys.readouterr().out
    assert "[0] call(FileTransfer,c)" in out
    assert "[1] call(FileTransfer,s)" in out

    # A negative index is not one of the listed ones, even where Python would
    # read it from the end of the list.
    monkeypatch.setattr("sys.stdin", io.StringIO("-1\n2\nx\n0\nq\n"))
    assert main(["step", FT]) == 0
    out = capsys.readouterr().out
    assert out.count("enter one of the listed indices, or q to quit") == 3
    assert re.findall(r"-- (.*)", out) == ["call(FileTransfer,c)"]


def test_step_ends_where_nothing_is_enabled_and_at_end_of_input(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["step", _write(tmp_path, "end.cc", "main { end }\n")]) == 0
    assert capsys.readouterr().out == "no transitions enabled; done\n"
    # The prompt meets the end of input, and step exits 0 after it.
    assert main(["step", FT]) == 0
    assert capsys.readouterr().out == (
        "  [0] call(FileTransfer,c)\n  [1] call(FileTransfer,s)\nstep> ")


def test_step_prints_long_programs(tmp_path, capsys, monkeypatch):
    import io
    cc = _write(tmp_path, "long.cc", "main { " + "p.0 -> q.x; " * 20000 + "end }\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("0\nq\n"))
    assert main(["step", cc]) == 0
    out = capsys.readouterr().out
    assert out.count("\np.0 -> q.x;") == 19999 and out.count("  [0] com(p,0,q,x)") == 2


def test_non_decimal_digits_exit_2_with_a_located_line(tmp_path, capsys):
    for digit in ("\u00b2", "\u2460"):
        path = _write(tmp_path, "digit.cc", f"main {{ p.{digit} -> q.x; end }}\n")
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"{re.escape(path)}:1:10-1:11: .*\n", captured.err)


@pytest.mark.parametrize("path", sorted([*PROGRAMS.glob("*.cc"), *GOLDEN.glob("*.cc")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_check_agrees_with_program_wf(path, capsys):
    # undefined_call.cc calls a procedure with no def: check reads it as the
    # default definition, as program_wf and every other command do.
    expected = 0 if program_wf(parse_cc(path.read_text(encoding="utf-8"))) else 1
    assert main(["check", str(path)]) == expected
    assert capsys.readouterr().out.startswith("ok\n" if expected == 0 else "error: ")


def test_naturals_of_any_size_load_and_print(tmp_path, capsys):
    # 5,000 nines and their double, past the interpreter's default limit of
    # 4,300 digits for converting an int to or from a string.
    limit = sys.get_int_max_str_digits()
    nines, double = "9" * 5000, "1" + "9" * 4999 + "8"
    state = _write(tmp_path, "big.json", f'{{"p.x": {nines}}}')
    cc = _write(tmp_path, "big.cc", "main { p.x + x -> q.y; end }\n")
    sp = _write(tmp_path, "big.sp", "p[q!x + x; end]\n| q[p?y; end]\n")
    for argv in (["run", cc], ["simulate", sp]):
        assert main([*argv, "--state", state]) == 0
        step, final = capsys.readouterr().out.splitlines()
        assert f'"value": {double},' in step
        assert final == f'{{"status": "terminated", "state": {{"p.x": {nines}, "q.y": {double}}}}}'
        assert sys.get_int_max_str_digits() == limit
    assert main(["verify", cc, "--state", state, "--format", "text"]) == 0
    assert capsys.readouterr().out.count(": pass (") == 6
    assert sys.get_int_max_str_digits() == limit


def test_state_file_must_hold_an_object(tmp_path, capsys):
    for text in ("[1]", '"x"'):
        state = _write(tmp_path, "st.json", text)
        assert main(["run", FT, "--state", state]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_inputs_exit_2_with_one_line(tmp_path, capsys):
    # Nested parentheses are read with a stack: 1,500 check, and print back.
    nested = "(" * 1500 + "1" + ")" * 1500
    text = f"main {{ p.{nested} -> q.x; end }}\n"
    cc = _write(tmp_path, "deep.cc", text)
    assert main(["check", cc]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert parse_cc(print_cc(parse_cc(text))) == parse_cc(text)
    # Comparing two pair values, which verify does, recurses in C; so a value
    # nested 100,000 deep exits 2 there, with one line.
    pair = "pair(" * 100000 + "1" + ", 0)" * 100000
    cc = _write(tmp_path, "pair.cc", f"main {{ p.{pair} -> q.x; end }}\n")
    assert main(["verify", cc, "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_run_writes_values_nested_one_pair_deeper_each_round(tmp_path, capsys):
    # Each round nests x one pair deeper, so the value sent at step 4,000 is
    # nested 2,000 deep; every line is written in a loop.
    cc = _write(tmp_path, "nesting.cc", "def X(p, q) { p.pair(x, 0) -> q.x; q.pair(x, 0) -> p.x; "
                                        "call X } main { call X }\n")
    for fmt, steps in (("json", 4000), ("text", 2000)):
        assert main(["run", cc, "--max-steps", str(steps), "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == steps + 1
        assert lines[-1].startswith('{"status": "bound", "state": {"p.x": [[[' if fmt == "json"
                                    else 'bound; state {"p.x": [[[')
    assert lines[-2].startswith("com(q,((((")


def test_project_merges_long_branches_in_a_loop(tmp_path, capsys):
    # r takes no part in the conditional: its two branch projections, each
    # 1,500 receives long, are merged.
    body = "q.0 -> r.x; " * 1500 + "end"
    cc = _write(tmp_path, "branches.cc",
                f"main {{ if p.true then {{ {body} }} else {{ {body} }} }}\n")
    assert main(["project", cc]) == 0
    assert capsys.readouterr().out.startswith("wrote ")
    assert (tmp_path / "branches.sp").read_text().count("q?x; ") == 1500


# Programs where several moves are enabled at once: a call with two joining
# processes, 8 disjoint pairs, and an interaction delayed past a run.
_MANY_MOVES = {
    "file_transfer": Path(FT).read_text(encoding="utf-8"),
    "pairs": "main { " + "".join(f"a{i}.{r} -> b{i}.x; " for r in range(2) for i in range(8))
             + "end }",
    "runahead": "main { " + "a.0 -> b.x; " * 20 + "c.1 -> d.y; end }",
}


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize("name", sorted(_MANY_MOVES))
def test_run_and_simulate_pull_only_the_moves_they_take(tmp_path, capsys, monkeypatch,
                                                        command, name):
    """The first scheduler pulls one move per step, and one more to tell a
    ``bound`` run from a stuck one; the random one pulls every enabled move."""
    path = _write(tmp_path, f"{name}.cc", _MANY_MOVES[name])
    if command == "simulate":
        projected = str(tmp_path / f"{name}.sp")
        assert main(["project", path, "--out", projected]) == 0
        path = projected
    target, enabled = ("cc_moves", cc_enabled) if command == "run" else ("sp_moves", sp_enabled)
    moves, counts = getattr(chorus.cli, target), {}

    def counted(*args):
        counts["enabled"] += len(enabled(*args))
        for move in moves(*args):
            counts["pulled"] += 1
            yield move

    monkeypatch.setattr(chorus.cli, target, counted)
    capsys.readouterr()
    for scheduler, bound, status in (("first", "100", "terminated"), ("first", "3", "bound"),
                                     ("random", "100", "terminated")):
        counts.update(enabled=0, pulled=0)
        assert main([command, path, "--scheduler", scheduler, "--seed", "3",
                     "--max-steps", bound]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[-1])["status"] == status
        steps = len(lines) - 1
        if scheduler == "first":
            assert counts["pulled"] == steps + (status == "bound")
        else:
            assert counts["pulled"] == counts["enabled"] > steps


def test_long_sequences_run_and_simulate_to_the_end(tmp_path, capsys):
    cc = _write(tmp_path, "long.cc",
                "main { " + "p.succ(x) -> q.x; q.succ(x) -> p.x; " * 2500 + "end }\n")
    sp = _write(tmp_path, "deep.sp",
                "p[" + "q!0; " * 2000 + "end]\n| q[" + "p?x; " * 2000 + "end]\n")
    projected = str(tmp_path / "long_projected.sp")
    assert main(["check", cc]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["project", cc, "--out", projected]) == 0
    assert capsys.readouterr().out.startswith("wrote ")
    assert main(["verify", cc, "--depth", "4"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [report["verdict"] for report in reports] == ["pass"] * 6
    for argv, steps, final in (
            (["run", cc, "--max-steps", "5000"], 5000,
             {"status": "terminated", "state": {"p.x": 5000, "q.x": 4999}}),
            (["simulate", projected, "--max-steps", "5000"], 5000,
             {"status": "terminated", "state": {"p.x": 5000, "q.x": 4999}}),
            (["simulate", sp, "--max-steps", "2000"], 2000,
             {"status": "terminated", "state": {}})):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == steps + 1
        assert json.loads(lines[-1]) == final


def _guarded(guard):
    return (f"main {{ if p.{guard} then {{ p -> q[left]; p.1 -> q.x; end }} "
            "else { p -> q[right]; end } }\n")


# A 20,000-term sum, a 20,000-term conjunction and 20,000 negations, with
# what ``run`` stores.
_FLAT_CHAINS = {
    "sum": ("main { p.1" + " + 1" * 19999 + " -> q.x; end }\n", {"q.x": 20000}),
    "guard": (_guarded(" && ".join(["true"] * 20000)), {"q.x": 1}),
    "negation": (_guarded("!" * 20000 + "true"), {"q.x": 1}),
}


@pytest.mark.parametrize("name", _FLAT_CHAINS)
def test_flat_chains_pass_every_command(tmp_path, capsys, name):
    # The parser nests ``1 + 1 + …`` and ``true && true && …`` on the left,
    # and ``!!…!true`` on the right; evaluating, printing, hashing and
    # comparing walk that spine in a loop.
    text, stored = _FLAT_CHAINS[name]
    program = parse_cc(text)
    assert parse_cc(print_cc(program)) == program
    cc = _write(tmp_path, f"{name}.cc", text)
    projected = str(tmp_path / "projected.sp")
    assert main(["check", cc]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["project", cc, "--out", projected]) == 0
    assert capsys.readouterr().out.startswith("wrote ")
    for argv in (["run", cc], ["simulate", projected]):
        assert main(argv) == 0
        final = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert final == {"status": "terminated", "state": stored}
    assert main(["verify", cc, "--depth", "1"]) == 0
    assert [report["verdict"] for report in json.loads(capsys.readouterr().out)] == ["pass"] * 6


def test_verify_all_passes_past_a_long_run_ahead(tmp_path, capsys):
    # The two orders of the two enabled steps build equal 3,000-long chains
    # apart, and the search compares them in a loop.
    cc = _write(tmp_path, "runahead.cc",
                "main { " + "a.0 -> b.x; " * 3000 + "c.1 -> d.y; end }\n")
    assert main(["verify", cc, "--property", "all", "--depth", "2", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(": pass (" in line for line in lines)


def test_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    assert main(["run", AUTH, "--format", "text"]) == 0
    assert not capsys.readouterr().out.startswith("{")
    assert main(["run", AUTH]) == 0
    assert all(json.loads(line) for line in capsys.readouterr().out.splitlines())

    with pytest.raises(SystemExit) as exit_info:
        main(["run", AUTH, "--max-steps", "many"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert main(["check", AUTH]) == 0
    assert capsys.readouterr().out == "ok\n"

    seen = []
    checked = chorus.cli.check_property
    monkeypatch.setattr(chorus.cli, "check_property",
                        lambda prop, program, state, depth: seen.append((prop, depth))
                        or checked(prop, program, state, depth))
    assert main(["verify", AUTH, "--property", "progress", "--depth", "3"]) == 0
    assert main(["verify", AUTH]) == 0
    assert seen == [("progress", 3), ("all", 10)]
