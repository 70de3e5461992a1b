import json
import re
from pathlib import Path

from chorus import (
    CCConfiguration, END, SPConfiguration, State, TTau, ccp_multistep,
    parse_sp, spp_multistep,
)
from chorus.cli import main
from chorus.values import SelLabel
from chorus.labels import TCom, TSel

from helpers import auth_expected_network, auth_program

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
AUTH = str(PROGRAMS / "authentication.cc")
FT = str(PROGRAMS / "file_transfer.cc")
DEADLOCK = str(PROGRAMS / "deadlock.sp")


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


def test_non_decimal_digits_exit_2_with_a_located_line(tmp_path, capsys):
    for digit in ("\u00b2", "\u2460"):
        path = _write(tmp_path, "digit.cc", f"main {{ p.{digit} -> q.x; end }}\n")
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"{re.escape(path)}:1:10-1:11: .*\n", captured.err)


def test_state_file_must_hold_an_object(tmp_path, capsys):
    for text in ("[1]", '"x"'):
        state = _write(tmp_path, "st.json", text)
        assert main(["run", FT, "--state", state]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_inputs_exit_2_with_one_line(tmp_path, capsys):
    # verify's search hashes each configuration, recursing once per interaction.
    cc = _write(tmp_path, "long.cc", "main { " + "p.0 -> q.x; " * 2000 + "end }\n")
    assert main(["verify", cc, "--depth", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


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
