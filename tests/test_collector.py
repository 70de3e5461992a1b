"""The cyclic garbage collector around a command.

``cli.main`` runs each command with the collector off and gives the caller
its setting back.  That is safe only while no command leaves cyclic
garbage, which the first test pins: if a change makes cycles, it names
their types and the command line that made them.
"""
import contextlib
import gc
import io
from pathlib import Path

import pytest

import chorus.cli
from chorus import gen_program, print_cc
from chorus.cli import main

ROOT = Path(__file__).resolve().parent.parent
AUTH = str(ROOT / "programs" / "authentication.cc")


def _commands(cc: str, sp: str) -> list:
    """Every command on ``cc``; ``simulate`` reads what ``project`` wrote to ``sp``."""
    return [["check", cc], ["project", cc, "--out", sp], ["run", cc],
            ["run", cc, "--scheduler", "random"], ["simulate", sp], ["step", cc],
            ["verify", cc, "--property", "all"]]


def _assert_no_cycles(argvs, monkeypatch) -> None:
    """Run each command line under ``gc.DEBUG_SAVEALL`` and fail on the
    first that leaves cyclic garbage."""
    # Exempt: argparse makes a cyclic help formatter per argument as it
    # builds the parser, once per process and before any command runs.
    chorus.cli._build_parser()
    gc.collect()
    gc.freeze()  # what earlier tests left is not scanned again after each command
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in argvs:
            monkeypatch.setattr("sys.stdin", io.StringIO("0\n0\nq\n"))  # read by step
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            gc.collect()
            kinds = sorted({type(garbage).__qualname__ for garbage in gc.garbage})
            assert not kinds, f"chorus {' '.join(argv)} left cycles of {kinds}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()


def test_no_command_leaves_cyclic_garbage(tmp_path, monkeypatch):
    inputs = [str(path) for pattern in ("programs/*.cc", "tests/golden/*.cc")
              for path in sorted(ROOT.glob(pattern))]
    for seed in range(60):
        path = tmp_path / f"gen{seed}.cc"
        path.write_text(print_cc(gen_program(seed)), encoding="utf-8")
        inputs.append(str(path))
    _assert_no_cycles((argv for index, cc in enumerate(inputs)
                       for argv in _commands(cc, str(tmp_path / f"{index}.sp"))), monkeypatch)


def test_no_parse_leaves_cyclic_garbage(tmp_path, monkeypatch):
    """Parse errors, and a guard that parses after backtracking from a
    Boolean parenthesis to an expression, twice."""
    guard = "((x) == 1 && ((y + 1)) <= 2)"
    cc, sp = tmp_path / "guard.cc", tmp_path / "guard.sp"
    cc.write_text(f"main {{ if p.{guard} then {{ end }} else {{ end }} }}\n", encoding="utf-8")
    sp.write_text(f"p[if {guard} then {{ end }} else {{ end }}]\n", encoding="utf-8")
    argvs = [["check", str(cc)], ["simulate", str(sp)]]
    for path in sorted((ROOT / "tests" / "golden" / "parse_errors").iterdir()):
        argvs.append(["check" if path.suffix == ".cc" else "simulate", str(path)])
    _assert_no_cycles(argvs, monkeypatch)


@pytest.mark.parametrize("collecting", [True, False])
def test_main_gives_the_callers_collector_setting_back(tmp_path, monkeypatch, capsys, collecting):
    was, threshold = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(1234, 5, 6)
    (gc.enable if collecting else gc.disable)()
    try:
        def unchanged():
            return gc.isenabled() == collecting and gc.get_threshold() == (1234, 5, 6)

        self_comm = tmp_path / "self.cc"
        self_comm.write_text("main { p.1 -> p.x; end }\n", encoding="utf-8")
        for argv, code in ((["check", AUTH], 0), (["check", str(self_comm)], 1),
                           (["check", str(tmp_path / "missing.cc")], 2)):
            assert main(argv) == code and unchanged()
        with pytest.raises(SystemExit) as exit_info:  # argparse rejects the command line
            main(["check"])
        assert exit_info.value.code == 2 and unchanged()

        seen = []

        def escaping(args):
            seen.append(gc.isenabled())
            raise RuntimeError("escaped")

        monkeypatch.setitem(chorus.cli._COMMANDS, "check", escaping)
        with pytest.raises(RuntimeError, match="escaped"):
            main(["check", AUTH])
        assert unchanged() and seen == [False]  # the command ran with the collector off
        capsys.readouterr()
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if was else gc.disable)()
