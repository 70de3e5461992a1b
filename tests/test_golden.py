"""Byte-for-byte CLI output on the example programs.

Each case pins the exact stdout, stderr and exit code of one ``chorus``
command line, and ``project`` additionally pins the bytes of the files it
writes.  Paths that vary between checkouts are replaced by ``<programs>``
and ``<tmp>``.  ``tests/golden/cli.json`` holds the expected output; after a
deliberate output change, re-record it with
``PYTHONPATH=src:tests python -c "import test_golden; test_golden.record()"``.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from chorus.cli import main

ROOT = Path(__file__).resolve().parent
PROGRAMS = ROOT.parent / "programs"
GOLDEN = ROOT / "golden"
AUTH = str(PROGRAMS / "authentication.cc")
FT = str(PROGRAMS / "file_transfer.cc")
DEADLOCK = str(PROGRAMS / "deadlock.sp")
AUTH_STATE = str(GOLDEN / "auth_state.json")
FT_STATE = str(GOLDEN / "ft_state.json")
UNPROJECTABLE = str(GOLDEN / "unprojectable.cc")
SELF_COMM = str(GOLDEN / "self_comm.cc")

CASES = {
    "check_auth_text": ["check", AUTH],
    "check_auth_json": ["check", AUTH, "--format", "json"],
    "check_ft_text": ["check", FT],
    "check_ft_json": ["check", FT, "--format", "json"],
    "check_parse_error": ["check", DEADLOCK],
    "check_self_comm_text": ["check", SELF_COMM],
    "check_self_comm_json": ["check", SELF_COMM, "--format", "json"],
    "project_unprojectable": ["project", UNPROJECTABLE],
    "run_auth_first": ["run", AUTH, "--state", AUTH_STATE],
    "run_auth_text": ["run", AUTH, "--format", "text"],
    "run_ft_random_5": ["run", FT, "--scheduler", "random", "--seed", "5"],
    "run_ft_bound": ["run", FT, "--state", FT_STATE, "--max-steps", "12"],
    "run_negative_steps": ["run", FT, "--max-steps", "-1"],
    "simulate_deadlock": ["simulate", DEADLOCK],
    "simulate_deadlock_text": ["simulate", DEADLOCK, "--format", "text"],
    "verify_auth_json": ["verify", AUTH, "--depth", "8"],
    "verify_auth_text": ["verify", AUTH, "--depth", "8", "--format", "text"],
    "verify_ft_json": ["verify", FT, "--depth", "8"],
    "verify_ft_text": ["verify", FT, "--depth", "8", "--format", "text"],
    "verify_ft_state": ["verify", FT, "--depth", "8", "--state", FT_STATE,
                        "--property", "termination"],
    "verify_negative_depth": ["verify", AUTH, "--depth", "-1"],
    "verify_unprojectable": ["verify", UNPROJECTABLE, "--property", "sound"],
}

# Programs projected by ``project``, with the arguments their projection is
# then simulated under.
PROJECTED = {
    "authentication": ["--state", AUTH_STATE],
    "file_transfer": ["--scheduler", "random", "--seed", "5"],
}


def _run(argv, tmp=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    def clean(text):
        text = text.replace(str(PROGRAMS), "<programs>")
        return text.replace(str(tmp), "<tmp>") if tmp is not None else text

    return {"exit": code, "stdout": clean(out.getvalue()), "stderr": clean(err.getvalue())}


def _project_and_simulate(name, tmp: Path):
    """Run ``project`` then ``simulate`` on its output; (.sp path, results)."""
    out = tmp / f"{name}.sp"
    results = {
        f"project_{name}": _run(["project", str(PROGRAMS / f"{name}.cc"), "--out", str(out)], tmp),
        f"simulate_{name}": _run(["simulate", str(out), *PROJECTED[name]], tmp),
    }
    return out, results


def _expected() -> dict:
    return json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case):
    assert _run(CASES[case]) == _expected()[case]


@pytest.mark.parametrize("name", sorted(PROJECTED))
def test_project_golden(name, tmp_path):
    out, results = _project_and_simulate(name, tmp_path)
    expected = _expected()
    for case, result in results.items():
        assert result == expected[case], case
    for path in (out, out.with_suffix(".sp.manifest.json")):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def record() -> None:
    """Rewrite the golden files from the current CLI."""
    results = {case: _run(argv) for case, argv in CASES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PROJECTED:
            out, projected = _project_and_simulate(name, Path(tmp))
            results.update(projected)
            for path in (out, out.with_suffix(".sp.manifest.json")):
                (GOLDEN / path.name).write_bytes(path.read_bytes())
    (GOLDEN / "cli.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
