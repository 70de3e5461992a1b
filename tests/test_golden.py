"""Byte-for-byte CLI output on the example programs.

Each case pins the exact stdout, stderr and exit code of one ``chorus``
command line, and ``project`` additionally pins the bytes of the files it
writes.  Paths that vary between checkouts are replaced by ``<programs>``,
``<golden>`` and ``<tmp>``.  ``tests/golden/cli.json`` holds the expected
output; after a deliberate output change, re-record it with
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
RUNAHEAD = str(GOLDEN / "runahead.cc")
# The projection of ``FT`` that ``project`` writes (see ``PROJECTED``).
FT_SP = str(GOLDEN / "file_transfer.sp")
# Non-ASCII names, which JSON output escapes.
UNICODE = str(GOLDEN / "unicode.cc")
# Its procedure is the default definition, which ``DefSet`` does not store.
DEFAULT_DEF = str(GOLDEN / "default_def.cc")
# Calls a procedure with no ``def``, which every command reads as the default.
UNDEFINED_CALL = str(GOLDEN / "undefined_call.cc")
# A bystander r whose two branch projections do not merge, one per reason.
MERGE_FAILURES = ("branch_sources", "offer_annotations", "inner_guards", "called_procedures")
# One input per parse error: exit 2 and one located line.  ``string_found``
# names a string token (the message shows its decoded text), and
# ``eof_after_comment`` ends in a comment, where the end of input is located
# at the comment's start.
PARSE_ERRORS = GOLDEN / "parse_errors"
CC_ERRORS = ("trailing_input", "unquoted_annotation", "comparison", "procedure_twice",
             "string_found", "eof_after_comment", "missing_operand")
SP_ERRORS = ("trailing_input", "unquoted_annotation", "comparison", "procedure_copy_twice",
             "process_twice", "offer_twice")
# One ``--state`` file per loader error: exit 2 and one line.  ``short_pair``
# holds a one-element array, ``negative`` a negative number, ``no_dot`` a key
# with no process, and ``not_object`` an array where the object should be.
STATE_ERRORS = GOLDEN / "state_errors"
BAD_STATES = ("short_pair", "negative", "no_dot", "not_object")

CASES = {
    "check_auth_text": ["check", AUTH],
    "check_auth_json": ["check", AUTH, "--format", "json"],
    "check_default_def": ["check", DEFAULT_DEF],
    "check_ft_text": ["check", FT],
    "check_ft_json": ["check", FT, "--format", "json"],
    "check_parse_error": ["check", DEADLOCK],
    **{f"check_error_{name}": ["check", str(PARSE_ERRORS / f"{name}.cc")] for name in CC_ERRORS},
    **{f"simulate_error_{name}": ["simulate", str(PARSE_ERRORS / f"{name}.sp")]
       for name in SP_ERRORS},
    "check_self_comm_text": ["check", SELF_COMM],
    "check_self_comm_json": ["check", SELF_COMM, "--format", "json"],
    "check_undefined_call_text": ["check", UNDEFINED_CALL],
    "check_undefined_call_json": ["check", UNDEFINED_CALL, "--format", "json"],
    "project_unprojectable": ["project", UNPROJECTABLE],
    **{f"project_{name}": ["project", str(GOLDEN / f"{name}.cc")] for name in MERGE_FAILURES},
    **{f"run_state_error_{name}": ["run", FT, "--state", str(STATE_ERRORS / f"{name}.json")]
       for name in BAD_STATES},
    "run_auth_first": ["run", AUTH, "--state", AUTH_STATE],
    "run_auth_text": ["run", AUTH, "--format", "text"],
    "run_ft_random_5": ["run", FT, "--scheduler", "random", "--seed", "5"],
    "run_ft_bound": ["run", FT, "--state", FT_STATE, "--max-steps", "12"],
    "run_negative_steps": ["run", FT, "--max-steps", "-1"],
    "run_unicode_json": ["run", UNICODE],
    "run_unicode_text": ["run", UNICODE, "--format", "text"],
    "run_undefined_call": ["run", UNDEFINED_CALL],
    "simulate_deadlock": ["simulate", DEADLOCK],
    "simulate_deadlock_text": ["simulate", DEADLOCK, "--format", "text"],
    "simulate_ft_bound": ["simulate", FT_SP, "--state", FT_STATE, "--max-steps", "12"],
    "verify_auth_json": ["verify", AUTH, "--depth", "8"],
    "verify_auth_text": ["verify", AUTH, "--depth", "8", "--format", "text"],
    "verify_default_def_text": ["verify", DEFAULT_DEF, "--format", "text"],
    "verify_ft_json": ["verify", FT, "--depth", "8"],
    "verify_ft_text": ["verify", FT, "--depth", "8", "--format", "text"],
    "verify_ft_state": ["verify", FT, "--depth", "8", "--state", FT_STATE,
                        "--property", "termination"],
    "verify_negative_depth": ["verify", AUTH, "--depth", "-1"],
    # Joins and revisited configurations in both projection games.
    "verify_runahead_json": ["verify", RUNAHEAD, "--depth", "12"],
    "verify_unprojectable": ["verify", UNPROJECTABLE, "--property", "sound"],
    "verify_undefined_call_text": ["verify", UNDEFINED_CALL, "--format", "text"],
}

# Programs projected by ``project``, with their source and the arguments
# their projection is then simulated under.
PROJECTED = {
    "authentication": (AUTH, ["--state", AUTH_STATE]),
    "default_def": (DEFAULT_DEF, []),
    "file_transfer": (FT, ["--scheduler", "random", "--seed", "5"]),
    "unicode": (UNICODE, []),
    "undefined_call": (UNDEFINED_CALL, []),
}


def _run(argv, tmp=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    def clean(text):
        text = text.replace(str(PROGRAMS), "<programs>").replace(str(GOLDEN), "<golden>")
        return text.replace(str(tmp), "<tmp>") if tmp is not None else text

    return {"exit": code, "stdout": clean(out.getvalue()), "stderr": clean(err.getvalue())}


def _project_and_simulate(name, tmp: Path):
    """Run ``project`` then ``simulate`` on its output; (.sp path, results)."""
    source, simulate_args = PROJECTED[name]
    out = tmp / f"{name}.sp"
    results = {
        f"project_{name}": _run(["project", source, "--out", str(out)], tmp),
        f"simulate_{name}": _run(["simulate", str(out), *simulate_args], tmp),
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
