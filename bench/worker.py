"""One pass of a workload in a fresh process: every input is given once.

    python3 bench/worker.py WORKLOAD SEED MODE SMOKE

MODE is ``plain``, ``traced`` or ``setup``.  Imports ``chorus`` from the
``src`` directory next to ``bench``, generates the inputs and their
references, runs each op in-process through ``chorus.cli.main`` with its
output captured, checks it, and prints one JSON object describing the pass
on standard output.  ``traced`` also records spans (see ``layers``) and
writes them to ``.bench_out``; ``setup`` stops once the inputs are ready.

Host speed is measured alongside: ``calibrate`` runs before every op, after
the last one, and around the set-up, so that ``run.py`` can scale every
time to a fixed host speed.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import gen
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_CALIBRATIONS = 3  # before and after the set-up each; the median counts


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch ``chorus``: the benchmark's own generator, reference projection
    and reference interpreter on fixed inputs.  Garbage collection is off
    meanwhile, so that what ``chorus`` keeps alive cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            rng = random.Random(0)
            gen.random_program(rng, 0)
            gen.straight(rng, 40)
            gen.loop(rng, 12)
            gen.chain(rng, 3)
        return time.perf_counter() - start
    finally:
        gc.enable()


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chorus.cli
    where = Path(chorus.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"chorus was imported from {where}, not from {src}")
    return chorus.cli


def run_op(cli, op, tracer):
    """(seconds, exit code or None, stdout, stderr, crash description)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        return cli.main(op.argv)

    crash = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.run_op(op.index, f"cli.{op.command}", call) if tracer else call()
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # any crash is a failed op, named by input and type
        code = None
        frames = traceback.extract_tb(exc.__traceback__)
        where = ([f for f in frames if Path(f.filename).parent.name == "chorus"] or frames)[-1]
        crash = f"crash {type(exc).__name__} at {Path(where.filename).name}:{where.lineno}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue(), crash


def main(argv) -> int:
    workload, seed, mode, smoke = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    calibrate()  # warm-up, not counted
    before = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    start = time.perf_counter()
    cli = import_cli()
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(workload, seed, smoke)
        ops = workloads.make_ops(workload, inputs, workdir, seed)
        tracer = None
        if mode == "traced":
            tracer = layers.Tracer()
            from chorus.surface import tokenize
            tracer.tokens = {inp.cc_text: len(tokenize(inp.cc_text)) for inp in inputs}
            tracer.install()
        setup_s = time.perf_counter() - start
        after = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
        report = {"setup_s": setup_s, "setup_cal": [before, after]}
        if mode == "setup":
            print(json.dumps(report))
            return 0

        results, failures, cal = [], [], []
        for op in ops:
            cal.append(calibrate())
            seconds, code, out, err, crash = run_op(cli, op, tracer)
            if crash:
                ok, wrong, reason, work = False, False, crash, 0
            else:
                ok, wrong, reason, work = workloads.check(op, code, out, err)
            results.append((seconds, ok, work))
            if not ok:
                command = " ".join(Path(a).name if a.startswith(str(workdir)) else a
                                   for a in op.argv)
                failures.append({"input": op.inp.name, "command": command,
                                 "reason": reason, "wrong": wrong})
        cal.append(calibrate())
        report.update({
            "cal": cal,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": [[s, ok, work, op.command] for (s, ok, work), op in zip(results, ops)],
            "failures": failures,
        })
        if tracer is not None:
            report["layers"] = layers.layer_metrics(tracer, ops, results)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{workload}-{seed}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
