"""Benchmark for chorus: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload verify_corpus --seed 1 --seconds 35 --trace 0

Load is a closed loop with one caller: one CLI operation at a time, in
process, through ``chorus.cli.main``.  A run is a sequence of passes; each
pass is a fresh worker process (``worker.py``) that imports ``chorus`` from
``src``, generates the seeded inputs and gives each of them exactly once,
so no module-level cache carries over from one pass to the next.  Passes
repeat until ``--seconds`` have gone by and at least three passes ran.
Before them, set-up-only workers time the set-up a few more times.

Every time is scaled to a fixed host speed (see ``scaled``), so that a
shared host running slower or faster for a while does not move the figures.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the result holds the per-layer metrics, medians over traced passes.
Failed ops are named on standard error.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

# Each pass has at least 40 ops, so p75 has at least ten samples beyond it.
TAIL_PERCENTILE = 75
MIN_PASSES = 3
SETUP_RUNS = 4  # set-up-only workers before the passes
# ``worker.calibrate`` takes this long on the reference host; times are
# scaled by CAL_REF_S over what it took next to them.
CAL_REF_S = 0.002
INF_MS = 1e9  # stands for +inf: JSON has no infinity
RUN_LIMIT_S = 175  # a run ends within this, or fails
RUN_BUDGET_S = 150  # no new pass starts once a run could exceed this

WORK_NAMES = {
    "verify_corpus": ("verify_configs_per_s", "configurations/s"),
    "project_scale": ("project_interactions_per_s", "interactions/s"),
    "run_scale": ("steps_per_s", "steps/s"),
}


class WorkerFailed(Exception):
    pass


def run_pass(workload: str, seed: int, mode: str, smoke: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode,
           "1" if smoke else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """(set-ups, untraced passes, traced passes); passes repeat until
    ``seconds`` have gone by and at least ``MIN_PASSES`` untraced passes ran."""
    start = time.perf_counter()
    setups = [run_pass(workload, seed, "setup", smoke, RUN_LIMIT_S)
              for _ in range(1 if smoke else SETUP_RUNS)]
    plain, traced = [], []
    longest = 0.0
    while True:
        began = time.perf_counter()
        # Traced and untraced passes take turns going first.
        kinds = [False, True] if trace else [False]
        if len(plain) % 2:
            kinds.reverse()
        for kind in kinds:
            timeout = RUN_LIMIT_S - (time.perf_counter() - start)
            mode = "traced" if kind else "plain"
            (traced if kind else plain).append(run_pass(workload, seed, mode, smoke, timeout))
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if smoke or elapsed + longest > RUN_BUDGET_S:
            break
        if elapsed >= seconds and len(plain) >= MIN_PASSES:
            break
    return setups, plain, traced


def nearest_rank(sorted_values, percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` measured while ``worker.calibrate`` took ``calibration``,
    scaled to the reference host, on which it takes ``CAL_REF_S``."""
    return seconds * CAL_REF_S / calibration


def quiet_time(samples) -> float:
    """One time from repeats ``(seconds, calibration before, calibration
    after)`` of the same work: each repeat is scaled by the mean of its two
    calibrations, and the result is the median over the half of the repeats
    whose slower calibration was quickest, when the host was quietest."""
    quiet = sorted(samples, key=lambda s: max(s[1], s[2]))[:math.ceil(len(samples) / 2)]
    return statistics.median(scaled(s, (before + after) / 2) for s, before, after in quiet)


def op_times(passes):
    """Each op's time over the passes; see ``quiet_time``."""
    return [quiet_time([(p["ops"][i][0], p["cal"][i], p["cal"][i + 1]) for p in passes])
            for i in range(len(passes[0]["ops"]))]


def end_to_end(workload: str, setups, passes) -> dict:
    """End-to-end metrics of a run; times are scaled to the reference host.

    Every op is timed once per pass and its time comes from the passes by
    ``quiet_time``, as does set-up time from the set-up-only workers and
    the passes.  An op that failed in any pass has latency +inf.
    """
    count = len(passes[0]["ops"])
    times = op_times(passes)
    ok = [all(p["ops"][i][1] for p in passes) for i in range(count)]
    work = [passes[0]["ops"][i][2] if ok[i] else 0 for i in range(count)]
    command = [passes[0]["ops"][i][3] for i in range(count)]
    latencies = sorted(t * 1000 if good else math.inf for t, good in zip(times, ok))

    def finite(value):
        return value if math.isfinite(value) else INF_MS

    def rate(commands):
        chosen = [i for i in range(count) if command[i] in commands]
        return sum(work[i] for i in chosen) / sum(times[i] for i in chosen)

    attempted = count * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    setup = quiet_time([(p["setup_s"], *p["setup_cal"]) for p in setups + passes])
    metrics = {
        "setup_s": (setup, "s"),
        "ops_ok": (1 - failed / attempted, "ratio"),
        "latency_p50_ms": (finite(statistics.median(latencies)), "ms"),
        "latency_tail_ms": (finite(nearest_rank(latencies, TAIL_PERCENTILE)), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "work_per_s": (rate(set(command)), "1/s"),
    }
    beyond = count - math.ceil(TAIL_PERCENTILE / 100 * count)
    work_name, work_unit = WORK_NAMES[workload]
    print(f"{workload}: {len(passes)} passes of {count} ops, {failed} failed ops")
    print(f"latencies: quietest half of {len(passes)} passes for each of the {count} ops; "
          f"latency_tail_ms is p{TAIL_PERCENTILE} ({beyond} ops beyond it)")
    raw = sorted(statistics.median(p["ops"][i][0] for p in passes) * 1000 for i in range(count))
    print(f"unscaled medians: op {statistics.median(raw):.2f} ms, "
          f"set-up {statistics.median(p['setup_s'] for p in setups + passes):.4f} s, "
          f"calibration median {statistics.median(c for p in passes for c in p['cal']) * 1000:.3f} ms "
          f"(reference {CAL_REF_S * 1000:g} ms)")
    print(f"work_per_s is {work_name} ({work_unit})")
    if workload == "run_scale":
        for name in ("run", "simulate"):
            print(f"  {name}_steps_per_s {rate({name}):.1f} steps/s")
    return metrics


def per_layer(plain, traced) -> dict:
    values = {}
    for name, unit in layers.PER_LAYER:
        got = [p["layers"][name] for p in traced if name in p["layers"]]
        if name == "trace.overhead":
            got = [sum(op_times(traced)) / sum(op_times(plain))]
        if not got:
            print(f"{name}: absent")
            continue
        values[name] = (statistics.median(got), unit)
    return values


def report_failures(passes) -> None:
    seen = {}
    for p in passes:
        for f in p["failures"]:
            key = (f["input"], f["command"], f["reason"], f["wrong"])
            seen[key] = seen.get(key, 0) + 1
    for (inp, command, reason, wrong), count in sorted(seen.items()):
        kind = "WRONG" if wrong else "failed"
        print(f"{kind} op x{count}: {inp}: chorus {command}: {reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chorus" / "cli.py").is_file():
        print(f"no chorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        setups, plain, traced = run_passes(args.workload, args.seed, args.seconds,
                                           bool(args.trace), False)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    every = plain + traced
    report_failures(every)
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(args.workload, setups, plain))
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    result = {
        "correct": not any(f["wrong"] for p in every for f in p["failures"]),
        "attempted": sum(len(p["ops"]) for p in every),
        "failed": sum(len(p["failures"]) for p in every),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
