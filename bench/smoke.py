"""Smoke check: each workload at the smallest size of each family.

    python3 bench/smoke.py

Runs one untraced and one traced pass per workload and exits non-zero if
any op fails its check or a metric named in BENCHMARK.json is missing.
"""
from __future__ import annotations

import json
import sys

import layers
import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {False: {m["name"] for m in spec["end_to_end"]},
              True: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in run.workloads.WORKLOADS:
        setups, plain, traced = run.run_passes(workload, 0, 0, True, smoke=True)
        failures = [f for p in plain + traced for f in p["failures"]]
        problems += [f"{workload}: {f['input']}: {f['reason']}" for f in failures]
        for trace in (False, True):
            metrics = (run.per_layer(plain, traced) if trace
                       else run.end_to_end(workload, setups, plain))
            missing = wanted[trace] - set(metrics) - set(layers.CACHE_METRICS)
            problems += [f"{workload}: metric {name} missing" for name in sorted(missing)]
            if not trace:
                problems += [f"{workload}: {name} is {value}" for name, (value, _) in
                             metrics.items() if not value > 0]
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
