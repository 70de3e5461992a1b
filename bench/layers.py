"""Per-layer tracing for the traced run.

``Tracer.install`` replaces, in the worker process only, each name that one
``chorus`` module bound at import from another (``chorus.cli.epp``,
``chorus.verification.cc_enabled``, ...) with a wrapper that records a span.
The callee's own recursion goes through its module's unwrapped name, so
only the calls that cross a module boundary are recorded.  A name that no
longer exists is skipped and its metrics read 0.

Spans are tuples ``(op, id, parent, name, start, end)`` kept in memory and
written out once the pass has ended.  Counts that belong to a boundary
(transitions returned, processes projected, tokens parsed, failures) are
recorded by the same wrappers.
"""
from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

# (module, name bound in it, span name)
BOUNDARIES = (
    ("chorus.cli", "parse_cc_file", "surface.parse_cc"),
    ("chorus.cli", "parse_sp_file", "surface.parse_sp"),
    ("chorus.cli", "print_sp", "surface.print_sp"),
    ("chorus.cli", "print_behaviour", "surface.print_behaviour"),
    ("chorus.cli", "program_wf_dec", "choreography.program_wf_dec"),
    ("chorus.cli", "epp", "projection.epp"),
    ("chorus.cli", "cc_enabled", "chor_semantics.cc_enabled"),
    ("chorus.cli", "sp_enabled", "proc_semantics.sp_enabled"),
    ("chorus.cli", "transition_to_json", "labels.to_json"),
    ("chorus.cli", "rich_to_json", "labels.to_json"),
    ("chorus.cli", "state_to_json", "values.state_to_json"),
    ("chorus.cli", "check_property", "verification.check_property"),
    ("chorus.verification", "cc_enabled", "chor_semantics.cc_enabled"),
    ("chorus.verification", "cc_step", "chor_semantics.cc_step"),
    ("chorus.verification", "sp_enabled", "proc_semantics.sp_enabled"),
    ("chorus.verification", "sp_step", "proc_semantics.sp_step"),
    ("chorus.verification", "epp", "projection.epp"),
    ("chorus.verification", "epp_c", "projection.epp_c"),
    ("chorus.verification", "more_branches_net", "projection.more_branches_net"),
    ("chorus.verification", "str_proj_p", "projection.str_proj_p"),
    ("chorus.verification", "program_wf", "choreography.program_wf"),
    ("chorus.projection", "program_wf", "choreography.program_wf"),
)

PHASES = ("complete", "sound", "determinism", "diamond", "progress", "termination")

# Exponent metrics: (span name, command whose ops are fitted, families).
EXPONENTS = (
    ("projection.epp", "project", ("straight", "wide", "chain")),
    ("chor_semantics.cc_enabled", "run", ("straight", "wide", "loop")),
    ("proc_semantics.sp_enabled", "simulate", ("straight", "wide", "loop")),
)

# Every per-layer metric with its unit.  Times are seconds per pass.
PER_LAYER = [
    ("surface.parse_cc.calls", "count"), ("surface.parse_cc.s", "s"),
    ("surface.parse_cc.tokens_per_s", "1/s"), ("surface.parse_sp.s", "s"),
    ("surface.print_sp.s", "s"),
    ("choreography.program_wf_dec.s", "s"),
    ("choreography.program_wf.calls", "count"), ("choreography.program_wf.s", "s"),
    ("projection.epp.calls", "count"), ("projection.epp.s", "s"),
    ("projection.epp.failures", "count"),
    ("projection.bproj.hit_ratio", "ratio"), ("projection.bproj.entries", "count"),
    ("projection.epp_c.calls", "count"), ("projection.epp_c.processes", "count"),
    ("projection.epp_c.s", "s"), ("projection.more_branches_net.s", "s"),
    ("projection.str_proj_p.s", "s"),
    ("chor_semantics.cc_enabled.calls", "count"), ("chor_semantics.cc_enabled.s", "s"),
    ("chor_semantics.cc_enabled.us_per_call", "us"),
    ("chor_semantics.cc_enabled.transitions", "count"),
    ("chor_semantics.cc_enabled.run_share.straight", "ratio"),
    ("chor_semantics.cc_step.calls", "count"), ("chor_semantics.cc_step.s", "s"),
    ("proc_semantics.sp_enabled.calls", "count"), ("proc_semantics.sp_enabled.s", "s"),
    ("proc_semantics.sp_enabled.us_per_call", "us"),
    ("proc_semantics.sp_step.calls", "count"), ("proc_semantics.sp_step.s", "s"),
    ("labels.to_json.s", "s"), ("values.state_to_json.s", "s"),
    *[(f"verification.{phase}.s", "s") for phase in PHASES],
    ("verification.self_s", "s"), ("verification.configs", "count"),
    ("verification.cc_enabled_per_config", "ratio"),
    ("cli.self_s", "s"),
    *[(f"{span}.exponent.{family}", "ratio")
      for span, _, families in EXPONENTS for family in families],
    ("trace.overhead", "ratio"),
]

# Present only while projection keeps an lru_cache; absent, not zero, after.
CACHE_METRICS = ("projection.bproj.hit_ratio", "projection.bproj.entries")


class CacheWatch:
    """Hit and miss totals of an ``lru_cache`` that the program clears."""

    def __init__(self, fn):
        self.fn = fn
        self.hits = self.misses = self.peak = 0
        self.last = (0, 0)

    def observe(self) -> None:
        info = self.fn.cache_info()
        self.hits += info.hits - self.last[0]
        self.misses += info.misses - self.last[1]
        self.last = (info.hits, info.misses)
        self.peak = max(self.peak, info.currsize)

    def before_clear(self) -> None:
        self.observe()
        self.last = (0, 0)


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.op = -1
        self.counts: Dict[str, int] = defaultdict(int)
        self.tokens: Dict[str, int] = {}
        self.cache = None

    def run_op(self, index: int, name: str, fn):
        """Run one op as a root span; its calls into chorus become children."""
        self.op = index
        return self._wrap(fn, name)()

    def _wrap(self, fn, name: str, on_result=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, start, end)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def install(self) -> None:
        counts = self.counts

        def add(key, amount):
            counts[key] += amount

        hooks = {
            "chor_semantics.cc_enabled": lambda args, res: add("cc_enabled.transitions", len(res)),
            "projection.epp_c": lambda args, res: add("epp_c.processes", len(set(args[1]))),
            "projection.epp": lambda args, res: add("epp.failures",
                                                    type(res).__name__ == "EppFailure"),
            "surface.parse_cc": lambda args, res: add("parse_cc.tokens",
                                                      self.tokens.get(args[0], 0)),
        }
        for module_name, attr, name in BOUNDARIES:
            module = sys.modules[module_name]
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, name, hooks.get(name)))
        verification = sys.modules["chorus.verification"]
        checks = getattr(verification, "_CHECKS", None)
        if isinstance(checks, dict):
            for key, fn in list(checks.items()):
                checks[key] = self._wrap(fn, f"verification.{key}")
        projection = sys.modules["chorus.projection"]
        bproj = getattr(projection, "bproj", None)
        if hasattr(bproj, "cache_info"):
            self.cache = CacheWatch(bproj)
            clear = getattr(verification, "clear_projection_cache", None)
            if callable(clear):
                def observed_clear(*args, _clear=clear, **kwargs):
                    self.cache.before_clear()
                    return _clear(*args, **kwargs)
                verification.clear_projection_cache = observed_clear

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tid\tparent\tname\tstart\tend\n")
            for op, sid, parent, name, start, end in self.spans:
                handle.write(f"{op}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _slope(points: List[Tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def layer_metrics(tracer: Tracer, ops, results) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``results`` holds, per op, ``(seconds, ok, work)``.  Layers a workload
    does not reach read 0; exponents need two sizes of a family.
    """
    spans = tracer.spans
    child = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    per_op = defaultdict(float)  # (op, name) -> inclusive seconds
    for op, sid, _, name, start, end in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child[sid]
        per_op[(op, name)] += dur
    counts = tracer.counts
    verify_ops = {op.index for op in ops if op.command == "verify"}
    configs = sum(results[i][2] for i in verify_ops if results[i][1])
    cc_in_verify = sum(1 for op, _, _, name, _, _ in spans
                       if name == "chor_semantics.cc_enabled" and op in verify_ops)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "surface.parse_cc.calls": calls["surface.parse_cc"],
        "surface.parse_cc.s": total["surface.parse_cc"],
        "surface.parse_cc.tokens_per_s":
            ratio(counts["parse_cc.tokens"], total["surface.parse_cc"]),
        "surface.parse_sp.s": total["surface.parse_sp"],
        "surface.print_sp.s": total["surface.print_sp"],
        "choreography.program_wf_dec.s": total["choreography.program_wf_dec"],
        "choreography.program_wf.calls": calls["choreography.program_wf"],
        "choreography.program_wf.s": total["choreography.program_wf"],
        "projection.epp.calls": calls["projection.epp"],
        "projection.epp.s": total["projection.epp"],
        "projection.epp.failures": counts["epp.failures"],
        "projection.epp_c.calls": calls["projection.epp_c"],
        "projection.epp_c.processes": counts["epp_c.processes"],
        "projection.epp_c.s": total["projection.epp_c"],
        "projection.more_branches_net.s": total["projection.more_branches_net"],
        "projection.str_proj_p.s": total["projection.str_proj_p"],
        "chor_semantics.cc_enabled.calls": calls["chor_semantics.cc_enabled"],
        "chor_semantics.cc_enabled.s": total["chor_semantics.cc_enabled"],
        "chor_semantics.cc_enabled.us_per_call":
            1e6 * ratio(total["chor_semantics.cc_enabled"], calls["chor_semantics.cc_enabled"]),
        "chor_semantics.cc_enabled.transitions": counts["cc_enabled.transitions"],
        "chor_semantics.cc_step.calls": calls["chor_semantics.cc_step"],
        "chor_semantics.cc_step.s": total["chor_semantics.cc_step"],
        "proc_semantics.sp_enabled.calls": calls["proc_semantics.sp_enabled"],
        "proc_semantics.sp_enabled.s": total["proc_semantics.sp_enabled"],
        "proc_semantics.sp_enabled.us_per_call":
            1e6 * ratio(total["proc_semantics.sp_enabled"], calls["proc_semantics.sp_enabled"]),
        "proc_semantics.sp_step.calls": calls["proc_semantics.sp_step"],
        "proc_semantics.sp_step.s": total["proc_semantics.sp_step"],
        "labels.to_json.s": total["labels.to_json"],
        "values.state_to_json.s": total["values.state_to_json"],
        "verification.self_s": sum(self_s[f"verification.{p}"] for p in PHASES)
                               + self_s["verification.check_property"],
        "verification.configs": configs,
        "verification.cc_enabled_per_config": ratio(cc_in_verify, configs),
        "cli.self_s": sum(self_s[n] for n in self_s if n.startswith("cli.")),
    }
    for phase in PHASES:
        m[f"verification.{phase}.s"] = total[f"verification.{phase}"]

    run_straight = [op.index for op in ops
                    if op.command == "run" and op.inp.family == "straight" and results[op.index][1]]
    m["chor_semantics.cc_enabled.run_share.straight"] = ratio(
        sum(per_op[(i, "chor_semantics.cc_enabled")] for i in run_straight),
        sum(per_op[(i, "cli.run")] for i in run_straight))

    for span, command, families in EXPONENTS:
        for family in families:
            by_size = defaultdict(list)
            for op in ops:
                if op.command == command and op.inp.family == family and results[op.index][1]:
                    by_size[op.inp.size].append(per_op[(op.index, span)])
            points = [(size, sum(ts) / len(ts)) for size, ts in by_size.items() if min(ts) > 0]
            m[f"{span}.exponent.{family}"] = _slope(points) if len(points) >= 2 else 0.0

    if tracer.cache is not None:
        tracer.cache.observe()
        m["projection.bproj.hit_ratio"] = ratio(tracer.cache.hits,
                                                tracer.cache.hits + tracer.cache.misses)
        m["projection.bproj.entries"] = tracer.cache.peak
    return m
