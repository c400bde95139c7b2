"""Span recorder for the traced run.

The tracer wraps the package functions the workloads call (the ``api``
namespace) and patches the seams where one layer of the package calls
another.  Each call leaves one span: name, start, end, parent span, case
id and a few counts taken from its arguments or result.  Spans stay in
memory; each traced pass is folded into per-pass sums when it ends, and
the first pass's spans are written out with the run's results.  An
untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from types import SimpleNamespace

from sspforge.problems import ProblemKind, universe_size

# api attribute -> span name, for the benchmark's own calls into each layer.
API_SPANS = {
    "build_blowup": "reductions.build",
    "build_preserving": "reductions.build",
    "check_ssp": "reductions.check",
    "check_blowup": "reductions.check",
    "check_artifact": "reductions.check",
    "artifact_to_doc": "serialize",
    "dumps": "serialize",
    "loads": "serialize",
    "artifact_from_doc": "serialize",
    "solve_radjsat": "rr.game",
    "radjsat_to_comb_rr": "rr.pipeline_build",
    "comb_to_cost_rr": "rr.pipeline_build",
    "eval_comb_rr": "rr.eval_comb",
    "eval_cost_rr": "rr.eval_cost",
}

# (module, attribute, span name) for the seams inside the package.
SEAMS = (
    ("sspforge.reductions.checks", "enumerate_solutions", "problems.enumerate"),
    ("sspforge.reductions.checks", "check_ssp", "reductions.check"),
    ("sspforge.rr", "enumerate_solutions", "problems.enumerate"),
    ("sspforge.rr", "enumerate_feasible", "problems.feasible"),
    ("sspforge.rr", "enumerate_scenarios", "rr.scenarios"),
    ("sspforge.rr", "build_blowup", "reductions.build"),
)

KINDS = [k.value for k in ProblemKind]
# the only kind whose feasible family any workload asks for
FEASIBLE_KINDS = ["subsetsum"]

# Every per-layer metric the traced run reports, with its unit.  Times and
# counts are per pass, except gen.s (once per run).
LAYER_METRICS = (
    [
        ("problems.enumerate.s", "s"),
        ("problems.enumerate.calls", "count"),
        ("problems.enumerate.solutions", "count"),
        ("problems.enumerate.repeat_share", "share"),
    ]
    + [(f"problems.enumerate.{k}.{m}", u) for k in KINDS for m, u in (("s", "s"), ("solutions", "count"))]
    + [("problems.feasible.s", "s"), ("problems.feasible.sets", "count")]
    + [(f"problems.feasible.{k}.s", "s") for k in FEASIBLE_KINDS]
    + [
        ("rr.eval_cost.self_s", "s"),
        ("rr.eval_comb.self_s", "s"),
        ("rr.scenarios", "count"),
        ("rr.game.s", "s"),
        ("rr.pipeline_build.s", "s"),
        ("serialize.s", "s"),
        ("serialize.bytes", "count"),
        ("reductions.build.s", "s"),
        ("reductions.build.target_elems", "count"),
        ("reductions.check.self_s", "s"),
        ("reductions.check.pairs", "count"),
        ("gen.s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

# span fields, in the order they are stored and written
FIELDS = ("name", "start", "end", "parent", "case", "attrs")


class Tracer:
    """Spans of the current traced pass, folded into per-pass sums by
    ``end_pass``; the first pass's spans are kept for writing out."""

    def __init__(self):
        self.spans = []
        self.first_pass = None
        self.passes = 0
        self._stack = []
        self._case = None
        self._seen = set()  # enumeration requests made in the current pass
        self._patched = []
        self._sums = defaultdict(float)
        self._rows = defaultdict(lambda: [0, 0.0, 0.0])

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._case, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def wrap_case(self, run_case):
        """The workload's case function, recorded as the root span of each
        case."""
        traced = self.wrap("case", run_case)

        def case(api, case_id, args):
            self._case = case_id
            try:
                return traced(api, case_id, args)
            finally:
                self._case = None

        return case

    def install(self, api):
        """Patch the package seams and return a traced copy of ``api``."""
        for module_name, attr, name in SEAMS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, self._attrs(name, attr)))
        self._seen.clear()
        return SimpleNamespace(
            **{
                attr: self.wrap(API_SPANS[attr], fn, self._attrs(API_SPANS[attr], attr))
                if attr in API_SPANS
                else fn
                for attr, fn in vars(api).items()
            }
        )

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _attrs(self, name, attr):
        if name == "problems.enumerate":
            seen = self._seen

            def enumerate_attrs(args, kwargs, out):
                key = (args, tuple(sorted(kwargs.items())))
                repeat = key in seen
                seen.add(key)
                return {"kind": args[0].value, "n": len(out), "repeat": repeat}

            return enumerate_attrs
        if name == "problems.feasible":
            return lambda args, kwargs, out: {"kind": args[0].value, "n": len(out)}
        if name == "rr.scenarios":
            return lambda args, kwargs, out: {"n": len(out)}
        if attr in ("build_blowup", "build_preserving"):
            return lambda args, kwargs, out: {"elems": universe_size(out.target)}
        if attr == "check_blowup":
            return lambda args, kwargs, out: {
                "pairs": out.target_solutions * (out.target_solutions + 1) // 2
            }
        if attr == "dumps":
            return lambda args, kwargs, out: {"bytes": len(out.encode())}
        return None

    def end_pass(self):
        """Fold the pass's spans into the sums and empty the list."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        m = self._sums
        for (name, t0, t1, _, _, attrs), child_s in zip(self.spans, child):
            dur = t1 - t0
            self_s = dur - child_s  # the time no child span covers
            row = self._rows[name]
            row[0] += 1
            row[1] += dur
            row[2] += self_s
            attrs = attrs or {}
            if name == "problems.enumerate":
                kind = attrs["kind"]
                m["problems.enumerate.s"] += dur
                m["problems.enumerate.calls"] += 1
                m["problems.enumerate.solutions"] += attrs["n"]
                m[f"problems.enumerate.{kind}.s"] += dur
                m[f"problems.enumerate.{kind}.solutions"] += attrs["n"]
                m["repeats"] += attrs["repeat"]
            elif name == "problems.feasible":
                m["problems.feasible.s"] += dur
                m["problems.feasible.sets"] += attrs["n"]
                m[f"problems.feasible.{attrs['kind']}.s"] += dur
            elif name == "rr.scenarios":
                m["rr.scenarios"] += attrs["n"]
            elif name in ("rr.eval_cost", "rr.eval_comb"):
                m[f"{name}.self_s"] += self_s
            elif name == "serialize":
                m["serialize.s"] += dur
                m["serialize.bytes"] += attrs.get("bytes", 0)
            elif name in ("rr.game", "rr.pipeline_build"):
                m[f"{name}.s"] += dur
            elif name == "reductions.build":
                m["reductions.build.s"] += dur
                m["reductions.build.target_elems"] += attrs.get("elems", 0)
            elif name == "reductions.check":
                m["reductions.check.self_s"] += self_s
                m["reductions.check.pairs"] += attrs.get("pairs", 0)
        if self.first_pass is None:
            self.first_pass = list(self.spans)
        self.spans.clear()  # the wrappers hold this list
        self.passes += 1

    def table(self):
        """Rows of (span name, calls, total s, self s) per pass, by self
        time."""
        n = self.passes
        rows = ((k, c / n, t / n, s / n) for k, (c, t, s) in self._rows.items())
        return sorted(rows, key=lambda r: -r[3])

    def layer_metrics(self, gen_s: float, overhead_s: float):
        """Every LAYER_METRICS value, per traced pass."""
        out = {k: v / self.passes for k, v in self._sums.items()}
        calls = self._sums["problems.enumerate.calls"]
        out["problems.enumerate.repeat_share"] = self._sums["repeats"] / calls if calls else 0.0
        out["gen.s"] = gen_s
        out["trace.overhead_s"] = overhead_s
        return {name: {"value": out.get(name, 0.0), "unit": unit} for name, unit in LAYER_METRICS}

    def write(self, path):
        """Write the first traced pass's spans as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.first_pass}, fh, separators=(",", ":"))
