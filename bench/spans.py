"""Spans around calls into each layer of `shiftopt`, recorded from outside.

`Tracer.install` replaces public functions with timing wrappers in every
`shiftopt` module that holds them, so names imported by name (for example
`planner.demand_vector` or `cli.export_lp`) are wrapped too. The per-element
`reward()` and `demand_at()` are never wrapped: called once per time step and
chord node, their wrapper cost would swamp what they measure.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("domain", "piecewise", "planner", "milp", "milp.highs", "export",
          "benchmark", "roster", "cli", "bench")


def _highs(counts, res, args, kwargs):
    counts["milp.highs.iterations"] += res.nit
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    for a in (a_ub, a_eq):
        if a is not None:
            counts["milp.highs.rows"] += a.shape[0]
            counts["milp.highs.nnz"] += a.nnz
    counts["milp.highs.cols"] += len(args[0])


def _pieces(counts, res, args, kwargs):
    counts["piecewise.pieces"] += len(res.pieces)


def _solve(counts, res, args, kwargs):
    counts["milp.solves"] += 1
    counts["milp.nodes"] += res.nodes_explored


def _export(counts, res, args, kwargs):
    counts["export.bytes"] += len(res.encode())


def _rebalance(counts, res, args, kwargs):
    trace = kwargs.get("trace")
    if trace is not None:
        counts["roster.swaps"] += len(trace)
    counts["roster.drivers"] += res.n_drivers


def _cli(counts, res, args, kwargs):
    argv = args[0]
    out_dir = argv[argv.index("--out") + 1]
    for name in os.listdir(out_dir) if os.path.isdir(out_dir) else ():
        counts["cli.files_written"] += 1
        counts["cli.bytes_written"] += os.path.getsize(os.path.join(out_dir, name))


# (module, function, layer, counter hook run after the call)
TARGETS = (
    ("shiftopt.domain", "demand_vector", "domain", None),
    ("shiftopt.domain", "supply_curve", "domain", None),
    ("shiftopt.domain", "total_reward", "domain", None),
    ("shiftopt.piecewise", "concavify_reward", "piecewise", _pieces),
    ("shiftopt.piecewise", "convexify_sq_dev", "piecewise", _pieces),
    ("shiftopt.planner", "plan", "planner", None),
    ("shiftopt.planner", "plan_baseline", "planner", None),
    ("shiftopt.planner", "build_reward_mip", "planner", None),
    ("shiftopt.planner", "build_deviation_mip", "planner", None),
    ("shiftopt.milp", "milp_solve", "milp", _solve),
    ("shiftopt.milp", "lp_solve", "milp", None),
    ("shiftopt.milp", "linprog", "milp.highs", _highs),
    ("shiftopt.milp", "export_lp", "export", _export),
    ("shiftopt.benchmark", "agnostic_optimum_closed_form", "benchmark", None),
    ("shiftopt.benchmark", "water_fill", "benchmark", None),
    ("shiftopt.benchmark", "relative_gap", "benchmark", None),
    ("shiftopt.benchmark", "service_standard_supply", "benchmark", None),
    ("shiftopt.benchmark", "economic_standard_supply", "benchmark", None),
    ("shiftopt.roster", "greedy_assign", "roster", None),
    ("shiftopt.roster", "rebalance", "roster", _rebalance),
    ("shiftopt.roster", "verify_roster", "roster", None),
    ("shiftopt.roster", "roster_to_csv", "roster", None),
    ("shiftopt.cli", "main", "cli", _cli),
)


class Tracer:
    """In-memory spans [layer, start, end, parent span, op id], and counts per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[int, defaultdict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, layer, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            counts = self.counts[self.op]
            counts[layer + ".calls"] += 1
            if hook is not None:
                hook(counts, res, args, kwargs)
            return res

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "shiftopt" or n.startswith("shiftopt.")]
        for mod_name, attr, layer, hook in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(layer, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))

    def remove(self) -> None:
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation inside a root span of layer `bench`."""
        self.op = op
        return self._wrap("bench", fn, None)(*args)

    def summary(self, ops: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per layer (span time minus child span time) and counts,
        summed over the spans of the given operations; each operation's
        times are multiplied by its factor in `ops`."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, start, end, _, op) in enumerate(self.spans):
            if op in ops:
                self_s[layer] += (end - start - child[i]) * ops[op]
        counts: defaultdict[str, float] = defaultdict(float)
        for op in ops:
            for name, v in self.counts[op].items():
                counts[name] += v
        return self_s, counts

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
