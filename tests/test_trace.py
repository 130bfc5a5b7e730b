"""The benchmark's tracer (`bench/spans.py`) still finds and counts every
layer it wraps, so that a renamed or deleted function breaks a test here
rather than the traced benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import shiftopt
import shiftopt.cli

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_counts(tmp_path):
    spans = _load_spans()
    originals = {(m, f): getattr(sys.modules[m], f) for m, f, _, _ in spans.TARGETS}
    sc = shiftopt.Scenario(T=24, N=3, s=2, delta=4, beta=2, d_max=3.0, a=2.0, c_veh=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "plan", "scenario": {
        "T": 24, "N": 3, "s": 2, "delta": 4, "beta": 2, "d_max": 3.0, "a": 2.0, "c_veh": 3}}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [(m, f) for (m, f), fn in originals.items()
                     if getattr(sys.modules[m], f) is fn]

        def plan_op():
            result = shiftopt.plan(sc)
            shiftopt.relative_gap(result.plan, sc)
            swaps: list = []
            assigned = shiftopt.greedy_assign(result.plan, sc)
            balanced = shiftopt.rebalance(assigned, sc.s, trace=swaps)
            assert shiftopt.verify_roster(balanced, result.plan, sc).ok
            shiftopt.plan_baseline(sc, shiftopt.benchmark.service_standard_supply(sc, 0.8))
            return shiftopt.cli.main(["export-lp", "--config", str(config),
                                      "--out", str(tmp_path / "out")])

        code = tracer.run_op(0, plan_op)
    finally:
        tracer.remove()
    assert unwrapped == []
    assert all(getattr(sys.modules[m], f) is fn for (m, f), fn in originals.items())
    assert code == 0
    counts = tracer.counts[0]
    for name in ("milp.solves", "piecewise.pieces", "roster.drivers", "milp.highs.nnz",
                 "export.bytes", "cli.files_written"):
        assert counts[name] > 0, name
    assert counts["roster.drivers"] == sc.N
    # greedy_assign already balances a plan, so rebalance moves no shift
    assert "roster.swaps" in counts and counts["roster.swaps"] == 0
