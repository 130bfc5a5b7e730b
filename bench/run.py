"""Benchmark of shiftopt: three seeded workloads through the public API.

    python3 bench/run.py --workload small-plans --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One process runs a single-threaded closed loop: the next operation starts
only when the previous one has returned. Workloads (see workloads.py):

  small-plans  150 scenarios of 1..7 days and 5..20 drivers; one operation is
               plan -> relative_gap -> roster (roster for zero-padded only).
               Python model assembly and sparse conversion are a large share.
  large-fleet  week scenarios at N = 100, 200, 300, 400 with c_veh = N, same
               operation. HiGHS and the model size dominate.
  cli-studies  in-process `shiftopt.cli.main`: compare over N = 4..50, sweep
               over N = 5..100, export-lp at N = 400. The only workload on the
               deviation MIP, the file writes and the LP export.

After one untimed warm-up operation, the timed phase runs MIN_PASSES passes
over the operations in order, then, until --seconds have passed, extra runs
of the least-run operations, shortest first, that fit in the time left. The
shared host's speed drifts by up to 2x over seconds to minutes, so each run
of an operation is scaled to the reference host speed by a calibration
kernel timed next to it (see hostspeed.py). Each operation's latency is its
fastest scaled run, and wall_s is one pass with every operation at that
latency. Set-up runs are scaled the same way. All times are seconds at the
reference speed; the lines above the result also give the raw setup_s,
wall_s and op_p50_s and the host's speed. With --trace 0 the last line holds
the end-to-end metrics; with --trace 1 MIN_PASSES traced passes follow, and
the last line holds the per-layer metrics (see spans.py). Every output is
checked (see checks.py) after the timed phases. The lines above the result
give every metric by name with its unit, including op_tail_s and
failed_ratio, the host and the input digest. Timing uses only in-process
time.perf_counter: no cache dropping, CPU pinning or machine-wide tracing.
BLAS and OpenMP pools are limited to one thread. The full report and the
spans are written to bench/out/.
"""

from __future__ import annotations

import os

# One thread per process: a closed loop on a two-core host. Set before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import REF_S, SHARE, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 3
SETUP_KERNEL_S = 0.1  # calibration kernel time before and after each set-up run
# Each operation's fastest of at least MIN_PASSES scaled runs: the scaling
# follows the host's drift, the minimum filters what the kernel missed.
# Extra runs go to short operations first: a scaled run still varies by
# about 8%, and short operations decide op_p50_s.
MIN_PASSES = 2
MIN_TAIL_BEYOND = 10  # a reported percentile has at least this many samples above it

SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import shiftopt, shiftopt.cli
import workloads
print(workloads.Workload({name!r}, {seed!r}).digest)
"""


def host_info() -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "timing": "in-process time.perf_counter only; no cache dropping, "
                  "CPU pinning or machine-wide tracing",
    }


def setup_times(name: str, seed: int, expected_digest: str) -> dict:
    """Fresh interpreter -> shiftopt and shiftopt.cli imported, inputs generated.
    The calibration kernel runs before and after each interpreter, and each
    set-up time is scaled to the reference speed like an operation."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    speed = HostSpeed()
    raw, spans, bad = [], [], []
    for _ in range(SETUP_RUNS):
        speed.sample(SETUP_KERNEL_S)
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        end = perf_counter()
        raw.append(end - start)
        spans.append((start, end))
        if proc.returncode != 0:
            bad.append(f"setup exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif proc.stdout.strip() != expected_digest:
            bad.append("a fresh interpreter generated different inputs")
    speed.sample(SETUP_KERNEL_S)
    scaled = [r * speed.factor(t0, t1) for r, (t0, t1) in zip(raw, spans)]
    return {"scaled": scaled, "raw": raw, "failures": bad}


def timed_passes(w, seconds: float, tracer=None) -> dict:
    """MIN_PASSES passes over the operations in order, then more runs while
    `seconds` have not passed: each time the least-run operation, shortest
    first, that its latest run says will end in time. Between runs, the
    calibration kernel runs for SHARE of the operation time since it last ran."""
    n = len(w)
    speed = HostSpeed()
    raw, spans, outputs = [], [], []
    runs, latest = [0] * n, [0.0] * n
    due = 0.0  # kernel time owed
    deadline = perf_counter() + seconds
    while True:
        if len(raw) < MIN_PASSES * n:
            i = len(raw) % n
        else:
            left = deadline - perf_counter()
            fits = [j for j in range(n) if latest[j] * (1.0 + SHARE) <= left]
            if not fits:
                break
            i = min(fits, key=lambda j: (runs[j], latest[j]))
        if due >= 0.0:
            due -= speed.sample(due)
        t0 = perf_counter()
        try:
            out = tracer.run_op(len(raw), w.run, i) if tracer else w.run(i)
        except Exception:  # counted as a failed operation
            out = traceback.format_exc().strip().splitlines()[-1]
        t1 = perf_counter()
        raw.append(t1 - t0)
        spans.append((t0, t1))
        outputs.append((i, out))
        runs[i] += 1
        latest[i] = t1 - t0
        due += SHARE * (t1 - t0)
    speed.sample(due)
    factors = [speed.factor(t0, t1) for t0, t1 in spans]
    scaled = [r * f for r, f in zip(raw, factors)]
    by_op = [[k for k, (j, _) in enumerate(outputs) if j == i] for i in range(n)]
    best = [min(ks, key=scaled.__getitem__) for ks in by_op]
    return {"factors": factors, "outputs": outputs, "best": best,
            "runs": [[scaled[k] for k in ks] for ks in by_op],
            "best_latencies": [scaled[k] for k in best],
            "best_raw": [raw[k] for k in best], "kernel_s": speed.median_s()}


def check_outputs(w, phases: list[dict]) -> list[str]:
    """One message per failed operation, over every phase."""
    import checks
    import shiftopt

    references: dict[int, float | RuntimeError] = {}

    def reference(i: int) -> float | RuntimeError:
        if i not in references:
            lp = shiftopt.export_lp(shiftopt.build_reward_mip(w.scenarios[i]))
            try:
                references[i] = checks.reference_reward(w.inputs[i], lp)
            except RuntimeError as exc:
                references[i] = exc
        return references[i]

    failures = []
    for phase in phases:
        for i, out in phase["outputs"]:
            if isinstance(out, str):
                bad = [f"raised {out}"]
            elif w.is_cli:
                bad = checks.check_cli_op(w.inputs[i], out)
            elif isinstance(ref := reference(i), RuntimeError):
                bad = [str(ref)]
            else:
                bad = checks.check_plan_op(w.inputs[i], out, ref)
            if bad:
                failures.append(f"op {i}: " + "; ".join(bad))
    return failures


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p90 with >= MIN_TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    for p in (99.9, 99.0, 90.0):
        if len(xs) * (100.0 - p) / 100.0 >= MIN_TAIL_BEYOND:
            return p, xs[math.ceil(p / 100.0 * len(xs)) - 1]
    return None


def end_to_end(setup: list[float], untraced: dict, rss_mb: float) -> dict:
    best = untraced["best_latencies"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_s": (statistics.median(best), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(tracer, traced: dict, untraced: dict) -> dict:
    """Layer self times and counts over each operation's fastest traced run,
    scaled to the reference speed like the run itself."""
    wall = sum(traced["best_latencies"])
    self_s, c = tracer.summary({k: traced["factors"][k] for k in traced["best"]})
    solves = c["milp.solves"]
    metrics = {f"{layer}.s": (self_s[layer], "s") for layer in self_s if layer != "bench"}
    metrics["bench.s"] = (wall - sum(v for v, _ in metrics.values()), "s")
    for name in ("milp.highs.calls", "milp.highs.iterations", "milp.highs.rows",
                 "milp.highs.cols", "milp.highs.nnz", "piecewise.pieces",
                 "milp.solves", "milp.nodes", "domain.calls", "benchmark.calls",
                 "roster.swaps", "roster.drivers", "cli.files_written"):
        metrics[name] = (int(c[name]), "count")
    metrics["export.bytes"] = (int(c["export.bytes"]), "B")
    metrics["cli.bytes_written"] = (int(c["cli.bytes_written"]), "B")
    metrics["milp.lp_calls_per_solve"] = (
        c["milp.highs.calls"] / solves if solves else 0.0, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (wall / sum(untraced["best_latencies"]) - 1.0, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def print_report(report: dict, metrics: dict) -> None:
    lat_n = report["op_samples"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"ops/pass {report['ops_per_pass']}  inputs sha256:{report['inputs_sha256']}")
    print("host " + json.dumps(report["host"]))
    print("phases " + "  ".join(f"{k} {v:.3g} s" for k, v in report["phase_s"].items()))
    runs = [len(r) for r in report["op_runs_s"]]
    notes = {
        "setup_s": f"median of {len(report['setup_s_samples'])} scaled fresh interpreters; "
                   f"raw {statistics.median(report['setup_s_raw']):.6g} s",
        "wall_s": f"one pass, each operation at its fastest of {min(runs)}-{max(runs)} "
                  f"scaled runs; raw {sum(report['op_best_raw_s']):.6g} s",
        "op_p50_s": f"n={lat_n} operations, each at its fastest; "
                    f"raw {statistics.median(report['op_best_raw_s']):.6g} s",
    }
    for name, m in report["end_to_end"].items():
        note = notes.get(name, "")
        if name == "op_tail_s":
            note = f"p{m['percentile']:g}, n={m['samples']}"
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}  {note}")
    print(f"  host speed   {REF_S / report['kernel_s']:.4g} of the reference "
          f"(kernel median {report['kernel_s'] * 1e3:.4g} ms, reference {REF_S * 1e3:g} ms)")
    if "op_tail_s" not in report["end_to_end"]:
        print(f"  op_tail_s    omitted: {lat_n} operations, fewer than "
              f"{MIN_TAIL_BEYOND} beyond p90")
    print(f"  failed_ratio {report['failed_ratio']:.6g}  "
          f"({report['failed']}/{report['attempted']})")
    for msg in report["failures"][:5]:
        print("  FAILED " + msg)
    if "per_layer" in report:
        accounted = 0.0
        for name, m in metrics.items():
            print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
            if name.endswith(".s") and name != "trace.wall_s":
                accounted += m["value"]
        print(f"  layer self times + bench.s = {accounted:.6g} s "
              f"of traced wall_s {metrics['trace.wall_s']['value']:.6g} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("small-plans", "large-fleet", "cli-studies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "shiftopt" / "__init__.py").is_file():
        print(f"error: no shiftopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shiftopt
    import shiftopt.cli  # noqa: F401  (part of what set-up measures)

    if Path(shiftopt.__file__).resolve().parent != SRC / "shiftopt":
        print(f"error: imported shiftopt from {shiftopt.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    clock = [perf_counter()]
    w = workloads.Workload(args.workload, args.seed)
    setup = setup_times(args.workload, args.seed, w.digest)
    clock.append(perf_counter())
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        if w.is_cli:
            w.write_configs(work)
        w.run(w.warmup_index())
        untraced = timed_passes(w, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [untraced]
        clock.append(perf_counter())
        if tracer is not None:
            tracer.install()
            try:
                phases.append(timed_passes(w, 0.0, tracer))
            finally:
                tracer.remove()
        clock.append(perf_counter())
        failures = check_outputs(w, phases)
        clock.append(perf_counter())

    attempted = sum(len(p["outputs"]) for p in phases)
    metrics = end_to_end(setup["scaled"], untraced, rss_mb)
    best = untraced["best_latencies"]
    report = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": len(w),
        "inputs_sha256": w.digest, "host": host_info(),
        "setup_s_samples": setup["scaled"], "setup_s_raw": setup["raw"],
        "op_best_s": best, "op_best_raw_s": untraced["best_raw"],
        "op_runs_s": untraced["runs"],
        "kernel_s": untraced["kernel_s"], "reference_s": REF_S,
        "op_samples": len(best), "end_to_end": dict(metrics),
        "phase_s": dict(zip(("setup", "timed", "traced", "checks"),
                            (b - a for a, b in zip(clock, clock[1:])))),
        "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / attempted, "failures": setup["failures"] + failures,
    }
    t = tail(best)
    if t is not None:
        report["end_to_end"]["op_tail_s"] = {"value": t[1], "unit": "s",
                                             "percentile": t[0], "samples": len(best)}
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        metrics = report["per_layer"] = per_layer(tracer, phases[1], untraced)
        tracer.write(str(OUT_DIR / f"spans-{stem}.json"))
    print_report(report, metrics)
    with open(OUT_DIR / f"report-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": not report["failures"], "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
