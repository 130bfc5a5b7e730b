"""Command-line front end: plan, sweep, compare, roster, export-lp.

Reads a JSON experiment config, runs the solver, and writes plot-ready CSV
and JSON files. A config's kind sets the commands that take it and the keys
it may hold besides kind and scenario; any other key is a bad config. Every
file is computed before the first is written, and each is replaced
atomically (temp file + rename): no file is left half written, but an I/O
error part-way keeps the files written before it. `compare` and `sweep` solve
their sweep values on the CPUs that the process may use (`taskset -c 0` makes
them serial); their files, error lines and exit codes are those of one
value after another. Exit codes:
0 ok, 2 bad config, 3 infeasible, 4 I/O error, 5 roster verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import threading

import numpy as np

from . import benchmark, planner, roster as rostering
from .domain import Boundary, Scenario, ShiftPlan, demand_vector, reward_vector
from .milp import PlanningError, export_lp

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
EXIT_VERIFICATION = 5

# kind: (the commands that take it, the keys it reads besides kind and scenario)
_KINDS = {
    "plan": (("plan", "export-lp"), ()),
    "sweep_drivers": (("sweep",), ("sweep_values", "d_max_per_driver", "scale_c_veh")),
    "sweep_shifts_per_driver": (("sweep",), ("sweep_values",)),
    "sweep_shift_length": (("sweep",), ("sweep_values",)),
    "compare_baselines": (("compare",), ("sweep_values", "service_fraction", "economic_cost",
                                         "d_max_per_driver", "robustness_fractions",
                                         "robustness_costs")),
    "roster": (("roster",), ("plan",)),
}
# the roster holds one object per shift: 2**20 of them take about 5 s and 200 MiB
_ROSTER_SHIFTS = 2**20


class ConfigError(Exception):
    pass


class RosterFailure(Exception):
    def __init__(self, detail: str):
        super().__init__(f"roster verification failed: {detail}")


# the exit code of each failure that main reports as one `error: ...` line
_EXIT_CODES = {ConfigError: EXIT_BAD_CONFIG, PlanningError: EXIT_INFEASIBLE, OSError: EXIT_IO,
               RosterFailure: EXIT_VERIFICATION}


def _load_config(path: str, command: str) -> tuple[Scenario, dict]:
    """The Scenario and the config at path, if its kind is one that command
    takes and it holds no key that its kind does not read."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    # ValueError: bad UTF-8 or JSON, or an integer of more than 4300 digits
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("kind")
    kinds = [k for k, (commands, _) in _KINDS.items() if command in commands]
    if kind not in kinds:  # a list, not the table: an unhashable kind is not a TypeError
        raise ConfigError(f"kind must be one of {', '.join(kinds)} for {command}, got {kind!r}")
    for key in config:
        if key not in ("kind", "scenario", *_KINDS[kind][1]):
            raise ConfigError(f"{kind} configs take no key {key!r}")
    if "scenario" not in config:
        raise ConfigError("config is missing the scenario object")
    try:
        return Scenario.from_dict(config["scenario"]), config
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _atomic_write(out_dir: str, filename: str, text: str) -> None:
    tmp = os.path.join(out_dir, f".{filename}.{os.getpid()}")
    # created exclusively, with mode 0666 less the umask as a plain open gives
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, os.path.join(out_dir, filename))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _cmd_plan(scenario: Scenario, config: dict) -> dict[str, str]:
    result = planner.plan(scenario)
    opt = benchmark.agnostic_optimum_closed_form(scenario)
    d = demand_vector(scenario)
    y, z = result.supply.y, result.supply.z
    steps = range(1, scenario.T + 1)
    supply_columns = (d, y.astype(float), z.astype(float), opt.y_star,
                      reward_vector(y, d, scenario.a))
    summary = {
        "sum_x": int(result.plan.total),
        "max_z": int(z.max()),
        "true_reward": result.true_reward,
        "mip_objective": result.mip_objective,
        "r_star": opt.r_star,
        "relative_gap": benchmark.gap(result.true_reward, opt),
        "solve_status": "optimal",  # a plan exists: else PlanningError, exit 3
        "nodes": result.nodes,
    }
    return {
        "plan.csv": _csv_text(["t", "x"], zip(steps, result.plan.x.tolist())),
        "supply.csv": _csv_text(["t", "demand", "y", "z", "y_star", "reward"],
                                zip(steps, *(c.tolist() for c in supply_columns))),
        "summary.json": json.dumps(summary, indent=2) + "\n",
    }


def _number(key: str, v, ok, what: str) -> float:
    """v as a float if it is a finite number (not a bool) passing ok."""
    try:
        x = math.nan if isinstance(v, bool) or not isinstance(v, (int, float)) else float(v)
    except OverflowError:  # an int too large for a float
        x = math.nan
    if not (math.isfinite(x) and ok(x)):
        raise ConfigError(f"{key} must be {what}, got {v!r}")
    return x


def _numbers(config: dict, key: str, ok, what: str, default=None) -> list:
    """config[key] (or the default) as a non-empty list of numbers passing ok."""
    values = config.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key} must be a non-empty list of {what}, got {values!r}")
    return [_number(key, v, ok, what) for v in values]


def _whole(minimum: int):
    return lambda v: v >= minimum and v == int(v)


def _derive(base: Scenario, value: int, **fields) -> Scenario:
    try:
        return dataclasses.replace(base, **fields)
    except ValueError as exc:
        raise ConfigError(f"sweep value {value!r} gives a bad scenario: {exc}") from exc


def _with_drivers(base: Scenario, n: int, config: dict) -> Scenario:
    """The base scenario with n drivers, d_max = d_max_per_driver * n if the config
    sets it, and c_veh raised to n unless scale_c_veh is false."""
    per_driver = config.get("d_max_per_driver")
    d_max = base.d_max if per_driver is None else _number(
        "d_max_per_driver", per_driver, lambda v: v >= 0, "a number >= 0") * n
    scale = config.get("scale_c_veh", True)
    if not isinstance(scale, bool):
        raise ConfigError(f"scale_c_veh must be true or false, got {scale!r}")
    return _derive(base, n, N=n, d_max=d_max, c_veh=max(base.c_veh, n) if scale else base.c_veh)


def _sweep_scenarios(base: Scenario, config: dict) -> list[tuple[float, Scenario]]:
    kind = config["kind"]
    values = [int(v) for v in _numbers(config, "sweep_values", _whole(1), "whole numbers >= 1")]
    if kind == "sweep_drivers":
        return [(float(v), _with_drivers(base, v, config)) for v in values]
    if base.N == 0:
        raise ConfigError(f"{kind} keeps the base scenario's total work, and N = 0 has none")
    # s*N*delta held fixed (s or delta is the swept field): N scales as 1/value
    field = "s" if kind == "sweep_shifts_per_driver" else "delta"
    work = base.N * getattr(base, field)
    out = []
    for v in values:
        if work % v:
            raise ConfigError(f"{field}={v} does not divide N*{field}={work}")
        n = work // v
        out.append((float(v), _derive(base, v, **{field: v, "N": n, "c_veh": max(base.c_veh, n)})))
    return out


def _each(fn, items: list) -> list:
    """[fn(item) for item in items], on the calling thread and one helper thread per further
    CPU that the process may use: HiGHS releases the GIL while it solves. Helpers take items
    from the front and the caller from the back, so that the caller solves the largest of
    ascending sweep values: each helper thread adds a malloc arena, which keeps what the
    helper freed. The exception of the first item, in input order, that raised is raised,
    and no item after it is started once it has raised."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    results, errors = [None] * len(items), [None] * len(items)
    lock = threading.Lock()
    todo = [0, len(items)]  # items todo[0] to todo[1] - 1 are not yet taken

    def work(front: bool) -> None:
        while True:
            with lock:
                if todo[0] == todo[1]:
                    return
                if front:
                    i = todo[0]
                    todo[0] += 1
                else:
                    todo[1] -= 1
                    i = todo[1]
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc
                with lock:  # items after i no longer decide what is raised
                    todo[1] = max(todo[0], min(todo[1], i + 1))

    helpers = [threading.Thread(target=work, args=(True,))
               for _ in range(min(cpus, len(items)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work(not helpers)  # alone, the caller goes from the front, as a plain loop does
    finally:
        with lock:  # an interrupt in the caller: the helpers start no more items
            todo[1] = todo[0]
        for helper in helpers:
            helper.join()
    exc = next((e for e in errors if e is not None), None)
    if exc is not None:
        raise exc
    return results


def _cmd_sweep(base: Scenario, config: dict) -> dict[str, str]:
    scenarios = _sweep_scenarios(base, config)
    solved = _each(lambda item: (planner.plan(item[1]),
                                 benchmark.agnostic_optimum_closed_form(item[1])), scenarios)
    rows = []
    supply_rows = []
    for (value, scenario), (result, opt) in zip(scenarios, solved):
        rows.append([value, benchmark.gap(result.true_reward, opt), result.true_reward,
                     opt.r_star, result.nodes])
        norm = float(scenario.working_time)
        supply_rows += zip([value] * scenario.T, range(1, scenario.T + 1),
                           (result.supply.y / norm).tolist(), (opt.y_star / norm).tolist())
    return {
        "sweep.csv": _csv_text(
            ["sweep_value", "relative_gap", "true_reward", "r_star", "nodes"], rows
        ),
        "sweep_supply.csv": _csv_text(
            ["sweep_value", "t", "y_norm", "y_star_norm"], supply_rows
        ),
    }


def _cmd_compare(base: Scenario, config: dict) -> dict[str, str]:
    values = _numbers(config, "sweep_values", _whole(0), "driver counts (whole numbers >= 0)")
    fraction, positive = (lambda v: 0 < v < 1), (lambda v: v > 0)
    c_frac = _number("service_fraction", config.get("service_fraction"), fraction, "in (0, 1)")
    c_cost = _number("economic_cost", config.get("economic_cost"), positive, "> 0")
    opts_frac = _numbers(config, "robustness_fractions", fraction, "numbers in (0, 1)",
                         [0.5, 0.8, 0.95])
    opts_cost = _numbers(config, "robustness_costs", positive, "numbers > 0", [0.5, 1.0, 1.5])
    robust = [("service", c) for c in opts_frac] + [("economic", c) for c in opts_cost]
    standards = [("service", c_frac), ("economic", c_cost)] + robust
    supply = {"service": benchmark.service_standard_supply,
              "economic": benchmark.economic_standard_supply}

    # each count derives its own scenario: a bad one must not win over an earlier count's error
    def gaps(n: int) -> list[float]:
        scenario = _with_drivers(base, n, config)
        opt = benchmark.agnostic_optimum_closed_form(scenario)
        results = [planner.plan(scenario)]
        try:  # a standard's desired supply with no float64 square is rejected
            results += planner.plan_baselines(
                scenario, [supply[name](scenario, c) for name, c in standards])
        except ValueError as exc:
            raise ConfigError(f"N={n}: {exc}") from exc
        return [benchmark.gap(r.true_reward, opt) for r in results]

    counts = [int(v) for v in values]
    rows = []
    robust_rows = []
    for n, g in zip(counts, _each(gaps, counts)):
        rows.append([n] + g[:3])
        robust_rows += [[name, c, n, gap] for (name, c), gap in zip(robust, g[3:])]
    return {
        "compare.csv": _csv_text(["N", "gap_ours", "gap_service", "gap_economic"], rows),
        "robustness.csv": _csv_text(["standard", "c", "N", "relative_gap"], robust_rows),
    }


def _cmd_roster(scenario: Scenario, config: dict) -> dict[str, str]:
    if scenario.boundary is not Boundary.ZERO_PADDED:
        raise ConfigError(f"roster takes zero_padded scenarios only, got boundary "
                          f"{scenario.boundary.value}")
    most = scenario.total_shifts  # no plan has a larger entry
    if most > _ROSTER_SHIFTS:
        raise ConfigError(f"roster takes at most s*N = {_ROSTER_SHIFTS} shifts, got {most}")
    if "plan" in config:
        x = _numbers(config, "plan", lambda v: _whole(0)(v) and v <= most,
                     f"whole numbers from 0 to s*N = {most}")
        if len(x) != scenario.T:
            raise ConfigError("plan vector length must equal T")
        plan_vec = ShiftPlan(x=np.array(x, dtype=np.int64))
    else:
        plan_vec = planner.plan(scenario).plan
    try:
        assigned = rostering.greedy_assign(plan_vec, scenario)
    except ValueError as exc:
        raise RosterFailure(str(exc)) from exc
    report = rostering.verify_roster(assigned, plan_vec, scenario)
    if not report.ok:
        raise RosterFailure("; ".join(report.violations))
    return {"roster.csv": rostering.roster_to_csv(assigned, scenario)}


def _cmd_export_lp(scenario: Scenario, config: dict) -> dict[str, str]:
    return {"model.lp": export_lp(planner.build_reward_mip(scenario))}


_COMMANDS = {"plan": _cmd_plan, "sweep": _cmd_sweep, "compare": _cmd_compare,
             "roster": _cmd_roster, "export-lp": _cmd_export_lp}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftopt",
        description="Reward-maximizing shift planning for demand-responsive services",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        files = _COMMANDS[args.command](*_load_config(args.config, args.command))
        os.makedirs(args.out, exist_ok=True)
        for filename, text in files.items():
            _atomic_write(args.out, filename, text)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
