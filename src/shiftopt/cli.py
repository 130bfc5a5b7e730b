"""Command-line front end: plan, sweep, compare, roster, export-lp.

Reads a JSON experiment config, runs the solver, and writes plot-ready CSV
and JSON files. All outputs are written atomically (temp file + rename), so a
failing run leaves no partial files. Exit codes: 0 ok, 2 bad config,
3 infeasible, 4 I/O error, 5 roster verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import benchmark, planner, roster as rostering
from .benchmark import AgnosticOptimum
from .domain import RewardParams, Scenario, ShiftPlan, demand_vector, reward
from .milp import export_lp
from .planner import EconomicStandard, PlanningError, ServiceStandard

__all__ = ["main", "read_csv"]

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
EXIT_VERIFICATION = 5

_SWEEP_KINDS = ("sweep_drivers", "sweep_shifts_per_driver", "sweep_shift_length")
_KINDS = ("plan", "compare_baselines", "roster") + _SWEEP_KINDS


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {_KINDS}, got {kind!r}")
    if "scenario" not in obj:
        raise ConfigError("config is missing the scenario object")
    try:
        obj["_scenario"] = Scenario.from_dict(obj["scenario"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc
    return obj


def _atomic_write(out_dir: str, filename: str, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{filename}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(out_dir, filename))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_all(out_dir: str, files: dict[str, str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for filename, text in files.items():
        _atomic_write(out_dir, filename, text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Read back a CLI-written CSV; numeric cells are parsed as floats."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]

    def cell(v: str):
        try:
            return float(v)
        except ValueError:
            return v

    return header, [[cell(v) for v in row] for row in body]


def _agnostic(scenario: Scenario) -> AgnosticOptimum:
    """Shift-agnostic optimum; with no demand at all, r* = 0 and y* = 0."""
    if not demand_vector(scenario).any():
        return AgnosticOptimum(y_star=np.zeros(scenario.T), r_star=0.0, lam=scenario.a)
    return benchmark.agnostic_optimum_closed_form(scenario)


def _gap_or_one(reward_value: float, opt: AgnosticOptimum) -> float:
    """Relative gap; the degenerate case r* = 0 (no budget or no demand) is reported as 1."""
    if opt.r_star <= 0:
        return 1.0
    return (opt.r_star - reward_value) / opt.r_star


def _cmd_plan(config: dict) -> dict[str, str]:
    scenario: Scenario = config["_scenario"]
    result = planner.plan(scenario)
    opt = _agnostic(scenario)
    d = demand_vector(scenario)
    gap = _gap_or_one(result.true_reward, opt)
    plan_rows = [[t, int(result.plan.x[t - 1])] for t in range(1, scenario.T + 1)]
    supply_rows = [
        [
            t,
            float(d[t - 1]),
            float(result.supply.y[t - 1]),
            float(result.supply.z[t - 1]),
            float(opt.y_star[t - 1]),
            reward(float(result.supply.y[t - 1]), RewardParams(d=float(d[t - 1]), a=scenario.a)),
        ]
        for t in range(1, scenario.T + 1)
    ]
    summary = {
        "sum_x": int(result.plan.total),
        "max_z": int(result.supply.z.max()) if scenario.T else 0,
        "true_reward": result.true_reward,
        "mip_objective": result.mip_objective,
        "r_star": opt.r_star,
        "relative_gap": gap,
        "solve_status": result.solve_status.value,
        "nodes": result.nodes,
    }
    return {
        "plan.csv": _csv_text(["t", "x"], plan_rows),
        "supply.csv": _csv_text(["t", "demand", "y", "z", "y_star", "reward"], supply_rows),
        "summary.json": json.dumps(summary, indent=2) + "\n",
    }


def _sweep_scenarios(config: dict) -> list[tuple[float, Scenario]]:
    base: Scenario = config["_scenario"]
    kind = config["kind"]
    values = config.get("sweep_values")
    if not values or any(v <= 0 for v in values):
        raise ConfigError("sweep_values must be a non-empty list of positive numbers")
    out = []
    for v in values:
        fields = {}
        if kind == "sweep_drivers":
            fields["N"] = int(v)
            per_driver = config.get("d_max_per_driver")
            if per_driver is not None:
                fields["d_max"] = per_driver * int(v)
            if config.get("scale_c_veh", True):
                fields["c_veh"] = max(base.c_veh, int(v))
        elif kind == "sweep_shifts_per_driver":
            # total working time s*N*delta held fixed: N scales as 1/s
            total = base.s * base.N
            if total % int(v):
                raise ConfigError(f"s={v} does not divide total shifts {total}")
            fields["s"] = int(v)
            fields["N"] = total // int(v)
            fields["c_veh"] = max(base.c_veh, fields["N"])
        else:  # sweep_shift_length
            # s and s*N*delta held fixed: N scales as 1/delta
            work = base.N * base.delta
            if work % int(v):
                raise ConfigError(f"delta={v} does not divide N*delta={work}")
            fields["delta"] = int(v)
            fields["N"] = work // int(v)
            fields["c_veh"] = max(base.c_veh, fields["N"])
        out.append((float(v), dataclasses.replace(base, **fields)))
    return out


def _cmd_sweep(config: dict) -> dict[str, str]:
    rows = []
    supply_rows = []
    for value, scenario in _sweep_scenarios(config):
        result = planner.plan(scenario)
        opt = _agnostic(scenario)
        gap = _gap_or_one(result.true_reward, opt)
        rows.append([value, gap, result.true_reward, opt.r_star, result.nodes])
        norm = float(scenario.working_time)
        for t in range(1, scenario.T + 1):
            supply_rows.append(
                [
                    value,
                    t,
                    float(result.supply.y[t - 1]) / norm,
                    float(opt.y_star[t - 1]) / norm,
                ]
            )
    return {
        "sweep.csv": _csv_text(
            ["sweep_value", "relative_gap", "true_reward", "r_star", "nodes"], rows
        ),
        "sweep_supply.csv": _csv_text(
            ["sweep_value", "t", "y_norm", "y_star_norm"], supply_rows
        ),
    }


def _compare_scenario(config: dict, n: int) -> Scenario:
    base: Scenario = config["_scenario"]
    per_driver = config.get("d_max_per_driver")
    d_max = per_driver * n if per_driver is not None else base.d_max
    return dataclasses.replace(base, N=n, d_max=d_max, c_veh=max(base.c_veh, n))


def _cmd_compare(config: dict) -> dict[str, str]:
    values = config.get("sweep_values")
    if not values:
        raise ConfigError("compare_baselines needs sweep_values (driver counts)")
    try:
        c_frac = float(config["service_fraction"])
        c_cost = float(config["economic_cost"])
    except KeyError as exc:
        raise ConfigError(f"missing baseline parameter: {exc}") from exc
    opts_frac = config.get("robustness_fractions", [0.5, 0.8, 0.95])
    opts_cost = config.get("robustness_costs", [0.5, 1.0, 1.5])
    rows = []
    robust_rows = []
    for n in values:
        scenario = _compare_scenario(config, int(n))
        if scenario.N == 0 or scenario.d_max == 0:
            rows.append([int(n), 1.0, 1.0, 1.0])
            continue
        opt = _agnostic(scenario)
        ours = planner.plan(scenario)
        service = planner.plan_baseline(scenario, ServiceStandard(c_frac))
        economic = planner.plan_baseline(scenario, EconomicStandard(c_cost))
        rows.append(
            [int(n)] + [_gap_or_one(r.true_reward, opt) for r in (ours, service, economic)]
        )
        for c in opts_frac:
            res = planner.plan_baseline(scenario, ServiceStandard(float(c)))
            robust_rows.append(["service", float(c), int(n), _gap_or_one(res.true_reward, opt)])
        for c in opts_cost:
            res = planner.plan_baseline(scenario, EconomicStandard(float(c)))
            robust_rows.append(["economic", float(c), int(n), _gap_or_one(res.true_reward, opt)])
    return {
        "compare.csv": _csv_text(["N", "gap_ours", "gap_service", "gap_economic"], rows),
        "robustness.csv": _csv_text(["standard", "c", "N", "relative_gap"], robust_rows),
    }


def _cmd_roster(config: dict) -> dict[str, str]:
    scenario: Scenario = config["_scenario"]
    if "plan" in config:
        plan_vec = ShiftPlan(x=np.asarray(config["plan"]))
        if len(plan_vec) != scenario.T:
            raise ConfigError("plan vector length must equal T")
    else:
        plan_vec = planner.plan(scenario).plan
    try:
        assigned = rostering.greedy_assign(plan_vec, scenario)
        balanced = rostering.rebalance(assigned, scenario.s)
    except ValueError as exc:
        raise RosterFailure(str(exc)) from exc
    report = rostering.verify_roster(balanced, plan_vec, scenario)
    if not report.ok:
        raise RosterFailure("; ".join(report.violations))
    return {"roster.csv": rostering.roster_to_csv(balanced, scenario)}


def _cmd_export_lp(config: dict) -> dict[str, str]:
    scenario: Scenario = config["_scenario"]
    return {"model.lp": export_lp(planner.build_reward_mip(scenario))}


class RosterFailure(Exception):
    pass


_COMMANDS = {
    "plan": _cmd_plan,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "roster": _cmd_roster,
    "export-lp": _cmd_export_lp,
}

_KIND_FOR_COMMAND = {
    "plan": ("plan",),
    "sweep": _SWEEP_KINDS,
    "compare": ("compare_baselines",),
    "roster": ("roster",),
    "export-lp": ("plan", "roster") + _SWEEP_KINDS,
}


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
        config = _load_config(args.config)
        if config["kind"] not in _KIND_FOR_COMMAND[args.command]:
            raise ConfigError(
                f"config kind {config['kind']!r} does not match command {args.command!r}"
            )
        files = _COMMANDS[args.command](config)
        _write_all(args.out, files)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RosterFailure as exc:
        print(f"error: roster verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
