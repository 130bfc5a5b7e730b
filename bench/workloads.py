"""Seeded inputs and operations of the three benchmark workloads.

Inputs are plain JSON-able dicts in the CLI config schema, so the same seed
always yields the same bytes and `digest` can show that two commits ran
identical inputs. Each operation calls only the public API of `shiftopt`.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import shiftopt
from checks import envelope
from shiftopt import cli

WEEK = 168
SMALL_PLANS_OPS = 150
FAMILY_SEED = 2024
JITTER = 0.05
LARGE_FLEET_SIZES = (100, 200, 300, 400)
COMPARE_SIZES = (4, 8, 12, 25, 50)
SWEEP_SIZES = (5, 10, 20, 40, 60, 80, 100)
EXPORT_SIZE = 400

_DEMAND_MODELS = ("envelope_sinusoid", "offset_sinusoid", "explicit")
_BOUNDARIES = ("zero_padded", "circular")


def small_plans(seed: int) -> list[dict]:
    """150 feasible scenarios of 1..7 days and 5..20 drivers.

    A fixed family (FAMILY_SEED) sets every scenario's shape: horizon,
    fleet, s, delta, beta, c_veh, boundary, demand model and demand level.
    The run's seed perturbs d_max, a and explicit demand by up to 5%. With
    free draws the seed decided which scenarios need branch-and-bound, and
    that alone moved wall_s by up to 40% between seeds.
    Feasibility holds by construction: c_veh >= N and s*(delta+beta) <= T,
    so all drivers can work the same s evenly spaced shifts.
    """
    family = np.random.default_rng(FAMILY_SEED)
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in range(SMALL_PLANS_OPS):
        T = 24 * (1 + i % 7)
        N = 5 + (5 * i) % 16
        delta = int(family.integers(4, 11))
        beta = int(family.integers(4, 13))
        s = int(family.integers(1, min(7, T // (delta + beta)) + 1))
        c_veh = N + int(family.integers(0, 6))
        d_max = N * family.uniform(0.5, 1.5) * rng.uniform(1 - JITTER, 1 + JITTER)
        a = family.uniform(1.0, 3.0) * rng.uniform(1 - JITTER, 1 + JITTER)
        shape = family.uniform(0.0, 1.0, T)
        sc = {
            "T": T, "N": N, "s": s, "delta": delta, "beta": beta,
            "d_max": round(float(d_max), 6), "a": round(float(a), 6), "c_veh": c_veh,
            "demand_model": _DEMAND_MODELS[i % 3],
            "boundary": _BOUNDARIES[(i // 3) % 2],
        }
        if sc["demand_model"] == "explicit":
            demand = d_max * shape * rng.uniform(1 - JITTER, 1 + JITTER, T)
            sc["demand"] = [round(float(v), 6) for v in demand]
        out.append(sc)
    return out


def large_fleet(seed: int) -> list[dict]:
    """Week scenarios at N = 100..400 with c_veh = N and perturbed demand."""
    rng = np.random.default_rng([seed, 2])
    wave = envelope(WEEK)
    out = []
    for N in LARGE_FLEET_SIZES:
        demand = N * wave * rng.uniform(0.9, 1.1, WEEK)
        out.append({
            "T": WEEK, "N": N, "s": 5, "delta": 8, "beta": 8,
            "d_max": float(N), "a": 2.0, "c_veh": N,
            "demand_model": "explicit",
            "demand": [round(float(v), 6) for v in demand],
            "boundary": "zero_padded",
        })
    return out


def cli_studies(seed: int) -> list[dict]:
    """`compare`, `sweep` and `export-lp` configs, in the order they run.

    The seed moves demand levels and the baseline standards only a little:
    the chord count, and with it the model size, depends on demand / a.
    """
    rng = np.random.default_rng([seed, 3])

    def week(N: int, **extra) -> dict:
        return {"T": WEEK, "N": N, "s": 5, "delta": 8, "beta": 8,
                "d_max": float(N), "a": 2.0, "c_veh": N, **extra}

    export_demand = EXPORT_SIZE * envelope(WEEK) * rng.uniform(0.95, 1.05, WEEK)
    return [
        {
            "command": "compare",
            "config": {
                "kind": "compare_baselines",
                "scenario": week(COMPARE_SIZES[0], beta=9),
                "sweep_values": list(COMPARE_SIZES),
                "d_max_per_driver": round(float(rng.uniform(0.72, 0.78)), 6),
                "service_fraction": round(float(rng.uniform(0.75, 0.85)), 6),
                "economic_cost": round(float(rng.uniform(0.9, 1.1)), 6),
            },
        },
        {
            "command": "sweep",
            "config": {
                "kind": "sweep_drivers",
                "scenario": week(SWEEP_SIZES[0]),
                "sweep_values": list(SWEEP_SIZES),
                "d_max_per_driver": round(float(rng.uniform(0.95, 1.05)), 6),
            },
        },
        {
            "command": "export-lp",
            "config": {
                "kind": "plan",
                "scenario": week(EXPORT_SIZE, demand_model="explicit",
                                 demand=[round(float(v), 6) for v in export_demand]),
            },
        },
    ]


GENERATORS = {
    "small-plans": small_plans,
    "large-fleet": large_fleet,
    "cli-studies": cli_studies,
}


def digest(inputs: list[dict]) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_plan_op(sc: shiftopt.Scenario) -> dict:
    """plan -> relative_gap -> roster (zero-padded scenarios only)."""
    result = shiftopt.plan(sc)
    out = {"result": result, "gap": shiftopt.relative_gap(result.plan, sc)}
    if sc.boundary is shiftopt.Boundary.ZERO_PADDED:
        swaps: list = []
        assigned = shiftopt.greedy_assign(result.plan, sc)
        balanced = shiftopt.rebalance(assigned, sc.s, trace=swaps)
        out["roster"] = shiftopt.verify_roster(balanced, result.plan, sc)
    return out


def run_cli_op(op: dict, config_path: str, out_dir: str) -> int:
    return cli.main([op["command"], "--config", config_path, "--out", out_dir])


class Workload:
    """The generated inputs of one workload and a runner for its operations."""

    def __init__(self, name: str, seed: int):
        self.inputs = GENERATORS[name](seed)
        self.digest = digest(self.inputs)
        self.is_cli = name == "cli-studies"
        if not self.is_cli:
            self.scenarios = [shiftopt.Scenario.from_dict(sc) for sc in self.inputs]

    def __len__(self) -> int:
        return len(self.inputs)

    def write_configs(self, work_dir: str) -> None:
        """Write the CLI configs; CLI outputs go to fresh directories below."""
        self.work_dir = work_dir
        self.config_paths = []
        self._runs = 0
        for i, op in enumerate(self.inputs):
            path = os.path.join(work_dir, f"config-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh)
            self.config_paths.append(path)

    def warmup_index(self) -> int:
        """The operation run once, untimed, before the timed phase."""
        # export-lp, the cheapest CLI call
        return len(self.inputs) - 1 if self.is_cli else 0

    def run(self, i: int):
        """Run operation i; returns what the checks need."""
        if not self.is_cli:
            return run_plan_op(self.scenarios[i])
        self._runs += 1
        out_dir = os.path.join(self.work_dir, f"out-{self._runs}")
        return {"exit": run_cli_op(self.inputs[i], self.config_paths[i], out_dir),
                "out_dir": out_dir}
