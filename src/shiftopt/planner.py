"""Builds and solves the shift-planning programs.

Two programs share the same feasible set (window sums, total-shift equality,
vehicle and extended-shift caps): the reward-maximizing program, and the
baseline program minimizing squared deviation from a desired supply. Each
step's concave reward or convex squared deviation enters through its chord
envelope: every piece becomes a segment column u in [0, width] with the
piece's slope as gain, and y_t is the sum of its step's segments. With x,
y and z tied by window sums, the constraint matrix is totally unimodular, so
every LP solve yields an integral optimum. `plan` and `plan_baseline` solve
on per-step windows of the envelope, refined from coarse to fine until the
optimum certifies itself for the full program (proximity scaling for
separable concave objectives; Hochbaum 1994, Math. OR 19(2)).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import benchmark
from .domain import (
    Scenario,
    ShiftPlan,
    SupplyCurve,
    demand_vector,
    supply_curve,
    total_reward,
    window_indices,
)
from .milp import MilpModel, SolveStatus, milp_solve
from .piecewise import Envelopes, concavify_reward, convexify_sq_dev

__all__ = [
    "EconomicStandard",
    "PlanningError",
    "PlanResult",
    "ServiceStandard",
    "build_deviation_mip",
    "build_reward_mip",
    "plan",
    "plan_baseline",
]

_COARSE_PIECES = 64  # round 1 splits [0, y_max] into at most this many pieces
_REACH = 2  # later rounds start at y_t +- _REACH * (round 1's stride)


class PlanningError(Exception):
    """Raised when the solver cannot produce a usable plan."""

    def __init__(self, status: SolveStatus, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServiceStandard:
    """Desired supply serves a constant fraction of demand, 0 < fraction < 1."""

    fraction: float


@dataclass(frozen=True)
class EconomicStandard:
    """Desired supply maximizes reward minus cost per deployed staff, cost > 0."""

    cost: float


@dataclass(frozen=True)
class PlanResult:
    plan: ShiftPlan
    supply: SupplyCurve
    mip_objective: float  # chord envelopes at the plan's supply: reward, or total sq. deviation
    true_reward: float
    solve_status: SolveStatus
    nodes: int  # LP rounds: 1 when y_max <= 64


def _segment_model(scenario: Scenario, env: Envelopes) -> MilpModel:
    """max env.sign * sum_t envelope_t(y_t) over plans, with columns x, y, z, u.

    Step t's envelope spans its window [lo_t, hi_t]: y_t - sum of its
    segments = lo_t, with y_t bounded to the window.
    """
    T, N = scenario.T, scenario.N
    widths = env.widths()
    n_seg = len(widths)
    per_step = np.bincount(env.step, minlength=T)
    lo = env.start.astype(float)
    hi = np.minimum(env.ends[np.cumsum(per_step) - 1], min(scenario.c_veh, N))
    # rows: y_t and z_t as window sums of x, the sum of x, y_t minus its segments;
    # columns: x, y, z, u
    t = np.arange(T)
    y_rows, y_cols = window_indices(scenario, scenario.delta)
    z_rows, z_cols = window_indices(scenario, scenario.delta + scenario.beta)
    rows = np.concatenate([y_rows, t, T + z_rows, T + t, np.full(T, 2 * T),
                           2 * T + 1 + t, 2 * T + 1 + env.step])
    cols = np.concatenate([y_cols, T + t, z_cols, 2 * T + t, t,
                           T + t, 3 * T + np.arange(n_seg)])
    data = np.repeat([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0],
                     [len(y_rows), T, len(z_rows), T, T, T, n_seg])
    A_eq = sparse.csc_matrix((data, (rows, cols)), shape=(3 * T + 1, 3 * T + n_seg))
    b_eq = np.concatenate([np.zeros(2 * T), [scenario.total_shifts], lo])
    steps = range(1, T + 1)
    seg_names = [f"u_{t}_{k}" for t, n in zip(steps, per_step.tolist()) for k in range(1, n + 1)]
    return MilpModel(
        objective=np.concatenate([np.zeros(3 * T), env.sign * env.slopes]),
        lower=np.concatenate([np.zeros(T), lo, np.zeros(T + n_seg)]),
        upper=np.concatenate([np.full(T, N), hi, np.full(T, N), widths]),
        is_integer=np.arange(3 * T + n_seg) < T,
        names=[f"{v}_{t}" for v in "xyz" for t in steps] + seg_names,
        A_eq=A_eq,
        b_eq=b_eq,
        constant=env.sign * sum(env.start_value.tolist()),  # sum_t envelope_t(lo_t)
    )


def _y_max(scenario: Scenario) -> int:
    return max(1, min(scenario.c_veh, scenario.N))


def _targets(scenario: Scenario, desired: np.ndarray) -> np.ndarray:
    desired = np.asarray(desired, dtype=float)
    if desired.shape != (scenario.T,):
        raise ValueError(f"desired supply must have length {scenario.T}")
    if np.any(desired < 0):
        raise ValueError("desired supply must be non-negative")
    return desired


def build_reward_mip(scenario: Scenario) -> MilpModel:
    """Reward-maximizing program over the chord envelopes of the reward."""
    env = concavify_reward(demand_vector(scenario), scenario.a, 0, _y_max(scenario))
    return _segment_model(scenario, env)


def build_deviation_mip(scenario: Scenario, desired: np.ndarray) -> MilpModel:
    """Baseline program: maximize minus the sum of squared deviations from `desired`."""
    env = convexify_sq_dev(_targets(scenario, desired), 0, _y_max(scenario))
    return _segment_model(scenario, env)


def _solve(scenario: Scenario, envelopes: Callable[..., Envelopes], *params) -> PlanResult:
    """Optimum of the full program, solved on windows refined from coarse to fine.

    `envelopes(*params, lo, hi, stride)` builds every step's envelope. Round
    1 spans every step's [0, y_max] with breakpoints `stride` apart; with
    y_max <= _COARSE_PIECES that is the full program. Later rounds use
    every integer of a window around the last supply, and widen a window side
    (each time twice as far as before) while the supply sits on it. The last
    round has no supply on a window side other than 0 or y_max: its windowed
    objective equals the full envelope on a neighbourhood of its optimum, so
    by concavity that optimum is also optimal for the full program.
    """
    T, y_max = scenario.T, _y_max(scenario)
    stride = -(-y_max // _COARSE_PIECES)
    lo, hi = np.zeros(T, dtype=np.int64), np.full(T, y_max)
    env = envelopes(*params, lo, hi, stride)
    reach_lo, reach_hi = np.full(T, _REACH * stride), np.full(T, _REACH * stride)
    rounds = 0
    while True:
        sol = milp_solve(_segment_model(scenario, env))
        rounds += 1
        if sol.status is SolveStatus.INFEASIBLE:
            raise PlanningError(sol.status, f"no plan: solver status {sol.status.value}")
        y = sol.values[T : 2 * T].astype(np.int64)
        if rounds == 1 and stride > 1:
            lo, hi = np.maximum(y - reach_lo, 0), np.minimum(y + reach_hi, y_max)
        else:
            low, high = (y == lo) & (lo > 0), (y == hi) & (hi < y_max)
            if not (low.any() or high.any()):
                break
            reach_lo[low] *= 2
            reach_hi[high] *= 2
            lo[low] = np.maximum(lo[low] - reach_lo[low], 0)
            hi[high] = np.minimum(hi[high] + reach_hi[high], y_max)
        env = envelopes(*params, lo, hi)
    plan_vec = ShiftPlan(x=sol.values[:T].astype(np.int64))
    return PlanResult(
        plan=plan_vec,
        supply=supply_curve(plan_vec, scenario),
        mip_objective=sum(env.evaluate(y).tolist()),
        true_reward=total_reward(plan_vec, scenario),
        solve_status=sol.status,
        nodes=rounds,
    )


def plan(scenario: Scenario) -> PlanResult:
    """Solve the reward-maximizing program and extract the plan."""
    return _solve(scenario, concavify_reward, demand_vector(scenario), scenario.a)


def plan_baseline(
    scenario: Scenario, standard: ServiceStandard | EconomicStandard
) -> PlanResult:
    """Solve the deviation-minimizing program against a traditional standard."""
    if isinstance(standard, ServiceStandard):
        desired = benchmark.service_standard_supply(scenario, standard.fraction)
    elif isinstance(standard, EconomicStandard):
        desired = benchmark.economic_standard_supply(scenario, standard.cost)
    else:
        raise TypeError(f"unknown standard {standard!r}")
    return _solve(scenario, convexify_sq_dev, _targets(scenario, desired))
