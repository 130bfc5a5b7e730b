"""Builds and solves the shift-planning programs.

Two programs share the same feasible set (window sums, total-shift equality,
vehicle and extended-shift caps): the reward-maximizing program, and the
baseline program minimizing squared deviation from a desired supply. Each
step's concave reward or convex squared deviation enters through its chord
envelope: every piece becomes a segment column u in [0, width] with the
piece's slope as gain, and y_t is the sum of its step's segments. With x,
y and z tied by window sums, the constraint matrix is totally unimodular, so
one LP solve yields an integral optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import benchmark
from .domain import (
    RewardParams,
    Scenario,
    ShiftPlan,
    SupplyCurve,
    demand_vector,
    supply_curve,
    total_reward,
    window_matrix,
)
from .milp import MilpModel, SolveStatus, milp_solve
from .piecewise import ConcavePL, ConvexPL, concavify_reward, convexify_sq_dev

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
    nodes: int  # LP solves


def _segment_model(
    scenario: Scenario, envelopes: list[ConcavePL] | list[ConvexPL], sign: float
) -> MilpModel:
    """max sign * sum_t envelope_t(y_t) over plans, with columns x, y, z, u."""
    T, N = scenario.T, scenario.N
    widths = [env.widths() for env in envelopes]
    step = np.repeat(np.arange(T), [len(w) for w in widths])
    n_seg = len(step)
    eye = sparse.identity(T, format="csr")
    segments = sparse.csr_matrix((np.ones(n_seg), (step, np.arange(n_seg))), shape=(T, n_seg))
    A_eq = sparse.bmat(
        [
            [window_matrix(scenario, scenario.delta), -eye, None, None],
            [window_matrix(scenario, scenario.delta + scenario.beta), None, -eye, None],
            [np.ones((1, T)), None, None, None],
            [None, eye, None, -segments],
        ],
        format="csr",
    )
    b_eq = np.zeros(3 * T + 1)
    b_eq[2 * T] = scenario.total_shifts
    slopes = [p.slope for env in envelopes for p in env.pieces]
    offset = sum(env.pieces[0].intercept for env in envelopes)  # sum_t envelope_t(0)
    steps = range(1, T + 1)
    seg_names = [f"u_{t}_{k}" for t, w in zip(steps, widths) for k in range(1, len(w) + 1)]
    return MilpModel(
        objective=np.concatenate([np.zeros(3 * T), sign * np.asarray(slopes)]),
        lower=np.zeros(3 * T + n_seg),
        upper=np.concatenate(
            [np.full(T, N), np.full(T, min(scenario.c_veh, N)), np.full(T, N),
             np.concatenate(widths)]
        ),
        is_integer=np.arange(3 * T + n_seg) < T,
        names=[f"{v}_{t}" for v in "xyz" for t in steps] + seg_names,
        A_eq=A_eq,
        b_eq=b_eq,
        constant=sign * offset,
    )


def _y_max(scenario: Scenario) -> int:
    return max(1, min(scenario.c_veh, scenario.N))


def _reward_envelopes(scenario: Scenario) -> list[ConcavePL]:
    y_max = _y_max(scenario)
    return [
        concavify_reward(RewardParams(d=float(d), a=scenario.a), y_max)
        for d in demand_vector(scenario)
    ]


def _deviation_envelopes(scenario: Scenario, desired: np.ndarray) -> list[ConvexPL]:
    desired = np.asarray(desired, dtype=float)
    if desired.shape != (scenario.T,):
        raise ValueError(f"desired supply must have length {scenario.T}")
    if np.any(desired < 0):
        raise ValueError("desired supply must be non-negative")
    y_max = _y_max(scenario)
    return [convexify_sq_dev(float(target), y_max) for target in desired]


def build_reward_mip(scenario: Scenario) -> MilpModel:
    """Reward-maximizing program over the chord envelopes of the reward."""
    return _segment_model(scenario, _reward_envelopes(scenario), 1.0)


def build_deviation_mip(scenario: Scenario, desired: np.ndarray) -> MilpModel:
    """Baseline program: maximize minus the sum of squared deviations from `desired`."""
    return _segment_model(scenario, _deviation_envelopes(scenario, desired), -1.0)


def _solve(
    scenario: Scenario, envelopes: list[ConcavePL] | list[ConvexPL], sign: float
) -> PlanResult:
    sol = milp_solve(_segment_model(scenario, envelopes, sign))
    if sol.status is SolveStatus.INFEASIBLE:
        raise PlanningError(sol.status, f"no plan: solver status {sol.status.value}")
    T = scenario.T
    plan_vec = ShiftPlan(x=sol.values[:T].astype(np.int64))
    y = sol.values[T : 2 * T]
    return PlanResult(
        plan=plan_vec,
        supply=supply_curve(plan_vec, scenario),
        mip_objective=sum(env.evaluate(float(yt)) for env, yt in zip(envelopes, y)),
        true_reward=total_reward(plan_vec, scenario),
        solve_status=sol.status,
        nodes=sol.nodes_explored,
    )


def plan(scenario: Scenario) -> PlanResult:
    """Solve the reward-maximizing program and extract the plan."""
    return _solve(scenario, _reward_envelopes(scenario), 1.0)


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
    return _solve(scenario, _deviation_envelopes(scenario, desired), -1.0)
