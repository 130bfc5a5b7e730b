"""Shift-agnostic optimum, relative gap, and traditional desired-supply rules.

The shift-agnostic optimum distributes the total personnel time s*N*delta
freely over the horizon, keeping only the budget constraint. For the
exponential reward it has a closed form (supply proportional to demand);
`water_fill` solves the same problem generically via a multiplier search and
serves as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    RewardParams,
    Scenario,
    ShiftPlan,
    demand_vector,
    reward,
    reward_vector,
    total_reward,
)

__all__ = [
    "AgnosticOptimum",
    "GapReport",
    "agnostic_optimum_closed_form",
    "economic_standard_supply",
    "relative_gap",
    "service_standard_supply",
    "water_fill",
]


@dataclass(frozen=True)
class AgnosticOptimum:
    y_star: np.ndarray
    r_star: float
    lam: float


@dataclass(frozen=True)
class GapReport:
    delta: float
    r_star: float
    plan_reward: float


def _total_reward_of_supply(y: np.ndarray, d: np.ndarray, a: float) -> float:
    return sum(reward_vector(y, d, a).tolist())


def agnostic_optimum_closed_form(scenario: Scenario) -> AgnosticOptimum:
    """Optimal unconstrained supply: proportional to demand with budget sN*delta."""
    d = demand_vector(scenario)
    d_sum = d.sum()
    if d_sum <= 0:
        raise ValueError("all-zero demand: shift-agnostic optimum undefined")
    budget = float(scenario.working_time)
    y_star = budget * d / d_sum
    r_star = _total_reward_of_supply(y_star, d, scenario.a)
    if budget > 0:
        lam = scenario.a * math.exp(-scenario.a * budget / d_sum)
    else:
        lam = scenario.a
    return AgnosticOptimum(y_star=y_star, r_star=r_star, lam=lam)


def water_fill(
    scenario: Scenario,
    budget: float | None = None,
    lo_init: float | None = None,
) -> AgnosticOptimum:
    """Multiplier-search solution of the budgeted concave allocation.

    Bisects on the common marginal reward lam; supply at a step with demand d
    is max(0, (d/a) * ln(a/lam)). Works for any step with d = 0 (gets zero).
    `lo_init` seeds the lower end of the bracket (testing hook; the result is
    independent of it).
    """
    if budget is None:
        budget = float(scenario.working_time)
    if budget < 0:
        raise ValueError("budget must be >= 0")
    d = demand_vector(scenario)
    if d.sum() <= 0:
        raise ValueError("all-zero demand: shift-agnostic optimum undefined")
    a = scenario.a
    T = scenario.T

    if budget == 0:
        return AgnosticOptimum(y_star=np.zeros(T), r_star=0.0, lam=a)

    def supply(lam: float) -> np.ndarray:
        y = np.zeros(T)
        pos = d > 0
        y[pos] = np.maximum(0.0, d[pos] / a * math.log(a / lam))
        return y

    # supply total is decreasing in lam; bracket [lo, hi] with hi = a (zero supply)
    hi = a
    lo = min(lo_init, a / 2.0) if lo_init is not None else a / 2.0
    if lo <= 0:
        raise ValueError("bracket seed must be > 0")
    while supply(lo).sum() < budget:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        total = supply(mid).sum()
        if abs(total - budget) <= 1e-10 * budget:
            lo = hi = mid
            break
        if total > budget:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    y_star = supply(lam)
    # remove the residual bisection error by rescaling onto the budget
    y_star *= budget / y_star.sum()
    r_star = _total_reward_of_supply(y_star, d, a)
    return AgnosticOptimum(y_star=y_star, r_star=r_star, lam=lam)


def relative_gap(plan: ShiftPlan, scenario: Scenario) -> GapReport:
    """Fraction of the shift-agnostic optimum reward lost by this plan."""
    opt = agnostic_optimum_closed_form(scenario)
    if opt.r_star <= 0:
        raise ValueError("relative gap undefined: shift-agnostic optimum is <= 0")
    plan_reward = total_reward(plan, scenario)
    delta = (opt.r_star - plan_reward) / opt.r_star
    return GapReport(delta=delta, r_star=opt.r_star, plan_reward=plan_reward)


def service_standard_supply(scenario: Scenario, c_frac: float) -> np.ndarray:
    """Supply serving a constant fraction c of demand at every step."""
    if not 0 < c_frac < 1:
        raise ValueError("service fraction must lie in (0, 1)")
    d = demand_vector(scenario)
    a = scenario.a
    y = d / a * math.log(1.0 / (1.0 - c_frac))
    for di, yi in zip(d, y):
        if di > 0:
            served = reward(float(yi), RewardParams(d=float(di), a=a))
            if abs(served - c_frac * di) > 1e-9 * max(1.0, abs(c_frac * di)):
                raise AssertionError("service-standard supply failed verification")
    return y


def economic_standard_supply(scenario: Scenario, c_cost: float) -> np.ndarray:
    """Supply maximizing reward minus c per deployed staff, per step."""
    if c_cost <= 0:
        raise ValueError("staff cost must be > 0")
    d = demand_vector(scenario)
    a = scenario.a
    if a <= c_cost:
        return np.zeros(scenario.T)
    y = d / a * math.log(a / c_cost)
    for di, yi in zip(d, y):
        if di > 0:
            # stationarity: f'(y) = a * exp(-a*y/d) = c
            marginal = a * math.exp(-a * yi / di)
            if abs(marginal - c_cost) > 1e-9 * max(1.0, c_cost):
                raise AssertionError("economic-standard supply failed verification")
    return y
