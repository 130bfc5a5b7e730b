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

from .domain import DESIRED_MAX, Scenario, ShiftPlan, demand_vector, reward_vector, total_reward

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
    """Optimal unconstrained supply: proportional to demand with budget sN*delta.
    Without demand or budget, y* = 0 and r* = 0."""
    d = demand_vector(scenario)
    d_sum = d.sum()
    budget = float(scenario.working_time)
    if d_sum == 0 or budget == 0:
        return AgnosticOptimum(y_star=np.zeros(scenario.T), r_star=0.0, lam=scenario.a)
    y_star = budget * d / d_sum
    r_star = _total_reward_of_supply(y_star, d, scenario.a)
    # a Python float: a*budget/d_sum is inf, without a warning, for a subnormal d_sum
    lam = scenario.a * math.exp(-scenario.a * budget / float(d_sum))
    return AgnosticOptimum(y_star=y_star, r_star=r_star, lam=lam)


def water_fill(scenario: Scenario) -> AgnosticOptimum:
    """Multiplier-search solution of the budgeted concave allocation.

    Bisects on the common marginal reward lam; supply at a step with demand d
    is max(0, (d/a) * ln(a/lam)). Works for any step with d = 0 (gets zero).
    Without demand or budget, y* = 0 and r* = 0.
    """
    budget = float(scenario.working_time)
    d = demand_vector(scenario)
    if budget == 0 or not d.any():
        return AgnosticOptimum(y_star=np.zeros(scenario.T), r_star=0.0, lam=scenario.a)
    a = scenario.a
    T = scenario.T

    def supply(lam: float) -> np.ndarray:
        y = np.zeros(T)
        pos = d > 0
        y[pos] = np.maximum(0.0, d[pos] / a * math.log(a / lam))
        return y

    # supply total is decreasing in lam; bracket [lo, hi] with hi = a (zero supply)
    lo, hi = a / 2.0, a
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


def gap(plan_reward: float, opt: AgnosticOptimum) -> float:
    """Fraction of the shift-agnostic optimum reward r* that a plan's reward
    falls short by; 1.0 when r* <= 0 (no drivers or no demand)."""
    if opt.r_star <= 0:
        return 1.0
    return (opt.r_star - plan_reward) / opt.r_star


def relative_gap(plan: ShiftPlan, scenario: Scenario) -> GapReport:
    """Fraction of the shift-agnostic optimum reward lost by this plan."""
    opt = agnostic_optimum_closed_form(scenario)
    plan_reward = total_reward(plan, scenario)
    return GapReport(delta=gap(plan_reward, opt), r_star=opt.r_star, plan_reward=plan_reward)


def _squarable(d: np.ndarray, a: float, log_ratio: float) -> np.ndarray:
    """Desired supply d/a * log_ratio; ValueError where its square, which
    the baseline program takes, is not a finite float."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = d / a * log_ratio
    if not np.all(y <= DESIRED_MAX):
        raise ValueError("desired supply is too large to square in float64")
    return y


def service_standard_supply(scenario: Scenario, c_frac: float) -> np.ndarray:
    """Supply d/a * ln(1/(1-c)), as -log1p(-c), serving a fraction c of demand at every step."""
    if not 0 < c_frac < 1:
        raise ValueError("service fraction must lie in (0, 1)")
    return _squarable(demand_vector(scenario), scenario.a, -math.log1p(-c_frac))


def economic_standard_supply(scenario: Scenario, c_cost: float) -> np.ndarray:
    """Supply d/a * ln(a/c) maximizing reward minus c per deployed staff; 0 if a <= c."""
    if c_cost <= 0:
        raise ValueError("staff cost must be > 0")
    a = scenario.a
    if a <= c_cost:
        return np.zeros(scenario.T)
    return _squarable(demand_vector(scenario), a, math.log(a / c_cost))
