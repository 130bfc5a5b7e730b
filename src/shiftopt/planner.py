"""Builds and solves the shift-planning programs.

Two programs share the same feasible set (window sums, total-shift equality,
vehicle and extended-shift caps): the reward-maximizing program, and the
baseline program minimizing squared deviation from a desired supply. Each
step's concave reward or convex squared deviation enters through its chord
envelope: every piece becomes a segment column u in [0, width] with the
piece's slope as gain. Over the cumulative starts X_t = x_1 + ... + x_t a
window sum is X_t - X_j plus a constant, so among the X columns each row has
one +1 and at most one -1 (a transposed network matrix, whose LP dual is a
min-cost flow; Ahuja, Hochbaum & Orlin 2003, Mgmt. Sci. 49(7)), and x and u
add one -1 each: the matrix is totally unimodular, so every LP solve
yields an integral optimum. `plan` and `plan_baseline` solve
a coarse envelope, then per-step windows of the fine one around its optimum
(proximity scaling for separable concave objectives; Hochbaum 1994, Math. OR
19(2)), and the full program only when the windowed optimum does not
certify itself. `plan_baselines` solves one scenario's baselines on one
HiGHS model where their programs differ only in the gains.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .domain import (
    DESIRED_MAX,
    Scenario,
    ShiftPlan,
    SupplyCurve,
    demand_vector,
    supply_curve,
    total_reward,
    window_ends,
)
from .milp import HotStart, MilpModel, PlanningError, milp_solve  # noqa: F401 (plan raises it)
from .piecewise import Envelopes, concavify_reward, convexify_sq_dev

__all__ = [
    "PlanResult",
    "build_deviation_mip",
    "build_reward_mip",
    "plan",
    "plan_baseline",
    "plan_baselines",
]

_COARSE_PIECES = 64  # round 1 splits [0, y_max] into at most this many pieces
_REACH = 2  # later rounds start at y_t +- _REACH * (round 1's stride)


@dataclass(frozen=True)
class PlanResult:
    plan: ShiftPlan
    supply: SupplyCurve
    mip_objective: float  # chord envelopes at the plan's supply: reward, or total sq. deviation
    true_reward: float
    nodes: int  # LP rounds: 1 when y_max <= 64, else 2, or 3 when the windows do not certify


def _segment_model(scenario: Scenario, env: Envelopes) -> MilpModel:
    """max env.sign * sum_t envelope_t(y_t) over plans, with columns x, X, u and rows
    X_t - X_{t-1} - x_t = 0, the window of delta minus step t's segments = lo_t - c_t,
    the window of delta + beta <= N - c_t (c_t: the multiples of sN a circular window
    adds), and X_T = sN: x and u add one -1 each to the network rows over X. y_t
    is lo_t plus its segments, whose widths stop at min(c_veh, N) >= lo_t."""
    T, N, total = scenario.T, scenario.N, scenario.total_shifts
    widths = env.widths()
    n_seg, t = len(widths), np.arange(T)
    # (rows, columns) of the entries +1, X_t in each row t, and of the entries -1
    plus = [(t, T + t), (T + t, T + t), (2 * T + t, T + t), ([3 * T], [2 * T - 1])]
    minus = [(t[1:], T - 1 + t[1:]), (t, t), (T + env.step, 2 * T + np.arange(n_seg))]
    b_eq = [np.zeros(T)]
    for first, width, lo in ((T, scenario.delta, env.start),
                             (2 * T, scenario.delta + scenario.beta, N)):
        j, n = window_ends(scenario, width)
        minus.append((first + t[j > 0], T - 1 + j[j > 0]))
        b_eq.append(lo - n * float(total))
    rows, cols = (np.concatenate(side) for side in zip(*plus, *minus))
    data = np.repeat([1.0, -1.0], [3 * T + 1, len(rows) - 3 * T - 1])
    A_eq = sparse.csc_matrix((data, (rows, cols)), shape=(3 * T + 1, 2 * T + n_seg))
    A_eq.eliminate_zeros()  # X_t - X_t, where a circular width is a multiple of T
    b_eq = np.concatenate(b_eq + [[total]])
    return MilpModel(
        objective=np.concatenate([np.zeros(2 * T), env.sign * env.slopes]),
        lower=np.zeros(2 * T + n_seg),
        upper=np.concatenate([np.full(T, N), np.full(T, total),
                              np.clip(min(scenario.c_veh, N) - (env.ends - widths), 0, widths)]),
        is_integer=np.arange(2 * T + n_seg) < T,
        A_eq=A_eq, b_eq=b_eq,
        constant=env.sign * sum(env.start_value.tolist()),  # sum_t envelope_t(lo_t)
        row_lower=np.where(np.arange(3 * T + 1) // T == 2, -np.inf, b_eq),  # the cap rows: <=
    )


def _named(model: MilpModel, env: Envelopes) -> MilpModel:
    """The segment model with columns named x_t, X_t and u_t_k (piece k of step t)."""
    steps = range(1, len(env.start) + 1)
    per_step = np.bincount(env.step, minlength=len(env.start)).tolist()
    pieces = [f"_{k}" for k in range(1, max(per_step, default=0) + 1)]
    seg_names = [u + k for t, n in zip(steps, per_step) for u in [f"u_{t}"] for k in pieces[:n]]
    return replace(model, names=[f"{v}_{t}" for v in "xX" for t in steps] + seg_names)


def _y_max(scenario: Scenario) -> int:
    return max(1, min(scenario.c_veh, scenario.N))


def _targets(scenario: Scenario, desired) -> np.ndarray:
    try:
        y = np.asarray(desired, dtype=float)
    except (TypeError, ValueError):
        y = np.empty(0)
    if y.shape != (scenario.T,) or not np.all((0 <= y) & (y <= DESIRED_MAX)):
        raise ValueError(f"desired supply must be {scenario.T} numbers in [0, {DESIRED_MAX:.4g}]")
    return y


def build_reward_mip(scenario: Scenario) -> MilpModel:
    """Reward-maximizing program over the chord envelopes of the reward."""
    env = concavify_reward(demand_vector(scenario), scenario.a, 0, _y_max(scenario))
    return _named(_segment_model(scenario, env), env)


def build_deviation_mip(scenario: Scenario, desired: np.ndarray) -> MilpModel:
    """Baseline program: maximize minus the sum of squared deviations from `desired`."""
    env = convexify_sq_dev(_targets(scenario, desired), 0, _y_max(scenario))
    return _named(_segment_model(scenario, env), env)


def _solve(scenario: Scenario, envelopes: Callable[..., Envelopes], *params,
           hot: HotStart | None = None) -> PlanResult:
    """Optimum of the full program, in at most three LP rounds.

    `envelopes(*params, lo, hi, stride)` builds every step's envelope. Round
    1 spans every step's [0, y_max] with breakpoints `stride` apart; with
    y_max <= _COARSE_PIECES that is the full program. Round 2 uses every
    integer of a window around round 1's supply. If its supply sits on no
    window side other than 0 or y_max, its windowed objective equals the full
    envelope on a neighbourhood of its optimum, so by concavity that optimum
    is also optimal for the full program. Otherwise round 3 solves the full
    program. Given `hot`, a one-round solve goes through it; the windowed
    rounds, whose windows follow the optimum, always start a new HiGHS model.
    """
    T, y_max = scenario.T, _y_max(scenario)
    stride = -(-y_max // _COARSE_PIECES)

    def solve(lo, hi, stride=1, hot=None):
        env = envelopes(*params, lo, hi, stride)
        model = _segment_model(scenario, env)
        sol = milp_solve(model) if hot is None else milp_solve(model, hot)
        return env, sol, env.start + np.bincount(env.step, sol.values[2 * T :], T).astype(np.int64)

    env, sol, y = solve(0, y_max, stride, hot if stride == 1 else None)
    rounds = 1
    if stride > 1:
        lo, hi = np.maximum(y - _REACH * stride, 0), np.minimum(y + _REACH * stride, y_max)
        env, sol, y = solve(lo, hi)
        rounds = 2
        if np.any(((y == lo) & (lo > 0)) | ((y == hi) & (hi < y_max))):
            env, sol, y = solve(0, y_max)
            rounds = 3
    plan_vec = ShiftPlan(x=sol.values[:T].astype(np.int64))
    return PlanResult(
        plan=plan_vec,
        supply=supply_curve(plan_vec, scenario),
        mip_objective=sum(env.evaluate(y).tolist()),
        true_reward=total_reward(plan_vec, scenario),
        nodes=rounds,
    )


def plan(scenario: Scenario) -> PlanResult:
    """Solve the reward-maximizing program and extract the plan."""
    return _solve(scenario, concavify_reward, demand_vector(scenario), scenario.a)


def plan_baseline(scenario: Scenario, desired: np.ndarray, *,
                  hot: HotStart | None = None) -> PlanResult:
    """Solve the deviation-minimizing program: the feasible plan closest to `desired`.
    `hot` is plan_baselines' HiGHS model, shared by one scenario's baselines."""
    return _solve(scenario, convexify_sq_dev, _targets(scenario, desired), hot=hot)


def plan_baselines(scenario: Scenario, desired_list) -> list[PlanResult]:
    """plan_baseline for each desired supply, in order. Where y_max <= 64 each baseline is one
    LP; one whose rows and bounds equal the last one's differs from it only in the gains, and
    HiGHS re-solves it from the last optimal basis instead of from scratch. The rows are
    compared, not assumed equal: near DESIRED_MAX rounding merges chords, changing the columns."""
    hot = HotStart()
    return [plan_baseline(scenario, desired, hot=hot) for desired in desired_list]
