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
certify itself. Each LP starts HiGHS from the basis of a greedy fill of the
working time over all chord pieces by falling gain, the shift-agnostic
optimum over them (Maros & Mitra 1998, INFORMS J. Computing 10(2)).
`plan_baselines` solves one scenario's baselines on one HiGHS model where
their programs differ only in the gains.
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
# the full programs' cap on T*min(N, c_veh) chord pieces: at it (T 24, N = c_veh = 43690) `shiftopt
# export-lp` takes about 2.1 s and 377 MiB peak RSS on a 2-CPU Xeon, and writes a 49 MiB model.lp
_FULL_PIECES = 2**20


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
    # MilpModel drops the entry 0 of X_t - X_t, where a circular width is a multiple of T
    A_eq = sparse.csc_matrix((data, (rows, cols)), shape=(3 * T + 1, 2 * T + n_seg))
    b_eq = np.concatenate(b_eq + [[total]])
    gains = env.sign * env.slopes
    u_upper = np.clip(min(scenario.c_veh, N) - (env.ends - widths), 0, widths)
    # the start basis: x_t in link row t and, in supply row t, the piece of step t where a greedy
    # fill of the working time by falling gain stops (the shift-agnostic optimum over these
    # pieces, where only sum_t y_t = sN delta binds; gains fall within a step, so it takes a
    # prefix of each); the cap rows and the total row keep their slacks
    order = np.argsort(-gains, kind="stable")
    inside = np.empty(n_seg, dtype=bool)
    inside[order] = np.cumsum(u_upper[order]) <= scenario.working_time - env.start.sum()
    count, taken = np.bincount(env.step, minlength=T), np.bincount(env.step[inside], minlength=T)
    basic = np.full(3 * T + 1, -1)
    basic[:T], basic[T : 2 * T] = t, 2 * T + np.cumsum(count) - count + np.minimum(taken, count - 1)
    return MilpModel(
        objective=np.concatenate([np.zeros(2 * T), gains]),
        lower=np.zeros(2 * T + n_seg),
        upper=np.concatenate([np.full(T, N), np.full(T, total), u_upper]),
        is_integer=np.arange(2 * T + n_seg) < T,
        A_eq=A_eq, b_eq=b_eq,
        constant=env.sign * sum(env.start_value.tolist()),  # sum_t envelope_t(lo_t)
        row_lower=np.where(np.arange(3 * T + 1) // T == 2, -np.inf, b_eq),  # the cap rows: <=
        basic=basic,
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


def _full_y_max(scenario: Scenario) -> int:
    """y_max, or ValueError where the full program has over _FULL_PIECES chord pieces."""
    if (pieces := scenario.T * min(scenario.N, scenario.c_veh)) > _FULL_PIECES:
        raise ValueError(f"at most T*min(N, c_veh) = {_FULL_PIECES} chord pieces, got {pieces}")
    return _y_max(scenario)


def build_reward_mip(scenario: Scenario) -> MilpModel:
    """Reward-maximizing program over the chord envelopes of the reward."""
    env = concavify_reward(demand_vector(scenario), scenario.a, 0, _full_y_max(scenario))
    return _named(_segment_model(scenario, env), env)


def build_deviation_mip(scenario: Scenario, desired: np.ndarray) -> MilpModel:
    """Baseline program: maximize minus the sum of squared deviations from `desired`."""
    env = convexify_sq_dev(_targets(scenario, desired), 0, _full_y_max(scenario))
    return _named(_segment_model(scenario, env), env)


def _solve(scenario: Scenario, envelopes: Callable[..., Envelopes], *params,
           hot: HotStart | None = None) -> PlanResult:
    """Optimum of the full program, one LP round per pass, each solved through `hot`.

    A round's envelopes `envelopes(*params, lo, hi, stride)` have breakpoints `stride` apart on
    [lo_t, hi_t]. Round 1 spans [0, y_max] at stride ceil(y_max / 64), the full program where
    y_max <= _COARSE_PIECES. A round at stride > 1 is followed by every integer of the window
    y_t +- _REACH * stride. A stride-1 round whose y sits on no window side but 0 or y_max ends
    the loop: its objective equals the full envelope near its optimum, so by concavity that
    optimum is the full program's. Otherwise the full program follows, and ends it.
    """
    T, y_max = scenario.T, _y_max(scenario)
    lo, hi, stride, rounds = 0, y_max, -(-y_max // _COARSE_PIECES), 0
    while True:
        env = envelopes(*params, lo, hi, stride)
        sol = milp_solve(_segment_model(scenario, env), hot)
        y = env.start + np.bincount(env.step, sol.values[2 * T :], T).astype(np.int64)
        rounds += 1
        if stride > 1:
            lo, hi = np.maximum(y - _REACH * stride, 0), np.minimum(y + _REACH * stride, y_max)
            stride = 1
        elif np.any(((y == lo) & (lo > 0)) | ((y == hi) & (hi < y_max))):
            lo, hi = 0, y_max
        else:
            break
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


def plan_baseline(scenario: Scenario, desired: np.ndarray) -> PlanResult:
    """Solve the deviation-minimizing program: the feasible plan closest to `desired`."""
    return _solve(scenario, convexify_sq_dev, _targets(scenario, desired))


def plan_baselines(scenario: Scenario, desired_list) -> list[PlanResult]:
    """plan_baseline for each desired supply, in order, every round through one HotStart: HiGHS
    re-solves an LP whose rows and column bounds equal the last one's from its optimal basis
    with the new gains. Where y_max <= 64 each baseline is one LP. A windowed round (fine columns
    after coarse ones), or an LP whose chords merge near DESIRED_MAX, starts a new HiGHS model."""
    hot = HotStart()
    return [_solve(scenario, convexify_sq_dev, _targets(scenario, d), hot=hot)
            for d in desired_list]
