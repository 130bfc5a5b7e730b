"""Assigns an optimized shift plan to individual drivers.

All extended shifts (shift plus mandatory break) have one length, so the
shifts at positions k and k + n in start order overlap only if n + 1 extended
shifts are active at once. Dealing the sorted shifts to n drivers in turn (the
k-th to driver k mod n) is therefore valid whenever z_t <= n, and gives every
driver the same count up to one (the depth bound of interval partitioning,
Kleinberg & Tardos 2006, Algorithm Design, section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Boundary, Scenario, ShiftPlan, supply_curve

__all__ = ["Roster", "VerificationReport", "greedy_assign", "rebalance", "roster_to_csv",
           "verify_roster"]

_CSV_ROWS = 2**16


@dataclass(frozen=True, eq=False)
class Roster:
    """Shift k starts at step start[k] and is worked by driver[k]; every
    extended shift covers the half-open steps [start, start + length).

    The arrays come back as int64, sorted by driver and then by start. Two
    rosters are compared field by field, with np.array_equal on the arrays.
    """

    driver: np.ndarray
    start: np.ndarray
    n_drivers: int
    length: int

    def __post_init__(self):
        driver, start = np.asarray(self.driver), np.asarray(self.start)
        if driver.ndim != 1 or driver.shape != start.shape:
            raise ValueError("driver and start must be 1-D arrays of one shape")
        if driver.size and not (np.issubdtype(driver.dtype, np.integer)
                                and np.issubdtype(start.dtype, np.integer)):
            raise ValueError("driver and start must be integer arrays")
        if self.length < 1:
            raise ValueError("extended shift must have positive length")
        if driver.size and (driver.min() < 0 or driver.max() >= self.n_drivers):
            raise ValueError(f"driver indices must lie in 0..{self.n_drivers - 1}")
        order = np.lexsort((start, driver))
        object.__setattr__(self, "driver", driver[order].astype(np.int64))
        object.__setattr__(self, "start", start[order].astype(np.int64))

    def counts(self) -> list[int]:
        return np.bincount(self.driver, minlength=self.n_drivers).tolist()


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...]


def greedy_assign(plan: ShiftPlan, scenario: Scenario) -> Roster:
    """Deal the plan's shifts in start order to the N drivers in turn.

    This is the greedy that gives each start to the available driver with the
    fewest shifts, then the lowest index. Every driver gets the same count up
    to one, so a plan with sum(x) = s*N gives every driver exactly s shifts.
    """
    if scenario.boundary is Boundary.CIRCULAR:
        raise ValueError("rostering is defined for zero-padded plans only")
    # in O(T), before any per-shift array is built (supply_curve checks the
    # plan's length first): dealing clashes first at the first step with
    # z_t > N, and nowhere if there is none
    over = supply_curve(plan, scenario).z > scenario.N
    if over.any():
        raise ValueError(f"no driver available at step {over.argmax() + 1}: plan violates z_t <= N")
    start = np.repeat(np.arange(1, scenario.T + 1), plan.x)
    return Roster(driver=np.arange(start.size) % scenario.N, start=start,
                  n_drivers=scenario.N, length=scenario.delta + scenario.beta)


def rebalance(roster: Roster, s: int, trace: list | None = None) -> Roster:
    """Equalize shift counts to exactly s per driver, keeping breaks valid.

    A roster with s shifts on every driver comes back as it is; any other is
    dealt again over its drivers in start order. `trace` (testing hook)
    receives the per-driver counts if a shift moved.
    """
    if all(c == s for c in roster.counts()):
        return roster
    n = roster.n_drivers
    if roster.start.size != s * n:
        raise ValueError("total shift count is not s * n_drivers")
    # the k-th shift in start order goes to driver k mod n, so each driver's
    # shifts are free of clashes if no shift overlaps the one n places before it
    start = np.sort(roster.start)
    clash = np.flatnonzero(start[n:] - start[:-n] < roster.length)
    if clash.size:
        raise ValueError(f"no driver available at step {start[clash[0] + n]}: "
                         "roster does not satisfy the extended-shift constraint")
    dealt = Roster(driver=np.arange(start.size) % n, start=start, n_drivers=n,
                   length=roster.length)
    if trace is not None:
        trace.append(dealt.counts())
    return dealt


def verify_roster(roster: Roster, plan: ShiftPlan, scenario: Scenario) -> VerificationReport:
    """Check the roster against the plan and the per-driver constraints."""
    violations: list[str] = []
    # the plan's starts are spelt out only when their count is the roster's
    if roster.start.size != plan.total or not np.array_equal(
            np.sort(roster.start), np.repeat(np.arange(1, len(plan) + 1), plan.x)):
        violations.append("start multiset does not match the plan")
    driver, start = roster.driver, roster.start
    clash = (driver[1:] == driver[:-1]) & (np.diff(start) < scenario.delta + scenario.beta)
    for i in np.unique(driver[1:][clash]).tolist():
        violations.append(f"driver {i}: overlapping extended shifts")
    if np.any(np.bincount(driver, minlength=roster.n_drivers) != scenario.s):
        violations.append("not every driver works exactly s shifts")
    if roster.n_drivers > scenario.N:
        violations.append("more drivers than available")
    return VerificationReport(ok=not violations, violations=tuple(violations))


def roster_to_csv(roster: Roster, scenario: Scenario) -> str:
    """CSV export: driver_id, shift_index, start_step, end_step (break excluded)."""
    driver, start = roster.driver, roster.start
    first = np.searchsorted(driver, driver)  # each driver's first row
    rows = np.column_stack([driver, np.arange(driver.size) - first, start,
                            start + scenario.delta])
    # one format call per chunk of rows: one call over all 2**20 rows would hold
    # every number as a Python int at once, about 130 MiB more peak RSS
    text = ["driver_id,shift_index,start_step,end_step\n"]
    for i in range(0, len(rows), _CSV_ROWS):
        chunk = rows[i : i + _CSV_ROWS]
        text.append("%d,%d,%d,%d\n" * len(chunk) % tuple(chunk.ravel().tolist()))
    return "".join(text)
