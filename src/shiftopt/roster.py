"""Assigns an optimized shift plan to individual drivers.

All extended shifts (shift plus mandatory break) have one length, so the
shifts at positions k and k + n in start order overlap only if n + 1 extended
shifts are active at once. Dealing the sorted shifts to n drivers in turn (the
k-th to driver k mod n) is therefore valid whenever z_t <= n, and gives every
driver the same count up to one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .domain import Boundary, Scenario, ShiftPlan, supply_curve

__all__ = [
    "ExtendedShift",
    "Roster",
    "VerificationReport",
    "greedy_assign",
    "overlap",
    "rebalance",
    "roster_to_csv",
    "verify_roster",
]


@dataclass(frozen=True, order=True)
class ExtendedShift:
    """Half-open interval [start, end); end includes the mandatory break."""

    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("extended shift must have positive length")


@dataclass(frozen=True)
class Roster:
    """Per-driver ordered lists of extended shifts."""

    assignments: tuple[tuple[ExtendedShift, ...], ...]

    @property
    def n_drivers(self) -> int:
        return len(self.assignments)

    def counts(self) -> list[int]:
        return [len(a) for a in self.assignments]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...]


def overlap(s1: ExtendedShift, s2: ExtendedShift) -> bool:
    """Whether the two half-open intervals intersect."""
    return s1.start < s2.end and s2.start < s1.end


def greedy_assign(plan: ShiftPlan, scenario: Scenario) -> Roster:
    """Deal the plan's shifts in start order to the N drivers in turn.

    This is the greedy that gives each start to the available driver with the
    fewest shifts, then the lowest index. Every driver gets the same count up
    to one, so a plan with sum(x) = s*N gives every driver exactly s shifts.
    """
    if scenario.boundary is Boundary.CIRCULAR:
        raise ValueError("rostering is defined for zero-padded plans only")
    # in O(T), before any shift is built (supply_curve checks the plan's length
    # first): dealing clashes first at the first step with z_t > N, and nowhere
    # if there is none, so the shifts are dealt below without a pairwise scan
    over = supply_curve(plan, scenario).z > scenario.N
    if over.any():
        raise ValueError(f"no driver available at step {over.argmax() + 1}: plan violates z_t <= N")
    length, n = scenario.delta + scenario.beta, scenario.N
    shifts = [ExtendedShift(start=t, end=t + length)
              for t, c in enumerate(plan.x.tolist(), 1) for _ in range(c)]
    return Roster(assignments=tuple(tuple(shifts[i::n]) for i in range(n)))


def rebalance(roster: Roster, s: int, trace: list | None = None) -> Roster:
    """Equalize shift counts to exactly s per driver, keeping breaks valid.

    A roster with s shifts on every driver comes back with each driver's
    shifts sorted; any other is dealt again over its drivers in start order.
    `trace` (testing hook) receives the per-driver counts if a shift moved.
    """
    shifts = [sh for a in roster.assignments for sh in a]
    if len({sh.end - sh.start for sh in shifts}) > 1:
        raise ValueError("extended shifts must all have equal length")
    if all(c == s for c in roster.counts()):
        return Roster(assignments=tuple(tuple(sorted(a)) for a in roster.assignments))
    if len(shifts) != s * roster.n_drivers:
        raise ValueError("total shift count is not s * n_drivers")
    # the k-th shift in start order goes to driver k mod n, so each driver's
    # shifts are free of clashes if no shift overlaps the one n places before it
    shifts, n = sorted(shifts), roster.n_drivers
    clash = next((b for a, b in zip(shifts, shifts[n:]) if overlap(a, b)), None)
    if clash is not None:
        raise ValueError(f"no driver available at step {clash.start}: "
                         "roster does not satisfy the extended-shift constraint")
    dealt = Roster(assignments=tuple(tuple(shifts[i::n]) for i in range(n)))
    if trace is not None:
        trace.append(dealt.counts())
    return dealt


def verify_roster(
    roster: Roster, plan: ShiftPlan, scenario: Scenario
) -> VerificationReport:
    """Check the roster against the plan and the per-driver constraints."""
    violations: list[str] = []
    starts: dict[int, int] = {}
    for a in roster.assignments:
        for sh in a:
            starts[sh.start] = starts.get(sh.start, 0) + 1
    expected = {t: int(plan.x[t - 1]) for t in range(1, len(plan) + 1) if plan.x[t - 1] > 0}
    if starts != expected:
        violations.append("start multiset does not match the plan")
    for i, a in enumerate(roster.assignments):
        ordered = sorted(a)
        for s1, s2 in zip(ordered, ordered[1:]):
            if overlap(s1, s2):
                violations.append(f"driver {i}: overlapping extended shifts")
                break
    counts = roster.counts()
    if any(c != scenario.s for c in counts):
        violations.append("not every driver works exactly s shifts")
    if roster.n_drivers > scenario.N:
        violations.append("more drivers than available")
    return VerificationReport(ok=not violations, violations=tuple(violations))


def roster_to_csv(roster: Roster, scenario: Scenario) -> str:
    """CSV export: driver_id, shift_index, start_step, end_step (break excluded)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["driver_id", "shift_index", "start_step", "end_step"])
    for i, a in enumerate(roster.assignments):
        for k, sh in enumerate(sorted(a)):
            writer.writerow([i, k, sh.start, sh.start + scenario.delta])
    return buf.getvalue()
