"""Assigns an optimized shift plan to individual drivers.

`greedy_assign` places every shift start on some driver whose previous
extended shift (shift plus mandatory break) has ended; `rebalance` then
equalizes shift counts by swapping alternating chains of overlapping extended
shifts between an over- and an under-loaded driver. Together they realize a
roster with exactly s shifts per driver and valid breaks for any plan that
satisfies the total-shift and extended-shift constraints.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass

from .domain import Boundary, Scenario, ShiftPlan

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
    """Assign shift starts in time order to drivers who are available.

    Ties go to the driver with the fewest shifts so far, then the lowest
    index. Produces valid breaks but possibly unequal shift counts.
    """
    if scenario.boundary is Boundary.CIRCULAR:
        raise ValueError("rostering is defined for zero-padded plans only")
    if len(plan) != scenario.T:
        raise ValueError(f"plan length {len(plan)} != T={scenario.T}")
    length = scenario.delta + scenario.beta
    counts = [0] * scenario.N
    free = [(0, i) for i in range(scenario.N)]  # heap of available (count, driver)
    busy: list[tuple[int, int]] = []  # heap of (step the driver is free again, driver)
    assignments: list[list[ExtendedShift]] = [[] for _ in range(scenario.N)]
    for t in range(1, scenario.T + 1):
        while busy and busy[0][0] <= t:
            i = heapq.heappop(busy)[1]
            heapq.heappush(free, (counts[i], i))
        for _ in range(int(plan.x[t - 1])):
            if not free:
                raise ValueError(
                    f"no driver available at step {t}: plan violates z_t <= N"
                )
            i = heapq.heappop(free)[1]
            assignments[i].append(ExtendedShift(start=t, end=t + length))
            heapq.heappush(busy, (t + length, i))
            counts[i] += 1
    return Roster(assignments=tuple(tuple(a) for a in assignments))


def _components(shifts: list[tuple[ExtendedShift, int]]):
    """Connected components of the overlap graph, in start order.

    `shifts` holds (shift, owner) pairs; owners alternate within a component
    because same-owner shifts never overlap.
    """
    ordered = sorted(shifts, key=lambda p: (p[0].start, p[1]))
    components: list[list[tuple[ExtendedShift, int]]] = []
    for item in ordered:
        if components and overlap(components[-1][-1][0], item[0]):
            components[-1].append(item)
        else:
            components.append([item])
    return components


def rebalance(roster: Roster, s: int, trace: list | None = None) -> Roster:
    """Equalize shift counts to exactly s per driver, keeping breaks valid.

    Repeatedly swaps a path of alternating extended shifts between the
    most-loaded and least-loaded driver; each swap moves one shift of surplus.
    `trace` (testing hook) receives the per-driver counts after every swap.
    """
    assignments = [list(a) for a in roster.assignments]
    lengths = {sh.end - sh.start for a in assignments for sh in a}
    if len(lengths) > 1:
        raise ValueError("extended shifts must all have equal length")
    while True:
        counts = [len(a) for a in assignments]
        over = [i for i, c in enumerate(counts) if c > s]
        under = [i for i, c in enumerate(counts) if c < s]
        if not over and not under:
            break
        if not over or not under:
            raise ValueError("total shift count is not s * n_drivers")
        d1 = max(over, key=lambda i: (counts[i], -i))
        d2 = min(under, key=lambda i: (counts[i], i))
        pool = [(sh, 1) for sh in assignments[d1]] + [(sh, 2) for sh in assignments[d2]]
        swap_path = None
        for comp in _components(pool):
            n1 = sum(1 for _, who in comp if who == 1)
            n2 = len(comp) - n1
            if n1 - n2 == 1:
                swap_path = comp
                break
        if swap_path is None:
            raise ValueError(
                "no rebalancing path found: roster does not satisfy the "
                "extended-shift constraint"
            )
        moved_to_d2 = [sh for sh, who in swap_path if who == 1]
        moved_to_d1 = [sh for sh, who in swap_path if who == 2]
        assignments[d1] = sorted(
            [sh for sh in assignments[d1] if sh not in moved_to_d2] + moved_to_d1
        )
        assignments[d2] = sorted(
            [sh for sh in assignments[d2] if sh not in moved_to_d1] + moved_to_d2
        )
        if trace is not None:
            trace.append([len(a) for a in assignments])
    return Roster(assignments=tuple(tuple(sorted(a)) for a in assignments))


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
