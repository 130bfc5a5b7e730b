import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftopt import roster as rostering
from shiftopt import (
    Boundary,
    ExtendedShift,
    Roster,
    Scenario,
    ShiftPlan,
    greedy_assign,
    overlap,
    rebalance,
    roster_to_csv,
    verify_roster,
)

from oracles import greedy_assign_by_scan, sample_feasible_plan


def scenario(**kw):
    base = dict(T=8, N=2, s=1, delta=2, beta=1, d_max=1.0, a=1.0, c_veh=10)
    base.update(kw)
    return Scenario(**base)


class TestOverlap:
    @pytest.mark.parametrize("end", [3, 2])
    def test_shift_of_no_length_rejected(self, end):
        with pytest.raises(ValueError, match="positive length"):
            ExtendedShift(3, end)

    def test_touching_half_open_intervals(self):
        assert not overlap(ExtendedShift(0, 16), ExtendedShift(16, 32))

    def test_one_step_overlap(self):
        assert overlap(ExtendedShift(0, 16), ExtendedShift(15, 31))

    def test_self_overlap(self):
        s = ExtendedShift(3, 7)
        assert overlap(s, s)


class TestGreedyAssign:
    def test_empty_plan(self):
        sc = scenario()
        roster = greedy_assign(ShiftPlan(x=np.zeros(8, dtype=int)), sc)
        assert roster.counts() == [0, 0]

    def test_single_driver_two_shifts(self):
        sc = scenario(N=1, s=2)
        roster = greedy_assign(ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0])), sc)
        starts = [sh.start for sh in roster.assignments[0]]
        assert starts == [1, 4]
        # extended shifts [1,4) and [4,7) do not overlap
        assert not overlap(*roster.assignments[0])

    def test_simultaneous_starts_need_two_drivers(self):
        sc = scenario(T=4, N=2, s=1)
        roster = greedy_assign(ShiftPlan(x=np.array([2, 0, 0, 0])), sc)
        assert [sh.start for a in roster.assignments for sh in a] == [1, 1]
        assert roster.counts() == [1, 1]

    def test_overfull_plan_rejected(self):
        sc = scenario(T=4, N=1, s=2)
        with pytest.raises(ValueError, match="z_t <= N"):
            greedy_assign(ShiftPlan(x=np.array([1, 1, 0, 0])), sc)

    def test_circular_plans_rejected(self):
        sc = scenario(boundary=Boundary.CIRCULAR)
        with pytest.raises(ValueError, match="zero-padded"):
            greedy_assign(ShiftPlan(x=np.zeros(8, dtype=int)), sc)


def _message(fn, *args):
    """The message of the ValueError fn(*args) raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _first_clash(plan, sc):
    """The message of dealing every shift of the plan in start order to N
    drivers in turn, at the first shift that overlaps the one N places before
    it, or None if it deals."""
    length = sc.delta + sc.beta
    shifts = [ExtendedShift(t, t + length) for t, c in enumerate(plan.x.tolist(), 1)
              for _ in range(c)]
    clash = next((b for a, b in zip(shifts, shifts[sc.N:]) if overlap(a, b)), None)
    return None if clash is None else (
        f"no driver available at step {clash.start}: plan violates z_t <= N")


class TestZBoundBeforeAnyShift:
    """greedy_assign rejects z_t > N from the supply curve, at the step where
    dealing the shifts would first clash, before it builds any shift."""

    @pytest.mark.parametrize("x, N, delta, beta", [
        ([1, 1, 0, 0], 1, 2, 1),
        ([3, 0, 0, 0], 2, 1, 0),
        ([0, 1, 1, 1, 0, 2], 2, 2, 1),
        ([2, 0, 0, 1, 1, 0, 0, 0], 2, 2, 2),
        ([0, 0, 1], 0, 1, 0),
    ])
    def test_hand_plans(self, x, N, delta, beta):
        sc = scenario(T=len(x), N=N, delta=delta, beta=beta)
        plan = ShiftPlan(x=np.array(x))
        expected = _first_clash(plan, sc)
        assert expected is not None
        assert _message(greedy_assign, plan, sc) == expected

    @given(x=st.lists(st.integers(0, 4), min_size=1, max_size=30), N=st.integers(0, 6),
           delta=st.integers(1, 4), beta=st.integers(0, 3))
    def test_random_plans(self, x, N, delta, beta):
        sc = scenario(T=len(x), N=N, delta=min(delta, len(x)), beta=beta)
        plan = ShiftPlan(x=np.array(x))
        assert _message(greedy_assign, plan, sc) == _first_clash(plan, sc)

    def test_no_pairwise_scan(self, monkeypatch):
        # the z_t <= N check rules out every clash, so no pair of shifts is compared
        sc = scenario(T=6, N=2, s=2, delta=1, beta=1)
        plan = ShiftPlan(x=np.array([2, 0, 1, 0, 1, 0]))
        monkeypatch.setattr(rostering, "overlap", lambda *a: pytest.fail("scanned"))
        roster = greedy_assign(plan, sc)
        monkeypatch.undo()
        assert verify_roster(roster, plan, sc).ok

    def test_no_shift_is_built(self, monkeypatch):
        # 10**6 + 1 starts at one step used to be expanded before the clash
        monkeypatch.setattr(rostering, "ExtendedShift", lambda *a, **k: pytest.fail("built"))
        sc = scenario(T=2, N=10**6, c_veh=10**6, delta=1, beta=0)
        with pytest.raises(ValueError, match="no driver available at step 1: "):
            greedy_assign(ShiftPlan(x=np.array([10**6 + 1, 0])), sc)


class TestGreedyAssignMatchesScan:
    """greedy_assign, which deals shifts in start order, against the quadratic
    scan that defines the greedy."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_plans(self, seed):
        rng = np.random.default_rng([seed, 7])
        sc = scenario(
            T=int(rng.integers(4, 40)),
            N=int(rng.integers(0, 12)),
            delta=int(rng.integers(1, 4)),
            beta=int(rng.integers(0, 4)),
        )
        # unconstrained draws: some plans need more than N drivers at once
        plan = ShiftPlan(x=rng.integers(0, 3, size=sc.T) * (rng.random(sc.T) < 0.5))
        try:
            expected = greedy_assign_by_scan(plan, sc)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                greedy_assign(plan, sc)
        else:
            assert greedy_assign(plan, sc) == expected

    def test_large_fleet_plan(self, large_fleet_scenario, large_fleet_result):
        plan = large_fleet_result.plan
        roster = greedy_assign(plan, large_fleet_scenario)
        assert roster == greedy_assign_by_scan(plan, large_fleet_scenario)
        assert roster.n_drivers == 400


class TestDealtRosterIsBalanced:
    """A plan with sum(x) = s*N and z_t <= N is dealt with exactly s shifts per
    driver, so rebalance has nothing to move."""

    @staticmethod
    def check(plan, sc):
        roster = greedy_assign(plan, sc)
        assert roster.counts() == [sc.s] * sc.N
        trace = []
        assert rebalance(roster, sc.s, trace=trace) == roster
        assert trace == []

    def test_random_plans(self):
        rng = np.random.default_rng(2005)
        checked = 0
        for _ in range(200):
            sc = scenario(
                T=int(rng.integers(4, 30)),
                N=int(rng.integers(1, 6)),
                s=int(rng.integers(1, 4)),
                delta=int(rng.integers(1, 4)),
                beta=int(rng.integers(0, 3)),
            )
            plan = sample_feasible_plan(sc, rng, tries=50)
            if plan is not None:
                self.check(plan, sc)
                checked += 1
        assert checked >= 100

    def test_large_fleet_plan(self, large_fleet_scenario, large_fleet_result):
        self.check(large_fleet_result.plan, large_fleet_scenario)


class TestRebalance:
    def test_balanced_roster_unchanged(self):
        roster = Roster(
            assignments=(
                (ExtendedShift(1, 4),),
                (ExtendedShift(2, 5),),
            )
        )
        assert rebalance(roster, 1) == roster

    def test_single_swap(self):
        roster = Roster(
            assignments=(
                (ExtendedShift(0, 3), ExtendedShift(6, 9)),
                (),
            )
        )
        out = rebalance(roster, 1)
        assert out.counts() == [1, 1]
        moved = {sh for a in out.assignments for sh in a}
        assert moved == {ExtendedShift(0, 3), ExtendedShift(6, 9)}

    def test_swap_moves_chain_not_overlapping_shift(self):
        # 3-vs-1 with overlapping shifts across drivers: the shifts dealt
        # again must keep breaks valid
        roster = Roster(
            assignments=(
                (ExtendedShift(0, 4), ExtendedShift(5, 9), ExtendedShift(12, 16)),
                (ExtendedShift(7, 11),),
            )
        )
        out = rebalance(roster, 2)
        assert sorted(out.counts()) == [2, 2]
        for a in out.assignments:
            ordered = sorted(a)
            for s1, s2 in zip(ordered, ordered[1:]):
                assert not overlap(s1, s2)

    def test_imbalance_four_dealt_at_once(self):
        shifts = (ExtendedShift(0, 3), ExtendedShift(3, 6), ExtendedShift(6, 9),
                  ExtendedShift(9, 12))
        trace = []
        out = rebalance(Roster(assignments=(shifts, ())), 2, trace=trace)
        assert out.counts() == [2, 2]
        for a in out.assignments:
            assert not overlap(*a)
        assert trace == [[2, 2]]

    def test_overlapping_roster_rejected(self):
        roster = Roster(assignments=(
            (ExtendedShift(0, 3), ExtendedShift(1, 4), ExtendedShift(2, 5), ExtendedShift(6, 9)),
            (),
        ))
        with pytest.raises(ValueError, match="extended-shift constraint"):
            rebalance(roster, 2)

    def test_shift_count_not_s_per_driver_rejected(self):
        roster = Roster(assignments=((ExtendedShift(0, 3), ExtendedShift(4, 7)), ()))
        with pytest.raises(ValueError, match="not s \\* n_drivers"):
            rebalance(roster, 2)

    def test_mixed_lengths_rejected(self):
        roster = Roster(
            assignments=((ExtendedShift(0, 3),), (ExtendedShift(4, 9),))
        )
        with pytest.raises(ValueError, match="equal length"):
            rebalance(roster, 1)

    def test_trace_counts_swaps(self):
        roster = Roster(
            assignments=(
                (ExtendedShift(0, 3), ExtendedShift(6, 9)),
                (),
            )
        )
        trace = []
        rebalance(roster, 1, trace=trace)
        assert trace == [[1, 1]]


class TestVerifyRoster:
    def test_valid_pipeline_output(self):
        sc = scenario(N=2, s=2, T=12)
        plan = ShiftPlan(x=np.array([2, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]))
        roster = rebalance(greedy_assign(plan, sc), sc.s)
        assert verify_roster(roster, plan, sc).ok

    def test_detects_overlap(self):
        sc = scenario(N=1, s=2, T=8)
        plan = ShiftPlan(x=np.array([1, 1, 0, 0, 0, 0, 0, 0]))
        roster = Roster(assignments=((ExtendedShift(1, 4), ExtendedShift(2, 5)),))
        report = verify_roster(roster, plan, sc)
        assert not report.ok
        assert any("overlap" in v for v in report.violations)

    def test_detects_missing_shift(self):
        sc = scenario(N=1, s=2, T=8)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        roster = Roster(assignments=((ExtendedShift(1, 4),),))
        report = verify_roster(roster, plan, sc)
        assert not report.ok
        assert any("multiset" in v for v in report.violations)

    def test_detects_more_drivers_than_available(self):
        sc = scenario(N=1, s=1, T=8)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        roster = Roster(assignments=((ExtendedShift(1, 4),), (ExtendedShift(4, 7),)))
        report = verify_roster(roster, plan, sc)
        assert report.violations == ("more drivers than available",)

    def test_detects_wrong_count(self):
        sc = scenario(N=2, s=1, T=8)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        roster = Roster(
            assignments=((ExtendedShift(1, 4), ExtendedShift(4, 7)), ())
        )
        report = verify_roster(roster, plan, sc)
        assert not report.ok
        assert any("exactly s" in v for v in report.violations)


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_plans_roster_cleanly(self, seed):
        rng = np.random.default_rng(seed)
        sc = Scenario(
            T=int(rng.integers(4, 10)),
            N=int(rng.integers(1, 4)),
            s=int(rng.integers(1, 3)),
            delta=int(rng.integers(1, 3)),
            beta=int(rng.integers(0, 2)),
            d_max=1.0,
            a=1.0,
            c_veh=100,
        )
        plan = sample_feasible_plan(sc, rng)
        if plan is None:
            pytest.skip("no feasible plan sampled")
        trace = []
        roster = rebalance(greedy_assign(plan, sc), sc.s, trace=trace)
        assert verify_roster(roster, plan, sc).ok
        # each swap moves exactly one surplus shift
        imbalances = [sum(abs(c - sc.s) for c in counts) for counts in trace]
        for before, after in zip(imbalances, imbalances[1:]):
            assert before - after == 2


class TestCsvExport:
    def test_header_and_rows(self):
        sc = scenario(N=1, s=2)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        roster = rebalance(greedy_assign(plan, sc), sc.s)
        lines = roster_to_csv(roster, sc).splitlines()
        assert lines[0] == "driver_id,shift_index,start_step,end_step"
        assert lines[1] == "0,0,1,3"
        assert lines[2] == "0,1,4,6"
