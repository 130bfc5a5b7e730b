import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftopt import roster as rostering
from shiftopt import (
    Boundary,
    Roster,
    Scenario,
    ShiftPlan,
    greedy_assign,
    rebalance,
    roster_to_csv,
    verify_roster,
)

from oracles import greedy_assign_by_scan, sample_feasible_plan, supply_by_window_sums


def scenario(**kw):
    base = dict(T=8, N=2, s=1, delta=2, beta=1, d_max=1.0, a=1.0, c_veh=10)
    base.update(kw)
    return Scenario(**base)


def make_roster(n_drivers, length, *shifts):
    """A roster from (driver, start) pairs."""
    driver, start = zip(*shifts) if shifts else ((), ())
    return Roster(driver=np.array(driver, dtype=np.int64), start=np.array(start, dtype=np.int64),
                  n_drivers=n_drivers, length=length)


def assert_same_roster(a, b):
    assert np.array_equal(a.driver, b.driver) and np.array_equal(a.start, b.start)
    assert (a.n_drivers, a.length) == (b.n_drivers, b.length)


class TestRoster:
    def test_sorted_by_driver_then_start(self):
        roster = Roster(driver=np.array([1, 0, 1, 0], dtype=np.int32), start=[5, 9, 2, 1],
                        n_drivers=3, length=2)
        assert roster.driver.tolist() == [0, 0, 1, 1]
        assert roster.start.tolist() == [1, 9, 2, 5]
        assert roster.driver.dtype == roster.start.dtype == np.int64
        assert roster.counts() == [2, 2, 0]

    @pytest.mark.parametrize("driver, n_drivers", [([0, -1], 2), ([0, 2], 2), ([0], 0)])
    def test_driver_outside_fleet_rejected(self, driver, n_drivers):
        with pytest.raises(ValueError, match="driver indices"):
            Roster(driver=driver, start=[1] * len(driver), n_drivers=n_drivers, length=2)

    @pytest.mark.parametrize("driver, start", [
        ([0, 1], [1]), ([0], [1, 2]), ([[0]], [[1]]), ([0], [[1]]), (0, 1),
    ])
    def test_mismatched_shapes_rejected(self, driver, start):
        with pytest.raises(ValueError, match="1-D arrays of one shape"):
            Roster(driver=driver, start=start, n_drivers=2, length=2)

    @pytest.mark.parametrize("driver, start", [([0.0], [1]), ([0], [1.5]), ([True], [1])])
    def test_non_integer_entries_rejected(self, driver, start):
        with pytest.raises(ValueError, match="integer arrays"):
            Roster(driver=driver, start=start, n_drivers=1, length=2)

    @pytest.mark.parametrize("length", [0, -1])
    def test_shift_of_no_length_rejected(self, length):
        with pytest.raises(ValueError, match="positive length"):
            Roster(driver=[0], start=[3], n_drivers=1, length=length)


class TestGreedyAssign:
    def test_empty_plan(self):
        sc = scenario()
        roster = greedy_assign(ShiftPlan(x=np.zeros(8, dtype=int)), sc)
        assert roster.counts() == [0, 0]

    def test_single_driver_two_shifts(self):
        sc = scenario(N=1, s=2)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        roster = greedy_assign(plan, sc)
        assert roster.start.tolist() == [1, 4]
        # extended shifts [1,4) and [4,7) do not overlap
        assert verify_roster(roster, plan, sc).ok

    def test_simultaneous_starts_need_two_drivers(self):
        sc = scenario(T=4, N=2, s=1)
        roster = greedy_assign(ShiftPlan(x=np.array([2, 0, 0, 0])), sc)
        assert roster.start.tolist() == [1, 1]
        assert roster.driver.tolist() == [0, 1]

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
    starts = [t for t, c in enumerate(plan.x.tolist(), 1) for _ in range(c)]
    clash = next((b for a, b in zip(starts, starts[sc.N:]) if b - a < sc.delta + sc.beta), None)
    return None if clash is None else (
        f"no driver available at step {clash}: plan violates z_t <= N")


class TestZBoundBeforeAnyShift:
    """greedy_assign rejects z_t > N from the supply curve, at the step where
    dealing the shifts would first clash, before it builds any per-shift array."""

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

    def test_no_shift_is_built(self, monkeypatch):
        # 10**6 + 1 starts at one step used to be expanded before the clash
        monkeypatch.setattr(np, "repeat", lambda *a, **k: pytest.fail("built"))
        monkeypatch.setattr(rostering, "Roster", lambda *a, **k: pytest.fail("built"))
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
            assert_same_roster(greedy_assign(plan, sc), expected)

    def test_large_fleet_plan(self, large_fleet_scenario, large_fleet_result):
        plan = large_fleet_result.plan
        roster = greedy_assign(plan, large_fleet_scenario)
        assert_same_roster(roster, greedy_assign_by_scan(plan, large_fleet_scenario))
        assert roster.n_drivers == 400


class TestDealtRosterIsBalanced:
    """A plan with sum(x) = s*N and z_t <= N is dealt with exactly s shifts per
    driver, so rebalance has nothing to move."""

    @staticmethod
    def check(plan, sc):
        roster = greedy_assign(plan, sc)
        assert roster.counts() == [sc.s] * sc.N
        trace = []
        assert rebalance(roster, sc.s, trace=trace) is roster
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


def no_clash(roster):
    """Whether each driver's consecutive shifts are at least `length` apart."""
    same = roster.driver[1:] == roster.driver[:-1]
    return bool(np.all(np.diff(roster.start)[same] >= roster.length))


class TestRebalance:
    def test_balanced_roster_unchanged(self):
        roster = make_roster(2, 3, (0, 1), (1, 2))
        assert rebalance(roster, 1) is roster

    def test_single_swap(self):
        out = rebalance(make_roster(2, 3, (0, 0), (0, 6)), 1)
        assert out.counts() == [1, 1]
        assert sorted(out.start.tolist()) == [0, 6]

    def test_swap_moves_chain_not_overlapping_shift(self):
        # 3-vs-1 with overlapping shifts across drivers: the shifts dealt
        # again must keep breaks valid
        roster = make_roster(2, 4, (0, 0), (0, 5), (0, 12), (1, 7))
        out = rebalance(roster, 2)
        assert sorted(out.counts()) == [2, 2]
        assert no_clash(out)

    def test_imbalance_four_dealt_at_once(self):
        trace = []
        out = rebalance(make_roster(2, 3, (0, 0), (0, 3), (0, 6), (0, 9)), 2, trace=trace)
        assert out.counts() == [2, 2]
        assert no_clash(out)
        assert trace == [[2, 2]]

    def test_shifts_length_apart_dealt(self):
        # starts 0 and 3 (and 1 and 4) touch: each pair can go to one driver
        out = rebalance(make_roster(2, 3, (0, 0), (0, 1), (0, 3), (0, 4)), 2)
        assert out.driver.tolist() == [0, 0, 1, 1]
        assert out.start.tolist() == [0, 3, 1, 4]

    def test_overlapping_roster_rejected(self):
        roster = make_roster(2, 3, (0, 0), (0, 1), (0, 2), (0, 6))
        with pytest.raises(ValueError, match="step 2: roster does not satisfy the "
                                             "extended-shift constraint"):
            rebalance(roster, 2)

    def test_shift_count_not_s_per_driver_rejected(self):
        with pytest.raises(ValueError, match="not s \\* n_drivers"):
            rebalance(make_roster(2, 3, (0, 0), (0, 4)), 2)

    def test_trace_counts_swaps(self):
        trace = []
        rebalance(make_roster(2, 3, (0, 0), (0, 6)), 1, trace=trace)
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
        report = verify_roster(make_roster(1, 3, (0, 1), (0, 2)), plan, sc)
        assert not report.ok
        assert any("overlap" in v for v in report.violations)

    def test_shifts_length_apart_pass(self):
        # extended shifts [1,4) and [4,7) touch but do not overlap
        sc = scenario(N=1, s=2, T=8)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        assert verify_roster(make_roster(1, 3, (0, 1), (0, 4)), plan, sc).ok

    @pytest.mark.parametrize("gap", [2, 0])
    def test_shifts_closer_than_length_fail(self, gap):
        sc = scenario(N=1, s=2, T=8)
        x = np.zeros(8, dtype=np.int64)
        np.add.at(x, [0, gap], 1)
        roster = make_roster(1, 3, (0, 1), (0, 1 + gap))
        assert verify_roster(roster, ShiftPlan(x=x), sc).violations == (
            "driver 0: overlapping extended shifts",)

    def test_detects_missing_shift(self):
        sc = scenario(N=1, s=2, T=8)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        report = verify_roster(make_roster(1, 3, (0, 1)), plan, sc)
        assert not report.ok
        assert any("multiset" in v for v in report.violations)

    def test_detects_repeated_start(self):
        # the same set of start steps, {1, 4}, with 4 started twice instead of 1
        sc = scenario(N=3, s=1, T=8)
        plan = ShiftPlan(x=np.array([2, 0, 0, 1, 0, 0, 0, 0]))
        report = verify_roster(make_roster(3, 3, (0, 1), (1, 4), (2, 4)), plan, sc)
        assert report.violations == ("start multiset does not match the plan",)

    def test_plan_far_larger_than_roster(self, monkeypatch):
        # 2**40 planned starts are counted, not spelt out one by one
        monkeypatch.setattr(np, "repeat", lambda *a, **k: pytest.fail("built"))
        sc = scenario(N=1, s=1, T=2)
        report = verify_roster(make_roster(1, 3, (0, 1)), ShiftPlan(x=np.array([2**40, 0])), sc)
        assert report.violations == ("start multiset does not match the plan",)

    def test_detects_more_drivers_than_available(self):
        sc = scenario(N=1, s=1, T=8)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        report = verify_roster(make_roster(2, 3, (0, 1), (1, 4)), plan, sc)
        assert report.violations == ("more drivers than available",)

    def test_detects_wrong_count(self):
        sc = scenario(N=2, s=1, T=8)
        plan = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0, 0, 0]))
        report = verify_roster(make_roster(2, 3, (0, 1), (0, 4)), plan, sc)
        assert not report.ok
        assert any("exactly s" in v for v in report.violations)


class TestVerifyRosterMutations:
    """Every one-shift change to a verified roster is caught."""

    def test_moving_a_shift_to_another_driver(self, headline_scenario, headline_result):
        sc, plan = headline_scenario, headline_result.plan
        roster = greedy_assign(plan, sc)
        assert verify_roster(roster, plan, sc).ok
        for k in range(roster.driver.size):
            for other in range(sc.N):
                if other != roster.driver[k]:
                    driver = roster.driver.copy()
                    driver[k] = other
                    moved = Roster(driver=driver, start=roster.start, n_drivers=sc.N,
                                   length=roster.length)
                    assert not verify_roster(moved, plan, sc).ok, (k, other)

    @pytest.mark.parametrize("step", [-1, 1])
    def test_moving_a_start_by_one_step(self, headline_scenario, headline_result, step):
        sc, plan = headline_scenario, headline_result.plan
        roster = greedy_assign(plan, sc)
        for k in range(roster.start.size):
            start = roster.start.copy()
            start[k] += step
            moved = Roster(driver=roster.driver, start=start, n_drivers=sc.N,
                           length=roster.length)
            assert not verify_roster(moved, plan, sc).ok, k


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

    def test_rows_numbered_within_each_driver(self):
        roster = make_roster(2, 3, (1, 6), (0, 5), (1, 2), (0, 1))
        assert roster_to_csv(roster, scenario()).splitlines()[1:] == [
            "0,0,1,3", "0,1,5,7", "1,0,2,4", "1,1,6,8"]

    def test_empty_roster_is_the_header(self):
        sc = scenario(N=0, s=2)
        assert roster_to_csv(greedy_assign(ShiftPlan(x=np.zeros(8)), sc), sc) == (
            "driver_id,shift_index,start_step,end_step\n")

    @given(x=st.lists(st.integers(0, 4), min_size=1, max_size=30), spare=st.integers(0, 3),
           delta=st.integers(1, 4), beta=st.integers(0, 3))
    def test_matches_scan_oracle(self, x, spare, delta, beta):
        # feasible by construction: N is the plan's peak z_t plus spare drivers
        sc = scenario(T=len(x), delta=min(delta, len(x)), beta=beta)
        plan = ShiftPlan(x=np.array(x))
        N = int(supply_by_window_sums(plan, sc)[1].max()) + spare
        sc = scenario(T=len(x), N=N, delta=sc.delta, beta=beta)
        assert roster_to_csv(greedy_assign(plan, sc), sc) == roster_to_csv(
            greedy_assign_by_scan(plan, sc), sc)
