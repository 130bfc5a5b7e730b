import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shiftopt import (
    Boundary,
    DemandModel,
    PlanningError,
    Scenario,
    ShiftPlan,
    SolveStatus,
    build_deviation_mip,
    build_reward_mip,
    concavify_reward,
    convexify_sq_dev,
    demand_vector,
    milp_solve,
    plan,
    plan_baseline,
    supply_curve,
    total_reward,
)
from shiftopt import benchmark, milp, planner
from shiftopt.planner import EconomicStandard, ServiceStandard

from oracles import best_plan_by_enumeration, segment_matrix_by_blocks


def small_scenario(**kw):
    base = dict(T=6, N=2, s=1, delta=2, beta=1, d_max=4.0, a=2.0, c_veh=4)
    base.update(kw)
    return Scenario(**base)


class TestBuildRewardMip:
    def test_structural_variable_count(self):
        sc = Scenario(T=4, N=1, s=1, delta=2, beta=1, d_max=1.0, a=1.0, c_veh=1)
        model = build_reward_mip(sc)
        assert model.n_vars == 16  # x, y, z, r per step
        assert sum(model.is_integer) == 4

    def test_no_drivers_means_zero_plan(self):
        sc = small_scenario(N=0)
        result = plan(sc)
        assert result.plan.total == 0
        assert result.true_reward == 0.0
        assert result.mip_objective == pytest.approx(0.0, abs=1e-9)

    def test_headline_instance(self, headline_scenario, headline_result):
        assert headline_result.solve_status is SolveStatus.OPTIMAL
        assert headline_result.plan.total == 50
        assert headline_result.supply.z.max() <= 10


class TestBuildDeviationMip:
    def test_zero_target_no_drivers(self):
        sc = small_scenario(N=0)
        sol = milp_solve(build_deviation_mip(sc, np.zeros(sc.T)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_reachable_target_gives_zero_deviation(self):
        sc = small_scenario()
        known = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0]))
        target = supply_curve(known, sc).y.astype(float)
        sol = milp_solve(build_deviation_mip(sc, target))
        assert sol.status is SolveStatus.OPTIMAL
        assert -sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_front_loaded_target(self):
        sc = Scenario(T=4, N=2, s=1, delta=1, beta=0, d_max=1.0, a=1.0, c_veh=2)
        sol = milp_solve(build_deviation_mip(sc, np.array([2.0, 0.0, 0.0, 0.0])))
        assert sol.status is SolveStatus.OPTIMAL
        assert -sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.rint(sol.values[:4]).tolist() == [2, 0, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_deviation_mip(small_scenario(), np.zeros(3))


class TestSegmentMatrix:
    """The segment model's rows, assembled from index arithmetic, equal the
    block-by-block reference entry for entry."""

    @staticmethod
    def _check(scenario, env, build=planner._segment_model):
        got = build(scenario, env).A_eq
        want = segment_matrix_by_blocks(scenario, env)
        assert got.format == "csc" and got.shape == want.shape
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.data.tolist() == want.data.tolist()

    @pytest.mark.parametrize("boundary, delta, beta", [
        (Boundary.ZERO_PADDED, 2, 1),
        (Boundary.ZERO_PADDED, 5, 4),
        (Boundary.CIRCULAR, 2, 1),
        (Boundary.CIRCULAR, 5, 4),  # delta + beta > T: a window holds a start twice
        (Boundary.CIRCULAR, 6, 6),
    ])
    def test_full_and_windowed_envelopes(self, boundary, delta, beta):
        sc = small_scenario(N=3, s=2, delta=delta, beta=beta, c_veh=5, boundary=boundary)
        d = demand_vector(sc)
        lo, hi = np.array([0, 1, 2, 0, 3, 1]), np.array([3, 2, 5, 1, 4, 5])
        for env in (concavify_reward(d, sc.a, 0, 5), concavify_reward(d, sc.a, lo, hi),
                    convexify_sq_dev(d, 0, 5, stride=2), convexify_sq_dev(d, lo, hi)):
            self._check(sc, env)

    def test_every_round_of_a_windowed_solve(self, monkeypatch):
        envs = []
        real = planner._segment_model

        def checked(scenario, env):
            envs.append(env)
            self._check(scenario, env, real)
            return real(scenario, env)

        monkeypatch.setattr(planner, "_segment_model", checked)
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        assert plan(sc).nodes == len(envs) >= 2


class TestPlan:
    def test_matches_enumeration_on_tiny_scenarios(self):
        scenarios = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            params = dict(
                T=int(rng.integers(3, 8)),
                N=int(rng.integers(1, 3)),
                s=int(rng.integers(1, 3)),
                delta=int(rng.integers(1, 3)),
                beta=int(rng.integers(0, 2)),
                d_max=float(rng.uniform(1, 6)),
                a=float(rng.uniform(0.5, 3)),
                c_veh=int(rng.integers(1, 5)),
            )
            scenarios += [Scenario(**params, boundary=b) for b in Boundary]
        # circular extended shifts longer than the horizon count some starts twice
        for n in (0, 1):
            scenarios.append(
                Scenario(T=3, N=n, s=1, delta=2, beta=2, d_max=3.0, a=1.0, c_veh=2,
                         boundary=Boundary.CIRCULAR)
            )
        for sc in scenarios:
            oracle, _ = best_plan_by_enumeration(sc)
            if oracle is None:
                with pytest.raises(PlanningError):
                    plan(sc)
            else:
                result = plan(sc)
                assert result.true_reward == pytest.approx(oracle, abs=1e-6)

    def test_one_lp_solve_per_plan(self, monkeypatch):
        calls = []
        real = milp.linprog
        monkeypatch.setattr(milp, "linprog", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        sc = small_scenario(boundary=Boundary.CIRCULAR)
        assert plan(sc).nodes == 1
        assert plan_baseline(sc, ServiceStandard(0.8)).nodes == 1
        assert len(calls) == 2

    def test_windowed_rounds_end_inside_their_windows(self, monkeypatch):
        bounds = []
        real = milp.linprog
        monkeypatch.setattr(
            milp, "linprog", lambda *a, **kw: bounds.append(kw["bounds"]) or real(*a, **kw)
        )
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        for solve in (plan, lambda sc: plan_baseline(sc, ServiceStandard(0.8))):
            bounds.clear()
            result = solve(sc)
            assert result.nodes >= 2
            assert len(bounds) == result.nodes
            lo, hi = bounds[-1][sc.T : 2 * sc.T].T
            y = result.supply.y
            # a window side other than 0 or y_max = 100 never holds the final supply
            assert np.all((lo == 0) | (y > lo))
            assert np.all((hi == 100) | (y < hi))
            assert np.any((lo > 0) | (hi < 100))

    def test_envelopes_built_through_planner_attributes(self, monkeypatch):
        """A wrapper installed on `shiftopt.planner` sees one call per LP round,
        and the pieces it counts are the segment columns of that round."""
        pieces, columns = [], []
        real_linprog = milp.linprog
        monkeypatch.setattr(milp, "linprog", lambda c, *a, **kw: (
            columns.append(len(c) - 3 * sc.T) or real_linprog(c, *a, **kw)))
        for name in ("concavify_reward", "convexify_sq_dev"):
            def counted(*args, real=getattr(planner, name)):
                env = real(*args)
                pieces.append(len(env.pieces))
                return env
            monkeypatch.setattr(planner, name, counted)
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        rounds = plan(sc).nodes + plan_baseline(sc, ServiceStandard(0.8)).nodes
        assert rounds >= 4
        assert len(pieces) == rounds
        assert pieces == columns

    def test_largest_round_is_a_quarter_of_the_full_model(
        self, monkeypatch, large_fleet_scenario
    ):
        columns = []
        real = milp.linprog
        monkeypatch.setattr(
            milp, "linprog", lambda c, *a, **kw: columns.append(len(c)) or real(c, *a, **kw)
        )
        plan(large_fleet_scenario)
        assert len(columns) >= 2
        assert max(columns) <= 0.25 * build_reward_mip(large_fleet_scenario).n_vars

    def test_plan_invariants(self, headline_scenario, headline_result):
        sc, res = headline_scenario, headline_result
        assert res.plan.total == sc.s * sc.N
        assert res.supply.y.max() <= sc.c_veh
        assert res.supply.z.max() <= sc.N
        assert res.mip_objective == pytest.approx(res.true_reward, rel=1e-9)

    def test_infeasible_raises_with_status(self):
        # 2 shifts forced but extended shifts cover the whole horizon
        sc = Scenario(T=3, N=1, s=2, delta=2, beta=2, d_max=1.0, a=1.0, c_veh=1)
        with pytest.raises(PlanningError) as err:
            plan(sc)
        assert err.value.status is SolveStatus.INFEASIBLE


class TestPlanBaseline:
    def test_economic_cost_above_steepness_targets_zero(self):
        sc = small_scenario()
        result = plan_baseline(sc, EconomicStandard(cost=sc.a + 1))
        # target is all-zero, but the total-shift equality still forces s*N shifts
        assert result.plan.total == sc.s * sc.N

    def test_service_standard_plan_is_feasible(self):
        sc = small_scenario()
        result = plan_baseline(sc, ServiceStandard(fraction=0.6))
        curve = supply_curve(result.plan, sc)
        assert result.plan.total == sc.s * sc.N
        assert curve.y.max() <= sc.c_veh
        assert curve.z.max() <= sc.N

    def test_true_reward_reported(self):
        sc = small_scenario()
        result = plan_baseline(sc, ServiceStandard(fraction=0.5))
        assert result.true_reward == pytest.approx(total_reward(result.plan, sc), abs=1e-12)

    def test_unknown_standard_rejected(self):
        with pytest.raises(TypeError):
            plan_baseline(small_scenario(), standard="service")

    def test_baseline_never_beats_reward_plan(self):
        sc = small_scenario(T=12, N=3, s=2, c_veh=6)
        ours = plan(sc)
        for standard in (ServiceStandard(0.8), EconomicStandard(1.0)):
            base = plan_baseline(sc, standard)
            assert base.true_reward <= ours.true_reward + 1e-9


def _full_and_windowed(sc: Scenario, kind: str):
    """(full-model solution, exact objective of a plan as a maximum, windowed solve)."""
    if kind == "reward":
        return (milp_solve(build_reward_mip(sc)), lambda x: total_reward(ShiftPlan(x=x), sc),
                lambda: plan(sc))
    standard = ServiceStandard(0.8) if kind == "service" else EconomicStandard(1.0)
    desired = (benchmark.service_standard_supply(sc, 0.8) if kind == "service"
               else benchmark.economic_standard_supply(sc, 1.0))

    def minus_sq_dev(x):
        return -float(((supply_curve(ShiftPlan(x=x), sc).y - desired) ** 2).sum())

    return milp_solve(build_deviation_mip(sc, desired)), minus_sq_dev, (
        lambda: plan_baseline(sc, standard))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    T=st.integers(6, 24), y_max=st.integers(65, 250), extra_n=st.integers(0, 40),
    s=st.integers(1, 3), delta=st.integers(1, 6), beta=st.integers(0, 6),
    d_per_driver=st.floats(0.05, 2.0), a=st.floats(0.5, 3.0),
    boundary=st.sampled_from(list(Boundary)),
)
def test_windowed_solve_matches_full_model(T, y_max, extra_n, s, delta, beta,
                                           d_per_driver, a, boundary):
    """Coarse-to-fine windows reach the full model's exact objective, and fail
    exactly when it is infeasible."""
    N = y_max + extra_n
    sc = Scenario(T=T, N=N, s=s, delta=min(delta, T), beta=beta, d_max=d_per_driver * N,
                  a=a, c_veh=y_max, boundary=boundary)
    for kind in ("reward", "service", "economic"):
        full, exact, windowed = _full_and_windowed(sc, kind)
        if full.status is SolveStatus.INFEASIBLE:
            with pytest.raises(PlanningError):
                windowed()
            continue
        result = windowed()
        x = result.plan.x
        assert result.plan.total == sc.total_shifts
        assert result.supply.y.max() <= sc.c_veh and result.supply.z.max() <= sc.N
        ours, reference = exact(x), exact(full.values[:T])
        sign = 1.0 if kind == "reward" else -1.0
        assert sign * result.mip_objective == pytest.approx(ours, rel=1e-9, abs=1e-9)
        assert ours == pytest.approx(reference, rel=1e-9)
