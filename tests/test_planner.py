import math

import numpy as np
import pytest

from shiftopt import (
    Boundary,
    DemandModel,
    PlanningError,
    Scenario,
    ShiftPlan,
    SolveStatus,
    build_deviation_mip,
    build_reward_mip,
    milp_solve,
    plan,
    plan_baseline,
    supply_curve,
    total_reward,
)
from shiftopt import milp
from shiftopt.planner import EconomicStandard, ServiceStandard

from oracles import best_plan_by_enumeration


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
