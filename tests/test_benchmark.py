import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftopt import (
    Boundary,
    DemandModel,
    RewardParams,
    Scenario,
    ShiftPlan,
    agnostic_optimum_closed_form,
    economic_standard_supply,
    relative_gap,
    reward,
    service_standard_supply,
    total_reward,
    water_fill,
)

from shiftopt.benchmark import _total_reward_of_supply

from oracles import reward_of_supply_by_loop, sample_feasible_plan


def explicit_scenario(demand, *, N=1, s=1, delta=1, a=1.0, **kw):
    return Scenario(
        T=len(demand),
        N=N,
        s=s,
        delta=delta,
        beta=kw.pop("beta", 0),
        d_max=max(demand),
        a=a,
        c_veh=kw.pop("c_veh", 100),
        demand_model=DemandModel.EXPLICIT,
        demand=tuple(float(d) for d in demand),
        **kw,
    )


@given(st.lists(st.tuples(st.floats(0, 500), st.floats(0, 100)), min_size=1, max_size=30),
       st.floats(0.01, 10))
def test_reward_of_supply_matches_loop(pairs, a):
    y, d = (np.array(v) for v in zip(*pairs))
    # each step's np.exp and math.exp may differ in the last bit: d_t * ulp(1) after 1 - exp
    assert _total_reward_of_supply(y, d, a) == pytest.approx(
        reward_of_supply_by_loop(y, d, a), rel=1e-13, abs=4 * np.finfo(float).eps * d.sum())


class TestClosedForm:
    def test_uniform_demand_splits_evenly(self):
        sc = explicit_scenario([3.0, 3.0, 3.0, 3.0], N=2, s=1, delta=2)  # budget 4
        opt = agnostic_optimum_closed_form(sc)
        assert opt.y_star == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_proportional_to_demand(self):
        sc = explicit_scenario([1.0, 3.0], N=1, s=2, delta=2)  # budget 4
        opt = agnostic_optimum_closed_form(sc)
        assert opt.y_star == pytest.approx([1.0, 3.0])

    def test_common_marginal_reward(self, headline_scenario):
        opt = agnostic_optimum_closed_form(headline_scenario)
        from shiftopt import demand_vector

        d = demand_vector(headline_scenario)
        a = headline_scenario.a
        marginals = [
            a * math.exp(-a * y / di) for y, di in zip(opt.y_star, d) if di > 0
        ]
        assert max(marginals) - min(marginals) == pytest.approx(0.0, abs=1e-8)
        assert marginals[0] == pytest.approx(opt.lam, abs=1e-8)

    def test_budget_invariant(self, headline_scenario):
        opt = agnostic_optimum_closed_form(headline_scenario)
        budget = headline_scenario.working_time
        assert opt.y_star.sum() == pytest.approx(budget, rel=1e-8)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError):
            agnostic_optimum_closed_form(explicit_scenario([0.0, 0.0]))

    def test_zero_demand_step_gets_zero_supply(self):
        sc = explicit_scenario([0.0, 2.0], N=1, s=1, delta=1)
        opt = agnostic_optimum_closed_form(sc)
        assert opt.y_star[0] == 0.0


class TestWaterFill:
    def test_zero_budget(self):
        sc = explicit_scenario([1.0, 2.0])
        opt = water_fill(sc, budget=0.0)
        assert np.all(opt.y_star == 0)
        assert opt.lam == sc.a

    def test_matches_closed_form_headline(self, headline_scenario):
        wf = water_fill(headline_scenario)
        cf = agnostic_optimum_closed_form(headline_scenario)
        assert np.max(np.abs(wf.y_star - cf.y_star)) < 1e-6
        assert wf.r_star == pytest.approx(cf.r_star, rel=1e-9)

    def test_symmetric_two_steps(self):
        sc = explicit_scenario([1.0, 1.0], a=2.0)
        opt = water_fill(sc, budget=2.0)
        assert opt.y_star == pytest.approx([1.0, 1.0], abs=1e-9)
        assert opt.lam == pytest.approx(2.0 * math.exp(-2.0), abs=1e-8)

    def test_unique_regardless_of_bracket_seed(self, headline_scenario):
        a = water_fill(headline_scenario)
        b = water_fill(headline_scenario, lo_init=1e-6)
        c = water_fill(headline_scenario, lo_init=0.3)
        assert np.max(np.abs(a.y_star - b.y_star)) < 1e-8
        assert np.max(np.abs(a.y_star - c.y_star)) < 1e-8

    def test_budget_met_to_tolerance(self, headline_scenario):
        budget = float(headline_scenario.working_time)
        opt = water_fill(headline_scenario)
        assert abs(opt.y_star.sum() - budget) <= 1e-10 * budget


class TestRelativeGap:
    def test_exact_supply_gives_zero_gap(self):
        sc = explicit_scenario([2.0, 2.0, 2.0, 2.0], N=2, s=1, delta=2,
                               boundary=Boundary.CIRCULAR)
        plan = ShiftPlan(x=np.array([1, 0, 1, 0]))  # y = [1,1,1,1] = y*
        report = relative_gap(plan, sc)
        assert report.delta == pytest.approx(0.0, abs=1e-12)

    def test_zero_plan_gap_is_one(self):
        sc = explicit_scenario([1.0, 2.0], N=1, s=1)
        report = relative_gap(ShiftPlan(x=np.array([0, 0])), sc)
        assert report.delta == pytest.approx(1.0)

    def test_upper_bounds_every_feasible_plan(self):
        rng = np.random.default_rng(7)
        sc = Scenario(T=10, N=3, s=2, delta=2, beta=1, d_max=6.0, a=2.0, c_veh=6)
        r_star = agnostic_optimum_closed_form(sc).r_star
        for _ in range(50):
            plan = sample_feasible_plan(sc, rng)
            assert plan is not None
            report = relative_gap(plan, sc)
            assert r_star >= total_reward(plan, sc) - 1e-9
            assert 0.0 - 1e-12 <= report.delta <= 1.0 + 1e-12

    def test_headline_gap_in_open_interval(self, headline_scenario, headline_result):
        delta = relative_gap(headline_result.plan, headline_scenario).delta
        assert 0.0 < delta < 1.0


class TestServiceStandard:
    def test_unit_supply_at_matching_fraction(self):
        a = 1.7
        sc = explicit_scenario([1.0, 1.0], a=a)
        y = service_standard_supply(sc, 1 - math.exp(-a))
        assert y == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_small_fraction_small_supply(self):
        sc = explicit_scenario([5.0], a=2.0)
        assert service_standard_supply(sc, 1e-9)[0] == pytest.approx(0.0, abs=1e-8)

    def test_root_of_defining_equation(self):
        a, c = 2.0, 0.8
        sc = explicit_scenario([2.0], a=a)
        y = service_standard_supply(sc, c)[0]
        assert y == pytest.approx(math.log(5.0), abs=1e-9)
        assert reward(y, RewardParams(d=2.0, a=a)) == pytest.approx(c * 2.0, rel=1e-9)

    def test_fraction_bounds(self):
        sc = explicit_scenario([1.0])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                service_standard_supply(sc, bad)


class TestEconomicStandard:
    def test_costly_staff_means_zero_supply(self):
        sc = explicit_scenario([3.0, 1.0], a=2.0)
        assert np.all(economic_standard_supply(sc, 2.0) == 0)
        assert np.all(economic_standard_supply(sc, 5.0) == 0)

    def test_unit_supply_at_matching_cost(self):
        a = 2.0
        sc = explicit_scenario([1.0], a=a)
        y = economic_standard_supply(sc, a * math.exp(-a))
        assert y[0] == pytest.approx(1.0, abs=1e-9)

    def test_against_golden_section_maximizer(self):
        a, c, d = 2.0, 1.0, 2.0
        sc = explicit_scenario([d], a=a)
        y = economic_standard_supply(sc, c)[0]
        assert y == pytest.approx(math.log(2.0), abs=1e-9)

        def profit(v):
            return reward(v, RewardParams(d=d, a=a)) - c * v

        lo, hi = 0.0, 10.0
        phi = (math.sqrt(5) - 1) / 2
        while hi - lo > 1e-10:
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if profit(m1) < profit(m2):
                lo = m1
            else:
                hi = m2
        assert y == pytest.approx((lo + hi) / 2, abs=1e-6)

    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            economic_standard_supply(explicit_scenario([1.0]), 0.0)
