import math
import warnings

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

from shiftopt.benchmark import _total_reward_of_supply, gap
from shiftopt.domain import reward_vector

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

    def test_zero_demand_gives_zero_optimum(self):
        sc = explicit_scenario([0.0, 0.0])
        for opt in (agnostic_optimum_closed_form(sc), water_fill(sc)):
            assert opt.y_star.tolist() == [0.0, 0.0]
            assert opt.r_star == 0.0 and opt.lam == sc.a

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_subnormal_demand_without_warning(self, tiny):
        # a*budget/sum(d) overflows; lam = a*exp(-inf) = 0
        opt = agnostic_optimum_closed_form(explicit_scenario([tiny, 0.0, tiny], N=1, s=2))
        assert opt.lam == 0.0
        assert opt.y_star.tolist() == [1.0, 0.0, 1.0]
        assert opt.r_star == 2 * tiny

    def test_zero_demand_step_gets_zero_supply(self):
        sc = explicit_scenario([0.0, 2.0], N=1, s=1, delta=1)
        opt = agnostic_optimum_closed_form(sc)
        assert opt.y_star[0] == 0.0


class TestWaterFill:
    def test_zero_budget(self):
        sc = explicit_scenario([1.0, 2.0], N=0)
        opt = water_fill(sc)
        assert np.all(opt.y_star == 0)
        assert opt.r_star == 0.0 and opt.lam == sc.a

    def test_matches_closed_form_headline(self, headline_scenario):
        wf = water_fill(headline_scenario)
        cf = agnostic_optimum_closed_form(headline_scenario)
        assert np.max(np.abs(wf.y_star - cf.y_star)) < 1e-6
        assert wf.r_star == pytest.approx(cf.r_star, rel=1e-9)

    def test_symmetric_two_steps(self):
        sc = explicit_scenario([1.0, 1.0], N=2, a=2.0)  # budget 2
        opt = water_fill(sc)
        assert opt.y_star == pytest.approx([1.0, 1.0], abs=1e-9)
        assert opt.lam == pytest.approx(2.0 * math.exp(-2.0), abs=1e-8)

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

    @pytest.mark.parametrize("demand, N", [([0.0, 0.0], 1), ([1.0, 2.0], 0)])
    def test_no_demand_or_no_drivers_gap_is_one(self, demand, N):
        sc = explicit_scenario(demand, N=N)
        report = relative_gap(ShiftPlan(x=np.array([N, 0])), sc)
        assert (report.delta, report.r_star) == (1.0, 0.0)
        assert gap(0.5, agnostic_optimum_closed_form(sc)) == 1.0

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

    @pytest.mark.parametrize("c", [1e-17, 1e-10])
    def test_tiny_fraction_without_cancellation(self, c):
        # ln(1/(1-c)) is 0 at c = 1e-17, where 1 - c rounds to 1, and 8e-8 too large at 1e-10
        y = service_standard_supply(explicit_scenario([2.0], a=2.0), c)[0]
        assert y == pytest.approx(c + c * c / 2, rel=1e-15, abs=0)

    def test_root_of_defining_equation(self):
        a, c = 2.0, 0.8
        sc = explicit_scenario([2.0], a=a)
        y = service_standard_supply(sc, c)[0]
        assert y == pytest.approx(math.log(5.0), abs=1e-9)
        assert reward(y, RewardParams(d=2.0, a=a)) == pytest.approx(c * 2.0, rel=1e-9)

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_subnormal_demand_gives_finite_supply(self, tiny):
        y = service_standard_supply(explicit_scenario([2.0, tiny, 0.0], a=2.0), 0.8)
        assert y[0] == pytest.approx(math.log(5.0), abs=1e-12)
        assert 0.0 <= y[1] <= tiny and y[2] == 0.0

    def test_unsquarable_supply_rejected(self):
        # d/a * ln 5 is about 1.6e300: its square overflows
        with pytest.raises(ValueError, match="square"):
            service_standard_supply(explicit_scenario([1.0, 0.0], a=1e-300), 0.8)
        y = service_standard_supply(explicit_scenario([1.0, 0.0], a=1e-150), 0.8)
        assert y[0] == pytest.approx(math.log(5.0) * 1e150, rel=1e-12)

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

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_subnormal_demand_gives_finite_supply(self, tiny):
        y = economic_standard_supply(explicit_scenario([2.0, tiny, 0.0], a=2.0), 1.0)
        assert y[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert 0.0 <= y[1] <= tiny and y[2] == 0.0

    @pytest.mark.parametrize("a, cost", [(2.0, 5e-324), (1e-300, 1e-305)],
                             ids=["a-over-c-overflows", "square-overflows"])
    def test_unsquarable_supply_rejected(self, a, cost):
        with pytest.raises(ValueError, match="square"):
            economic_standard_supply(explicit_scenario([3.0, 0.0, 1.0], a=a), cost)

    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            economic_standard_supply(explicit_scenario([1.0]), 0.0)


def _log_uniform(lo, hi, **kw):
    return st.floats(math.log10(lo), math.log10(hi), **kw).map(lambda e: 10.0 ** e)


class TestStandardsAreClosedForms:
    """Each standard is its closed form: no check of its own, so it returns a
    finite supply or raises ValueError on any input float64 can hold."""

    @pytest.mark.parametrize("standard, c_exponents", [
        (service_standard_supply, (-20, 0)),
        (economic_standard_supply, (-300, 300)),
    ], ids=["service", "economic"])
    @given(d=st.one_of(_log_uniform(1e-300, 1e300), st.sampled_from([0.0, 1e-320, 5e-324])),
           a=_log_uniform(1e-20, 1e20), e=st.floats(0.0, 1.0))
    def test_finite_supply_or_value_error(self, standard, c_exponents, d, a, e):
        lo, hi = c_exponents
        c = 10.0 ** (lo + (hi - lo) * e)  # log-uniform in [10**lo, 10**hi]
        sc = explicit_scenario([d, 0.0], a=a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                y = standard(sc, c)
            except ValueError:
                return
        assert y.shape == (2,)
        assert np.all(np.isfinite(y)) and np.all(y >= 0)

    @given(d=_log_uniform(1e-6, 1e9), a=_log_uniform(1e-2, 1e2), c=st.floats(1e-6, 1 - 1e-6))
    def test_service_standard_serves_fraction(self, d, a, c):
        y = service_standard_supply(explicit_scenario([d], a=a), c)
        served = reward_vector(y, np.array([d]), a)[0]
        assert abs(served - c * d) <= 1e-9 * max(1.0, c * d)

    @given(d=_log_uniform(1e-6, 1e9), a=_log_uniform(1e-2, 1e2),
           ratio=_log_uniform(1e-6, 1.0, exclude_max=True))
    def test_economic_standard_marginal_is_cost(self, d, a, ratio):
        c = ratio * a
        y = economic_standard_supply(explicit_scenario([d], a=a), c)[0]
        assert abs(a * math.exp(-a * y / d) - c) <= 1e-9 * max(1.0, c)
