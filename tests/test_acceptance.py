"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are fixed here, not configurable.
"""

import math

import numpy as np
import pytest

from shiftopt import (
    DemandModel,
    RewardParams,
    Scenario,
    ShiftPlan,
    agnostic_optimum_closed_form,
    economic_standard_supply,
    greedy_assign,
    plan,
    plan_baseline,
    rebalance,
    relative_gap,
    reward,
    service_standard_supply,
    total_reward,
    verify_roster,
    water_fill,
)
from shiftopt.planner import PlanningError

from oracles import best_plan_by_enumeration, sample_feasible_plan


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def random_tiny_scenario(rng):
    return Scenario(
        T=int(rng.integers(2, 9)),
        N=int(rng.integers(0, 3)),
        s=int(rng.integers(1, 3)),
        delta=int(rng.integers(1, 3)),
        beta=int(rng.integers(0, 2)),
        d_max=float(rng.uniform(0.5, 8.0)),
        a=float(rng.uniform(0.2, 4.0)),
        c_veh=int(rng.integers(0, 5)),
        demand_model=DemandModel.ENVELOPE_SINUSOID
        if rng.random() < 0.5
        else DemandModel.OFFSET_SINUSOID,
    )


def test_criterion_1_milp_matches_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        sc = random_tiny_scenario(rng)
        # delta may exceed T for very small draws; the constructor guards that
        if sc.delta > sc.T:
            continue
        oracle, _ = best_plan_by_enumeration(sc)
        if oracle is None:
            with pytest.raises(PlanningError):
                plan(sc)
        else:
            result = plan(sc)
            assert abs(result.true_reward - oracle) <= 1e-6
        checked += 1
    assert checked == 200
    report(1, f"planner equals brute-force enumeration on {checked} random scenarios")


def test_criterion_2_chord_exactness(headline_result):
    diff = abs(headline_result.mip_objective - headline_result.true_reward)
    assert diff <= 1e-6
    report(2, f"MIP objective equals exact reward on the headline instance (diff {diff:.2e})")


def test_criterion_3_water_fill_matches_closed_form():
    rng = np.random.default_rng(7)
    worst_elem = 0.0
    worst_kkt = 0.0
    for _ in range(100):
        T = int(rng.integers(2, 30))
        demand = rng.uniform(0.0, 10.0, size=T)
        demand[rng.random(T) < 0.1] = 0.0
        if demand.sum() == 0:
            demand[0] = 1.0
        sc = Scenario(
            T=T,
            N=int(rng.integers(1, 10)),
            s=int(rng.integers(1, 4)),
            delta=int(rng.integers(1, T + 1)),
            beta=0,
            d_max=float(demand.max()),
            a=float(rng.uniform(0.2, 5.0)),
            c_veh=1,
            demand_model=DemandModel.EXPLICIT,
            demand=tuple(demand),
        )
        cf = agnostic_optimum_closed_form(sc)
        wf = water_fill(sc)
        worst_elem = max(worst_elem, float(np.max(np.abs(cf.y_star - wf.y_star))))
        # KKT residuals: common multiplier on the support, mu >= 0 off it
        for y, d in zip(cf.y_star, demand):
            if d > 0:
                resid = abs(sc.a * math.exp(-sc.a * y / d) - cf.lam)
                worst_kkt = max(worst_kkt, resid)
        assert abs(cf.y_star.sum() - sc.working_time) <= 1e-8 * max(1, sc.working_time)
    assert worst_elem <= 1e-6
    assert worst_kkt <= 1e-8
    report(3, f"closed form vs water-filling: max |diff| {worst_elem:.2e}, KKT residual {worst_kkt:.2e}")


def test_criterion_4_headline_reproduction(headline_scenario, headline_result):
    assert headline_result.plan.total == 50
    assert headline_result.supply.z.max() <= 10
    delta = relative_gap(headline_result.plan, headline_scenario).delta
    assert 0.0 < delta < 1.0
    report(4, f"headline instance optimal: sum x = 50, max z <= 10, gap {delta:.4f}")


def test_criterion_5_constraint_relaxation_trends():
    # (a) more drivers, demand scaled along: gap strictly decreases
    gaps_n = []
    for n in (5, 10, 25, 50):
        sc = Scenario(T=168, N=n, s=5, delta=8, beta=8, d_max=float(n), a=2.0, c_veh=10 * n)
        gaps_n.append(relative_gap(plan(sc).plan, sc).delta)
    assert all(b < a for a, b in zip(gaps_n, gaps_n[1:]))

    # (b) total working time fixed, fewer shifts per driver never hurts
    gaps_s = []
    for s, n in ((4, 10), (2, 20), (1, 40)):
        sc = Scenario(T=168, N=n, s=s, delta=8, beta=8, d_max=10.0, a=2.0, c_veh=200)
        gaps_s.append(relative_gap(plan(sc).plan, sc).delta)
    assert all(b <= a + 1e-6 for a, b in zip(gaps_s, gaps_s[1:]))

    # (c) total working time and s fixed, shorter shifts never hurt
    gaps_d = []
    for d in (16, 8, 4, 2, 1):
        n = 80 // d
        sc = Scenario(T=168, N=n, s=5, delta=d, beta=8, d_max=10.0, a=2.0, c_veh=200)
        gaps_d.append(relative_gap(plan(sc).plan, sc).delta)
    assert all(b <= a + 1e-6 for a, b in zip(gaps_d, gaps_d[1:]))
    report(
        5,
        "gap trends hold: drivers "
        + "->".join(f"{g:.4f}" for g in gaps_n)
        + "; shifts/driver "
        + "->".join(f"{g:.4f}" for g in gaps_s)
        + "; shift length "
        + "->".join(f"{g:.4f}" for g in gaps_d),
    )


def test_criterion_6_dominates_traditional_baselines():
    rows = []
    for n in (4, 8, 12):
        sc = Scenario(
            T=168, N=n, s=5, delta=8, beta=9, d_max=0.75 * n, a=2.0, c_veh=10 * n
        )
        ours = relative_gap(plan(sc).plan, sc).delta
        service = relative_gap(plan_baseline(sc, service_standard_supply(sc, 0.8)).plan, sc).delta
        economic = relative_gap(plan_baseline(sc, economic_standard_supply(sc, 1.0)).plan, sc).delta
        assert ours <= service + 1e-6
        assert ours <= economic + 1e-6
        rows.append((n, ours, service, economic))
    report(6, "direct optimization dominates both standards at N = " + str([r[0] for r in rows]))


def test_criterion_7_rostering_always_succeeds():
    rng = np.random.default_rng(99)
    produced = 0
    while produced < 1000:
        sc = random_tiny_scenario(rng)
        if sc.N == 0:
            continue
        relaxed = Scenario(
            T=sc.T, N=sc.N, s=sc.s, delta=sc.delta, beta=sc.beta,
            d_max=sc.d_max, a=sc.a, c_veh=10 * sc.N,
            demand_model=sc.demand_model,
        )
        plan_vec = sample_feasible_plan(relaxed, rng, tries=50)
        if plan_vec is None:
            continue
        trace = []
        roster = rebalance(greedy_assign(plan_vec, relaxed), relaxed.s, trace=trace)
        assert verify_roster(roster, plan_vec, relaxed).ok
        counts0 = greedy_assign(plan_vec, relaxed).counts()
        imbalances = [sum(abs(c - relaxed.s) for c in counts0)] + [
            sum(abs(c - relaxed.s) for c in counts) for counts in trace
        ]
        for before, after in zip(imbalances, imbalances[1:]):
            assert before - after == 2
        produced += 1
    report(7, "1000 random constraint-satisfying plans rostered and verified")


def test_criterion_8_gap_in_unit_interval():
    rng = np.random.default_rng(4711)
    produced = 0
    while produced < 1000:
        sc = random_tiny_scenario(rng)
        if sc.N == 0 or sc.d_max == 0:
            continue
        relaxed = Scenario(
            T=sc.T, N=sc.N, s=sc.s, delta=sc.delta, beta=sc.beta,
            d_max=sc.d_max, a=sc.a, c_veh=10 * sc.N,
            demand_model=sc.demand_model,
        )
        plan_vec = sample_feasible_plan(relaxed, rng, tries=50)
        if plan_vec is None:
            continue
        delta = relative_gap(plan_vec, relaxed).delta
        assert -1e-12 <= delta <= 1.0 + 1e-12
        produced += 1
    report(8, "relative gap within [0, 1] on 1000 random feasible plans")


def test_criterion_9_service_standard_consistency():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(500):
        d = float(rng.uniform(0.01, 50.0))
        a = float(rng.uniform(0.05, 8.0))
        c = float(rng.uniform(0.01, 0.99))
        sc = Scenario(
            T=1, N=1, s=1, delta=1, beta=0, d_max=d, a=a, c_veh=1,
            demand_model=DemandModel.EXPLICIT, demand=(d,),
        )
        y = service_standard_supply(sc, c)[0]
        served = reward(y, RewardParams(d=d, a=a))
        rel = abs(served - c * d) / (c * d)
        worst = max(worst, rel)
    assert worst <= 1e-9
    report(9, f"service standard solves its defining equation (worst rel err {worst:.2e})")
