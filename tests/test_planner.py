import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from shiftopt import (
    Boundary,
    DemandModel,
    PlanningError,
    Scenario,
    ShiftPlan,
    build_deviation_mip,
    build_reward_mip,
    concavify_reward,
    convexify_sq_dev,
    demand_vector,
    economic_standard_supply,
    export_lp,
    milp_solve,
    plan,
    plan_baseline,
    plan_baselines,
    service_standard_supply,
    supply_curve,
    total_reward,
)
from shiftopt import cli, milp, planner
from shiftopt.domain import DESIRED_MAX

from oracles import (
    best_plan_by_enumeration,
    best_reward_by_array_enumeration,
    parse_lp,
    segment_matrix_by_coo,
    solve_parsed_lp,
    total_reward_by_loop,
    window_form_model,
)

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def small_scenario(**kw):
    base = dict(T=6, N=2, s=1, delta=2, beta=1, d_max=4.0, a=2.0, c_veh=4)
    base.update(kw)
    return Scenario(**base)


class TestBuildRewardMip:
    def test_structural_variable_count(self):
        sc = Scenario(T=4, N=1, s=1, delta=2, beta=1, d_max=1.0, a=1.0, c_veh=1)
        model = build_reward_mip(sc)
        assert model.n_vars == 12  # x, X and one segment per step
        assert sum(model.is_integer) == 4

    def test_no_drivers_means_zero_plan(self):
        sc = small_scenario(N=0)
        result = plan(sc)
        assert result.plan.total == 0
        assert result.true_reward == 0.0
        assert result.mip_objective == pytest.approx(0.0, abs=1e-9)

    def test_headline_instance(self, headline_scenario, headline_result):
        assert headline_result.plan.total == 50
        assert headline_result.supply.z.max() <= 10

    @pytest.mark.parametrize("build", [build_reward_mip,
                                       lambda sc: build_deviation_mip(sc, np.zeros(sc.T))],
                             ids=["reward", "deviation"])
    def test_piece_cap_checked_before_any_envelope(self, monkeypatch, build):
        """The full program takes at most T*min(N, c_veh) = 2**20 chord pieces, inclusive."""
        built = []

        def envelope(*args):
            built.append(args)
            raise LookupError("envelope built")

        for name in ("concavify_reward", "convexify_sq_dev"):
            monkeypatch.setattr(planner, name, envelope)
        over = Scenario(T=17, N=61681, s=1, delta=2, beta=1, d_max=1.0, a=1.0, c_veh=61681)
        with pytest.raises(ValueError, match=r"^at most T\*min\(N, c_veh\) = 1048576 chord "
                                             r"pieces, got 1048577$"):
            build(over)
        assert built == []
        with pytest.raises(LookupError):  # T*min(N, c_veh) = 16 * 65536 = 2**20
            build(Scenario(T=16, N=65536, s=1, delta=2, beta=1, d_max=1.0, a=1.0, c_veh=10**6))
        assert len(built) == 1


class TestBuildDeviationMip:
    def test_zero_target_no_drivers(self):
        sc = small_scenario(N=0)
        sol = milp_solve(build_deviation_mip(sc, np.zeros(sc.T)))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_reachable_target_gives_zero_deviation(self):
        sc = small_scenario()
        known = ShiftPlan(x=np.array([1, 0, 0, 1, 0, 0]))
        target = supply_curve(known, sc).y.astype(float)
        sol = milp_solve(build_deviation_mip(sc, target))
        assert -sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_front_loaded_target(self):
        sc = Scenario(T=4, N=2, s=1, delta=1, beta=0, d_max=1.0, a=1.0, c_veh=2)
        sol = milp_solve(build_deviation_mip(sc, np.array([2.0, 0.0, 0.0, 0.0])))
        assert -sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.rint(sol.values[:4]).tolist() == [2, 0, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_deviation_mip(small_scenario(), np.zeros(3))


class TestSegmentMatrix:
    """The cumulative-start model and the window-form model built block by
    block are both infeasible or have the same optimum, and an integral one."""

    @staticmethod
    def _check(scenario, env, build=planner._segment_model):
        """"optimal" or "infeasible", the same for both models."""
        try:
            want = milp_solve(window_form_model(scenario, env))
        except PlanningError:
            with pytest.raises(PlanningError):
                milp_solve(build(scenario, env))
            return "infeasible"
        got = milp_solve(build(scenario, env))
        assert math.isclose(got.objective, want.objective, rel_tol=1e-12, abs_tol=1e-12)
        return "optimal"

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

    def test_random_scenarios(self):
        # both boundaries, delta + beta past T, windowed envelopes, c_veh = 0 < N
        statuses = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            T = int(rng.integers(2, 13))
            N = int(rng.integers(0, 6))
            sc = Scenario(T=T, N=N, s=int(rng.integers(1, 4)), delta=int(rng.integers(1, T + 1)),
                          beta=int(rng.integers(0, 2 * T)), d_max=float(rng.uniform(0, 2 * N)),
                          a=float(rng.uniform(0.5, 3)), c_veh=int(rng.integers(0, N + 3)),
                          boundary=list(Boundary)[seed % 2])
            y_max = max(1, min(sc.c_veh, N))
            lo = rng.integers(0, min(sc.c_veh, N) + 1, T)
            hi = np.minimum(lo + rng.integers(1, 4, T), np.maximum(y_max, lo + 1))
            d = demand_vector(sc)
            for env in (concavify_reward(d, sc.a, 0, y_max), concavify_reward(d, sc.a, lo, hi),
                        convexify_sq_dev(d, 0, y_max, stride=2), convexify_sq_dev(d, lo, hi)):
                statuses.add(self._check(sc, env))
        assert statuses == {"optimal", "infeasible"}

    def test_no_vehicles_for_some_drivers_is_infeasible(self):
        sc = small_scenario(c_veh=0)
        env = concavify_reward(demand_vector(sc), sc.a, 0, 1)
        assert self._check(sc, env) == "infeasible"
        with pytest.raises(PlanningError):
            plan(sc)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_size_does_not_grow_with_the_break(self, boundary):
        """Each window row holds at most two cumulative-start columns. A
        zero-padded window that reaches before step 1 holds only one."""
        models = [build_reward_mip(Scenario(T=12, N=2, s=1, delta=4, beta=beta, d_max=3.0,
                                            a=1.0, c_veh=2, boundary=boundary))
                  for beta in (0, 10, 2**31 - 1)]
        nnz, n_seg = [m.A_eq.nnz for m in models], models[0].n_vars - 2 * 12
        assert max(nnz) == nnz[0] <= 7 * 12 + n_seg and nnz[1] == nnz[2]
        if boundary is Boundary.CIRCULAR:  # no width here is a multiple of T
            assert nnz[0] == nnz[1]

    @settings(max_examples=80, deadline=None)
    @given(T=st.integers(1, 14), delta=st.integers(1, 14), beta=st.integers(0, 30),
           multiple=st.sampled_from([None, 1, 2]), N=st.integers(0, 6), c_veh=st.integers(0, 8),
           boundary=st.sampled_from(list(Boundary)), seed=st.integers(0, 99),
           kind=st.sampled_from(["full", "coarse", "windowed", "deviation"]))
    def test_canonical_arrays_equal_scipy_from_coo(self, T, delta, beta, multiple, N, c_veh,
                                                   boundary, kind, seed):
        """A_eq's CSC arrays, built directly and kept by MilpModel without a copy, are those
        scipy makes from the entries one row at a time: delta + beta = T or 2T (circular:
        X_t - X_t cancels), windows reaching before step 1, and windowed envelopes."""
        delta = min(delta, T)
        beta = beta if multiple is None else multiple * T - delta
        sc = Scenario(T=T, N=N, s=1, delta=delta, beta=beta, d_max=3.0, a=1.5, c_veh=c_veh,
                      boundary=boundary)
        rng = np.random.default_rng(seed)
        d, y_max = rng.uniform(0, 4, T), max(1, min(N, c_veh))
        lo = rng.integers(0, y_max, T)
        env = {"full": lambda: concavify_reward(d, sc.a, 0, y_max),
               "coarse": lambda: concavify_reward(d, sc.a, 0, y_max, 2),
               "windowed": lambda: concavify_reward(d, sc.a, lo, lo + rng.integers(1, 4, T)),
               "deviation": lambda: convexify_sq_dev(d, lo, y_max + 2)}[kind]()
        built = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "MilpModel",
                          lambda **kw: built.append(kw["A_eq"]) or milp.MilpModel(**kw))
            A = planner._segment_model(sc, env).A_eq
        want = segment_matrix_by_coo(sc, env)
        assert A is built[0] and A.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, name), getattr(want, name)), name

    def test_zero_padded_window_of_2_20_steps(self):
        """T = delta = 2**20 builds without materialising a T x T window."""
        sc = Scenario(T=2**20, N=1, s=1, delta=2**20, beta=0, d_max=1.0, a=1.0, c_veh=1)
        model = build_reward_mip(sc)
        assert model.A_eq.shape == (3 * sc.T + 1, 3 * sc.T)
        assert model.A_eq.nnz == 6 * sc.T


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

    def test_near_flat_chords_match_the_window_form(self):
        # small-plans seed 37, op 115: chord slopes down to 2.3e-14, below milp.DUAL_TOL;
        # under HiGHS's cost perturbation its LP ended with model status kUnknown
        sc = Scenario(T=96, N=20, s=6, delta=6, beta=7, d_max=21.863488, a=1.671154, c_veh=20,
                      demand_model=DemandModel.OFFSET_SINUSOID)
        want = milp_solve(window_form_model(sc, concavify_reward(demand_vector(sc), sc.a, 0, 20)))
        result = plan(sc)
        assert result.nodes == 1
        assert math.isclose(result.mip_objective, want.objective, rel_tol=1e-12)

    def test_exact_where_demand_dwarfs_supply(self):
        # at d_max 1e12 consecutive chord gains differ by about a**2/d = 4e-12, below
        # milp.DUAL_TOL: HiGHS sees them scaled by milp.COST_SCALE
        sc = Scenario(T=24, N=3, s=2, delta=4, beta=2, d_max=1e12, a=2.0, c_veh=3)
        best = best_reward_by_array_enumeration(sc)
        assert math.isclose(total_reward_by_loop(plan(sc).plan, sc), best, rel_tol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(3, 6), N=st.integers(1, 2), s=st.integers(1, 2), delta=st.integers(1, 2),
           beta=st.integers(0, 1), log_d_max=st.floats(0.0, 15.0), a=st.floats(0.5, 3.0),
           c_veh=st.integers(1, 4), boundary=st.sampled_from(list(Boundary)))
    # the unscaled LP stopped with the gain difference between steps 2 and 3 unused
    @example(T=4, N=1, s=1, delta=1, beta=0, log_d_max=11.0, a=1.0, c_veh=1,
             boundary=Boundary.ZERO_PADDED)
    def test_exact_at_any_demand_scale(self, T, N, s, delta, beta, log_d_max, a, c_veh,
                                       boundary):
        """The plan's reward is the enumerated best within 1e-12 relative, with d_max
        log-uniform up to 1e15, where chord gains differ by as little as a**2/d."""
        sc = Scenario(T=T, N=N, s=s, delta=delta, beta=beta, d_max=10.0**log_d_max, a=a,
                      c_veh=c_veh, boundary=boundary)
        best, _ = best_plan_by_enumeration(sc)
        if best is None:
            with pytest.raises(PlanningError):
                plan(sc)
        else:  # the enumeration keeps a plan within 1e-12 of the best it has seen
            assert total_reward_by_loop(plan(sc).plan, sc) >= best * (1 - 1e-12)

    @pytest.mark.parametrize("s, want", [(1, [0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0]), (2, None)])
    def test_circular_extended_shift_of_the_whole_horizon(self, s, want):
        # delta + beta = T: every cap row is X_t - X_t <= N - sN, a row without entries
        sc = Scenario(T=12, N=3, s=s, delta=4, beta=8, d_max=6.0, a=1.5, c_veh=3,
                      boundary=Boundary.CIRCULAR)
        text = export_lp(build_reward_mip(sc))
        assert f" c24: 0 x_1 <= {3 - 3 * s}" in text.splitlines()
        if want is None:
            with pytest.raises(PlanningError, match="^no plan: solver status infeasible$"):
                plan(sc)
        else:
            assert plan(sc).plan.x.tolist() == want
            values = solve_parsed_lp(parse_lp(text))
            assert [round(values[f"x_{t}"]) for t in range(1, 13)] == want

    def test_break_past_horizon_plans_as_one_ending_at_it(self):
        # a zero-padded window wider than T holds the same starts as one of width T
        far, near = (plan(Scenario(T=24, N=3, s=1, delta=4, beta=beta, d_max=6.0, a=1.5,
                                   c_veh=3)) for beta in (2**31 - 1, 24 - 4))
        assert far.plan.x.tolist() == near.plan.x.tolist()
        assert far.true_reward == near.true_reward

    def test_one_lp_solve_per_plan(self, monkeypatch):
        calls = []
        real = milp.linprog
        monkeypatch.setattr(milp, "linprog", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        sc = small_scenario(boundary=Boundary.CIRCULAR)
        assert plan(sc).nodes == 1
        assert plan_baseline(sc, service_standard_supply(sc, 0.8)).nodes == 1
        assert len(calls) == 2

    def test_solved_models_are_unnamed_exported_models_named(self, monkeypatch):
        names = []
        real = planner.milp_solve
        monkeypatch.setattr(planner, "milp_solve", lambda m, *rest: names.append(m.names) or real(m, *rest))
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        rounds = sum(solve(sc).nodes for solve in (
            plan, lambda sc: plan_baseline(sc, service_standard_supply(sc, 0.8)),
            lambda sc: plan_baseline(sc, economic_standard_supply(sc, 1.0))))
        assert rounds >= 6 and names == [None] * rounds
        generals = "".join(f" x_{t}\n" for t in range(1, sc.T + 1)) + "End\n"
        for model in (build_reward_mip(sc), build_deviation_mip(sc, demand_vector(sc))):
            assert export_lp(model).split("Generals\n")[1] == generals
            assert model.names[: 2 * sc.T : sc.T] == ["x_1", "X_1"]
            assert model.names[-1].startswith("u_48_")

    def test_windowed_rounds_end_inside_their_windows(self, monkeypatch):
        envs, uppers = [], []
        for name in ("concavify_reward", "convexify_sq_dev"):
            monkeypatch.setattr(planner, name, lambda *a, real=getattr(planner, name): (
                envs.append(real(*a)) or envs[-1]))
        real = milp.linprog
        monkeypatch.setattr(
            milp, "linprog", lambda *a, **kw: uppers.append(kw["upper"]) or real(*a, **kw)
        )
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        for solve in (plan, lambda sc: plan_baseline(sc, service_standard_supply(sc, 0.8))):
            envs.clear()
            uppers.clear()
            result = solve(sc)
            assert result.nodes >= 2
            assert len(envs) == len(uppers) == result.nodes
            # the last round's supply window: lo_t plus its segments' upper bounds
            env = envs[-1]
            lo, last = env.start, np.cumsum(np.bincount(env.step)) - 1
            hi = lo + np.bincount(env.step, uppers[-1][2 * sc.T :], sc.T)
            assert np.array_equal(hi, np.minimum(env.ends[last], 100))
            y = result.supply.y
            # a window side other than 0 or y_max = 100 never holds the final supply
            assert np.all((lo == 0) | (y > lo))
            assert np.all((hi == 100) | (y < hi))
            assert np.any((lo > 0) | (hi < 100))

    def test_full_program_where_the_windows_do_not_certify(self, monkeypatch):
        """Round 2's supply rests on an inner window side, so round 3 is the full program."""
        rounds = []
        real = planner.concavify_reward
        monkeypatch.setattr(planner, "concavify_reward", lambda d, a, lo, hi, stride=1: (
            rounds.append((lo, hi, stride)) or real(d, a, lo, hi, stride)))
        sc = Scenario(T=24, N=70, s=2, delta=4, beta=2, d_max=1.4, a=2.0, c_veh=70)
        result = plan(sc)
        assert result.nodes == 3
        assert [(np.shape(lo), np.shape(hi), stride) for lo, hi, stride in rounds] == [
            ((), (), 2), ((24,), (24,), 1), ((), (), 1)]
        assert rounds[0][:2] == rounds[2][:2] == (0, 70)
        lo, hi = rounds[1][:2]
        assert np.all((0 <= lo) & (lo < hi) & (hi <= 70)) and np.any((lo > 0) | (hi < 70))
        full = milp_solve(build_reward_mip(sc)).values[: sc.T].astype(np.int64)
        assert result.true_reward == pytest.approx(total_reward(ShiftPlan(x=full), sc), rel=1e-9)

    def test_envelopes_built_through_planner_attributes(self, monkeypatch):
        """A wrapper installed on `shiftopt.planner` sees one call per LP round,
        and the pieces it counts are the segment columns of that round."""
        pieces, columns = [], []
        real_linprog = milp.linprog
        monkeypatch.setattr(milp, "linprog", lambda c, *a, **kw: (
            columns.append(len(c) - 2 * sc.T) or real_linprog(c, *a, **kw)))
        for name in ("concavify_reward", "convexify_sq_dev"):
            def counted(*args, real=getattr(planner, name)):
                env = real(*args)
                pieces.append(len(env.pieces))
                return env
            monkeypatch.setattr(planner, name, counted)
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        rounds = plan(sc).nodes + plan_baseline(sc, service_standard_supply(sc, 0.8)).nodes
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
        assert str(err.value) == "no plan: solver status infeasible"


class TestPlanBaseline:
    def test_economic_cost_above_steepness_targets_zero(self):
        sc = small_scenario()
        result = plan_baseline(sc, economic_standard_supply(sc, sc.a + 1))
        # target is all-zero, but the total-shift equality still forces s*N shifts
        assert result.plan.total == sc.s * sc.N

    def test_service_standard_plan_is_feasible(self):
        sc = small_scenario()
        result = plan_baseline(sc, service_standard_supply(sc, 0.6))
        curve = supply_curve(result.plan, sc)
        assert result.plan.total == sc.s * sc.N
        assert curve.y.max() <= sc.c_veh
        assert curve.z.max() <= sc.N

    def test_true_reward_reported(self):
        sc = small_scenario()
        result = plan_baseline(sc, service_standard_supply(sc, 0.5))
        assert result.true_reward == pytest.approx(total_reward(result.plan, sc), abs=1e-12)

    @pytest.mark.parametrize("solve", [plan_baseline, build_deviation_mip])
    @pytest.mark.parametrize("desired", [
        [1.0] * 5, [1.0] * 5 + [-1.0], [1.0] * 5 + [math.nan], [1.0] * 5 + [math.inf],
        [1.0] * 5 + [1e200], [1.0] * 5 + ["a"]],
        ids=["length", "negative", "nan", "inf", "1e200", "text"])
    def test_bad_desired_supply_rejected(self, monkeypatch, solve, desired):
        """One ValueError naming the desired supply, without a warning and
        before any envelope is built."""
        monkeypatch.setattr(planner, "convexify_sq_dev", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="desired supply"):
                solve(small_scenario(), desired)

    def test_baseline_never_beats_reward_plan(self):
        sc = small_scenario(T=12, N=3, s=2, c_veh=6)
        ours = plan(sc)
        for desired in (service_standard_supply(sc, 0.8), economic_standard_supply(sc, 1.0)):
            base = plan_baseline(sc, desired)
            assert base.true_reward <= ours.true_reward + 1e-9


@st.composite
def _scenario_and_supplies(draw):
    """A small scenario (y_max <= 8: one LP per baseline) and 2 to 5 desired supplies, with
    whole targets, whose deviations tie between neighbouring supplies, among them."""
    T = draw(st.integers(3, 12))
    sc = Scenario(T=T, N=draw(st.integers(1, 4)), s=draw(st.integers(1, 2)),
                  delta=draw(st.integers(1, min(4, T))), beta=draw(st.integers(0, 3)),
                  d_max=draw(st.floats(0.5, 8.0)), a=draw(st.floats(0.5, 3.0)),
                  c_veh=draw(st.integers(1, 8)), boundary=draw(st.sampled_from(list(Boundary))))
    target = st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 8.0))
    return sc, draw(st.lists(st.lists(target, min_size=T, max_size=T), min_size=2, max_size=5))


class TestPlanBaselines:
    @settings(max_examples=40, deadline=None)
    @given(_scenario_and_supplies())
    def test_equal_to_one_baseline_at_a_time(self, drawn):
        """Plans differ only where the deviation objective ties."""
        sc, desired = drawn
        try:
            cold = [plan_baseline(sc, d) for d in desired]
        except PlanningError:
            with pytest.raises(PlanningError):
                plan_baselines(sc, desired)
            return
        hot = plan_baselines(sc, desired)
        assert len(hot) == len(cold)
        for h, c in zip(hot, cold):
            assert math.isclose(h.mip_objective, c.mip_objective, rel_tol=1e-12, abs_tol=1e-12)
            if np.array_equal(h.plan.x, c.plan.x):
                assert math.isclose(h.true_reward, c.true_reward, rel_tol=1e-12)

    def test_new_highs_model_where_columns_or_rounds_differ(self, monkeypatch):
        new = []  # per linprog call: whether it was handed no HiGHS model
        real = milp.linprog
        monkeypatch.setattr(milp, "linprog",
                            lambda c, **kw: new.append(kw["highs"] is None) or real(c, **kw))
        sc = small_scenario()
        near = np.full(sc.T, 1.0)
        # squares near DESIRED_MAX round to equal chord slopes, which merge: fewer columns
        assert len(convexify_sq_dev(np.full(sc.T, DESIRED_MAX), 0, 4).pieces) < 4 * sc.T
        plan_baselines(sc, [near, near + 1.5, np.full(sc.T, DESIRED_MAX), near])
        assert new == [True, False, True, True]
        # y_max = 100: windowed rounds, whose windows follow the targets
        new.clear()
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        desired = [service_standard_supply(sc, 0.8), economic_standard_supply(sc, 1.0)]
        results = plan_baselines(sc, desired)
        assert all(new) and len(new) == sum(r.nodes for r in results) >= 4

    def test_cold_plans_between_hot_baselines(self, monkeypatch):
        """A cold plan after each baseline LP, on the same thread, leaves the baselines'
        HotStart as it was: the same results and HiGHS iterations as without them."""
        sc = small_scenario()
        desired = [np.full(sc.T, 1.0), np.full(sc.T, 2.5), np.full(sc.T, 0.5)]
        other = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100)
        nits = []
        real_linprog = milp.linprog
        monkeypatch.setattr(milp, "linprog",
                            lambda c, **kw: nits.append(real_linprog(c, **kw)) or nits[-1])
        alone = plan_baselines(sc, desired)
        alone_nits, want_other = [r.nit for r in nits], plan(other)
        nits.clear()
        between = []
        real = planner.milp_solve

        def then_a_cold_plan(model, hot=None):
            sol = real(model, hot)
            if hot is not None:
                between.append(plan(other))
            return sol

        monkeypatch.setattr(planner, "milp_solve", then_a_cold_plan)
        mixed = plan_baselines(sc, desired)
        assert len(between) == len(desired)
        assert [r.nit for r in nits][:: 1 + want_other.nodes] == alone_nits
        for got, want in zip(mixed + between, alone + [want_other] * len(between)):
            assert got.plan.x.tolist() == want.plan.x.tolist() and got.nodes == want.nodes
            assert (got.true_reward, got.mip_objective) == (want.true_reward, want.mip_objective)

    def test_hot_start_cuts_compare_iterations(self, monkeypatch, tmp_path):
        """The benchmark's seed-7 compare config: hot-started baselines take under 60% of
        the HiGHS iterations of one cold solve each. HiGHS is deterministic, so a hot start
        that silently went cold fails here."""
        monkeypatch.syspath_prepend(str(_WORKLOADS.parent))
        spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        config = tmp_path / "compare.json"
        config.write_text(json.dumps(workloads.cli_studies(7)[0]["config"]))
        baselines = []
        real = planner.plan_baselines
        monkeypatch.setattr(planner, "plan_baselines",
                            lambda *args: baselines.append(args) or real(*args))
        assert cli.main(["compare", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert len(baselines) == 5
        nits = []
        real_linprog = milp.linprog
        monkeypatch.setattr(milp, "linprog",
                            lambda c, **kw: nits.append(real_linprog(c, **kw)) or nits[-1])
        hot = [real(sc, desired) for sc, desired in baselines]
        hot_nit = sum(r.nit for r in nits)
        nits.clear()
        cold = [[plan_baseline(sc, d) for d in desired] for sc, desired in baselines]
        assert len(nits) == 40 and sum(r.nit for r in nits) * 0.6 > hot_nit
        for h, c in zip(hot, cold):
            assert [r.mip_objective for r in h] == pytest.approx([r.mip_objective for r in c],
                                                                rel=1e-12)


def _full_and_windowed(sc: Scenario, kind: str):
    """(full model, exact objective of a plan as a maximum, windowed solve)."""
    if kind == "reward":
        return (build_reward_mip(sc), lambda x: total_reward(ShiftPlan(x=x), sc),
                lambda: plan(sc))
    desired = (service_standard_supply(sc, 0.8) if kind == "service"
               else economic_standard_supply(sc, 1.0))

    def minus_sq_dev(x):
        return -float(((supply_curve(ShiftPlan(x=x), sc).y - desired) ** 2).sum())

    return build_deviation_mip(sc, desired), minus_sq_dev, (
        lambda: plan_baseline(sc, desired))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    T=st.integers(6, 24), y_max=st.integers(65, 250), extra_n=st.integers(0, 40),
    s=st.integers(1, 3), delta=st.integers(1, 6), beta=st.integers(0, 6),
    d_per_driver=st.floats(0.05, 2.0), a=st.floats(0.5, 3.0),
    boundary=st.sampled_from(list(Boundary)),
)
# reward saturates where supply is high, and supply lands on window sides
# whose chords gain almost nothing: widening those sides took 13 rounds here
@example(T=19, y_max=141, extra_n=2, s=3, delta=5, beta=0,
         d_per_driver=26.062734815051325 / 143, a=2.824821213818114,
         boundary=Boundary.CIRCULAR)
# a saturated week, d_max = 0.02 N: widening took 23 rounds
@example(T=168, y_max=70, extra_n=0, s=5, delta=8, beta=8, d_per_driver=0.02, a=2.0,
         boundary=Boundary.ZERO_PADDED)
def test_windowed_solve_matches_full_model(T, y_max, extra_n, s, delta, beta,
                                           d_per_driver, a, boundary):
    """Coarse-to-fine windows reach the full model's exact objective in at most
    three LP rounds, and fail exactly when it is infeasible."""
    N = y_max + extra_n
    sc = Scenario(T=T, N=N, s=s, delta=min(delta, T), beta=beta, d_max=d_per_driver * N,
                  a=a, c_veh=y_max, boundary=boundary)
    for kind in ("reward", "service", "economic"):
        model, exact, windowed = _full_and_windowed(sc, kind)
        try:
            full = milp_solve(model)
        except PlanningError:
            with pytest.raises(PlanningError):
                windowed()
            continue
        result = windowed()
        assert result.nodes <= 3
        x = result.plan.x
        assert result.plan.total == sc.total_shifts
        assert result.supply.y.max() <= sc.c_veh and result.supply.z.max() <= sc.N
        ours, reference = exact(x), exact(full.values[:T])
        sign = 1.0 if kind == "reward" else -1.0
        assert sign * result.mip_objective == pytest.approx(ours, rel=1e-9, abs=1e-9)
        assert ours == pytest.approx(reference, rel=1e-9)
