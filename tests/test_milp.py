import itertools
import math

import numpy as np
import pytest

from shiftopt import (
    Boundary,
    MilpModel,
    Scenario,
    ShiftPlan,
    SolveStatus,
    build_deviation_mip,
    build_reward_mip,
    economic_standard_supply,
    export_lp,
    lp_solve,
    milp_solve,
    plan,
    plan_baseline,
    service_standard_supply,
    supply_curve,
    total_reward,
)
from shiftopt.planner import EconomicStandard, ServiceStandard

from oracles import parse_lp, solve_parsed_lp


def model(obj, lb, ub, integer=None, names=None, **rows):
    """A model over len(obj) columns; A_ub/A_eq are given as dense lists of rows."""
    n = len(obj)
    for k in ("A_ub", "A_eq"):
        if k in rows:
            rows[k] = np.asarray(rows[k], dtype=float).reshape(-1, n)
    return MilpModel(
        objective=obj,
        lower=lb,
        upper=ub,
        is_integer=[False] * n if integer is None else integer,
        names=names or [f"v{j + 1}" for j in range(n)],
        **rows,
    )


def simple_model():
    # max 2 v1 + v2, s.t. v1 <= 1, v2 <= 1, v1 + v2 <= 1.5, v >= 0
    return model([2.0, 1.0], [0.0, 0.0], [1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.5])


class TestLpSolve:
    def test_single_bounded_variable(self):
        m = model([1.0], [0.0], [10.0], A_ub=[[1.0]], b_ub=[3.0])
        sol = lp_solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_facet_optimum(self):
        m = model([1.0, 1.0], [0.0, 0.0], [5.0, 5.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = lp_solve(m)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_vertex_optimum(self):
        # enumerate the vertices of the 2-D polytope: best is (1, 0.5) -> 2.5
        vertices = [(0, 0), (1, 0), (0, 1), (1, 0.5), (0.5, 1)]
        oracle = max(2 * a + b for a, b in vertices)
        sol = lp_solve(simple_model())
        assert sol.objective == pytest.approx(oracle, abs=1e-9)
        assert sol.values == pytest.approx([1.0, 0.5], abs=1e-9)

    def test_infeasible(self):
        m = model([1.0], [0.0], [1.0], A_ub=[[-1.0]], b_ub=[-2.0])  # v1 >= 2
        assert lp_solve(m).status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        # every column must be bounded, so no model is unbounded
        with pytest.raises(ValueError):
            model([1.0], [0.0], [math.inf])


class TestMilpSolve:
    def test_integral_relaxation_single_node(self):
        m = model([1.0], [0.0], [5.0], integer=[True])
        sol = milp_solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.0, abs=1e-9)
        assert sol.nodes_explored == 1

    def test_fractional_vertex_raises(self):
        # max v s.t. 2 v <= 3: not totally unimodular, the LP optimum is 1.5
        m = model([1.0], [0.0], [10.0], integer=[True], A_ub=[[2.0]], b_ub=[3.0])
        with pytest.raises(RuntimeError, match="not integral"):
            milp_solve(m)

    def test_infeasible_integer(self):
        m = model([1.0, 1.0], [0.0, 0.0], [3.0, 3.0], integer=[True, True],
                  A_eq=[[1.0, 1.0]], b_eq=[7.0])
        assert milp_solve(m).status is SolveStatus.INFEASIBLE

    def test_unbounded_integers_rejected(self):
        with pytest.raises(ValueError):
            model([1.0], [0.0], [math.inf], integer=[True])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_enumeration_on_random_models(self, seed):
        rng = np.random.default_rng(seed)
        m = _random_tu_model(rng, n=int(rng.integers(2, 6)), width=int(rng.integers(2, 6)))
        oracle = _enumerate_optimum(m)
        sol = milp_solve(m)
        if oracle is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(oracle, abs=1e-6)
            residual_check(m, sol.values)

    def test_determinism(self):
        rng = np.random.default_rng(123)
        m = _random_tu_model(rng, n=5, width=5)
        a = milp_solve(m)
        b = milp_solve(m)
        assert a.nodes_explored == b.nodes_explored == 1
        assert a.objective == b.objective
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_solution_invariants(self):
        # max 3 v1 + 2 v2 + 0.5 s.t. v1 + v2 <= 5, v2 - v1 = 1
        m = model([3.0, 2.0], [0.0, 0.0], [4.0, 4.0], integer=[True, True],
                  A_ub=[[1.0, 1.0]], b_ub=[5.0], A_eq=[[-1.0, 1.0]], b_eq=[1.0],
                  constant=0.5)
        sol = milp_solve(m)
        assert np.array_equal(sol.values, np.rint(sol.values))
        assert sol.values.tolist() == [2.0, 3.0]
        assert sol.objective == 3.0 * 2 + 2.0 * 3 + 0.5


def _random_tu_model(rng, n, width):
    """Integer data over an interval matrix (each row a run of consecutive
    columns, times +-1): totally unimodular, like the planner's window rows."""
    rows = {"A_ub": [], "b_ub": [], "A_eq": [], "b_eq": []}
    for _ in range(int(rng.integers(1, 4))):
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n)) + 1
        coeffs = np.zeros(n)
        coeffs[lo:hi] = rng.choice([-1.0, 1.0])
        rhs = float(rng.integers(-5, 15))
        sense = ["<=", ">=", "="][int(rng.integers(0, 3))]
        if sense == ">=":
            coeffs, rhs = -coeffs, -rhs
        kind = "eq" if sense == "=" else "ub"
        rows[f"A_{kind}"].append(coeffs)
        rows[f"b_{kind}"].append(rhs)
    return model(
        [float(rng.integers(-5, 6)) for _ in range(n)],
        [0.0] * n,
        [float(width)] * n,
        integer=[True] * n,
        **{k: v for k, v in rows.items() if v},
    )


def _row_values(m, v):
    return (m.A_ub @ v, m.A_eq @ v)


def _enumerate_optimum(m):
    ranges = [range(int(m.lower[j]), int(m.upper[j]) + 1) for j in range(m.n_vars)]
    best = None
    for point in itertools.product(*ranges):
        v = np.array(point, dtype=float)
        ub, eq = _row_values(m, v)
        if np.all(ub <= m.b_ub + 1e-9) and np.all(np.abs(eq - m.b_eq) <= 1e-9):
            val = float(m.objective @ v) + m.constant
            best = val if best is None else max(best, val)
    return best


def residual_check(m, values):
    ub, eq = _row_values(m, values)
    assert np.all(ub <= m.b_ub + 1e-7 * (1 + np.abs(m.b_ub)))
    assert np.all(np.abs(eq - m.b_eq) <= 1e-7 * (1 + np.abs(m.b_eq)))


def _oracle_plan(text, T):
    values = solve_parsed_lp(parse_lp(text))
    return ShiftPlan(x=np.rint([values[f"x_{t}"] for t in range(1, T + 1)]).astype(np.int64))


class TestExportLp:
    def test_empty_model(self):
        text = export_lp(model([], [], []))
        for section in ("Maximize", "Subject To", "Bounds", "End"):
            assert section in text
        assert text.endswith("End\n")

    def test_integer_listed_under_generals(self):
        m = model([1.0], [0.0], [3.0], integer=[True], names=["n_shifts"])
        text = export_lp(m)
        assert "Generals" in text
        assert text.split("Generals")[1].split("End")[0].strip() == "n_shifts"

    def test_round_trip_through_external_solver(self):
        for boundary in Boundary:
            sc = Scenario(T=24, N=3, s=2, delta=4, beta=3, d_max=6.0, a=1.5, c_veh=3,
                          boundary=boundary)
            external = _oracle_plan(export_lp(build_reward_mip(sc)), sc.T)
            assert total_reward(external, sc) == pytest.approx(plan(sc).true_reward, rel=1e-9)
            for standard, desired in (
                (ServiceStandard(0.8), service_standard_supply(sc, 0.8)),
                (EconomicStandard(1.0), economic_standard_supply(sc, 1.0)),
            ):
                text = export_lp(build_deviation_mip(sc, desired))
                assert "\\ Objective constant: -" in text
                y = supply_curve(_oracle_plan(text, sc.T), sc).y
                assert np.sum((y - desired) ** 2) == pytest.approx(
                    plan_baseline(sc, standard).mip_objective, rel=1e-9
                )

    def test_numbers_have_12_significant_digits(self):
        m = model([1.0 / 3.0], [0.0], [1.0], names=["x"])
        assert "0.333333333333 x" in export_lp(m)

