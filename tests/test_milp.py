import importlib.util
import itertools
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize._highspy._core import (HighsBasis, HighsBasisStatus, HighsLp,
                                           HighsModelStatus, HighsStatus, MatrixFormat, _Highs)

from shiftopt import (
    Boundary,
    Envelopes,
    MilpModel,
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
    lp_solve,
    milp_solve,
    plan,
    plan_baseline,
    service_standard_supply,
    supply_curve,
    total_reward,
)
from shiftopt import milp, planner

from oracles import export_lp_reference, parse_lp, solve_parsed_lp


def model(obj, lb, ub, integer=None, names=None, A_eq=None, b_eq=(), constant=0.0):
    """A model over len(obj) columns; A_eq is given as a dense list of rows,
    and a model without rows gets an empty 0 x n A_eq."""
    n = len(obj)
    return MilpModel(
        objective=obj,
        lower=lb,
        upper=ub,
        is_integer=[False] * n if integer is None else integer,
        A_eq=np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n),
        b_eq=b_eq,
        names=names,
        constant=constant,
    )


def slack_model(obj, lb, ub, integer=None, A_ub=(), b_ub=(), A_eq=(), b_eq=(), constant=0.0):
    """max obj·v s.t. A_ub v <= b_ub, A_eq v = b_eq in equality form: each
    inequality row gains its own integer slack column, with no gain, bounded
    by [0, b_i - min of row i over the box]. Appending identity columns keeps
    an interval matrix totally unimodular."""
    n, k = len(obj), len(b_ub)
    A_ub = np.asarray(A_ub, dtype=float).reshape(k, n)
    A_eq = np.asarray(A_eq, dtype=float).reshape(len(b_eq), n)
    row_min = np.minimum(A_ub * np.asarray(lb), A_ub * np.asarray(ub)).sum(axis=1)
    return model(
        list(obj) + [0.0] * k,
        list(lb) + [0.0] * k,
        list(ub) + np.maximum(np.asarray(b_ub) - row_min, 0.0).tolist(),
        integer=list([False] * n if integer is None else integer) + [True] * k,
        A_eq=np.block([[A_ub, np.eye(k)], [A_eq, np.zeros((len(b_eq), k))]]),
        b_eq=list(b_ub) + list(b_eq),
        constant=constant,
    )


def le_model(obj, lb, ub, integer=None, A_ub=(), b_ub=(), A_eq=(), b_eq=(), constant=0.0):
    """`slack_model`'s problem with its inequality rows as `<=` rows: row_lower -inf."""
    n, k = len(obj), len(b_ub)
    m = model(obj, lb, ub, integer, A_eq=np.vstack([np.reshape(A_ub, (k, n)),
                                                    np.reshape(A_eq, (len(b_eq), n))]),
              b_eq=np.r_[b_ub, b_eq], constant=constant)
    return replace(m, row_lower=np.where(np.arange(len(m.b_eq)) < k, -np.inf, m.b_eq))


def simple_model():
    # max 2 v1 + v2, s.t. v1 <= 1, v2 <= 1, v1 + v2 <= 1.5, v >= 0
    return slack_model([2.0, 1.0], [0.0, 0.0], [1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.5])


class TestLpSolve:
    def test_single_bounded_variable(self):
        m = slack_model([1.0], [0.0], [10.0], A_ub=[[1.0]], b_ub=[3.0])
        sol = lp_solve(m)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_facet_optimum(self):
        m = slack_model([1.0, 1.0], [0.0, 0.0], [5.0, 5.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = lp_solve(m)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_vertex_optimum(self):
        # enumerate the vertices of the 2-D polytope: best is (1, 0.5) -> 2.5
        vertices = [(0, 0), (1, 0), (0, 1), (1, 0.5), (0.5, 1)]
        oracle = max(2 * a + b for a, b in vertices)
        sol = lp_solve(simple_model())
        assert sol.objective == pytest.approx(oracle, abs=1e-9)
        assert sol.values[:2] == pytest.approx([1.0, 0.5], abs=1e-9)

    def test_infeasible(self):
        m = slack_model([1.0], [0.0], [1.0], A_ub=[[-1.0]], b_ub=[-2.0])  # v1 >= 2
        with pytest.raises(PlanningError, match="^no plan: solver status infeasible$"):
            lp_solve(m)

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(ValueError, match="inconsistent variable bounds"):
            model([1.0], [2.0], [1.0])

    def test_status_neither_optimal_nor_infeasible_raises(self, monkeypatch):
        # HiGHS once stopped with kUnknown on a benchmark plan; lp_solve must not read x
        unknown = scipy.optimize.OptimizeResult(status=HighsModelStatus.kUnknown, nit=3,
                                                x=None, fun=None)
        monkeypatch.setattr(milp, "linprog", lambda c, **kwargs: unknown)
        with pytest.raises(RuntimeError, match="^LP backend failed: HiGHS model status kUnknown$"):
            lp_solve(simple_model())

    def test_option_highs_rejects_raises(self, monkeypatch):
        # HiGHS returns kError for an unknown option without raising
        monkeypatch.setattr(milp, "HIGHS_OPTIONS", milp.HIGHS_OPTIONS + (("no_such_option", 1),))
        with pytest.raises(RuntimeError, match="^HiGHS rejected option no_such_option = 1$"):
            lp_solve(simple_model())

    def test_callers_matrix_left_as_it_is(self):
        # the model canonicalises a copy: the caller's stored 0 stays where it was
        A = sparse.csc_matrix(([1.0, 0.0, 2.0], [0, 0, 0], [0, 1, 2, 3]), shape=(1, 3))
        m = MilpModel(objective=np.ones(3), lower=np.zeros(3), upper=np.ones(3),
                      is_integer=np.zeros(3, bool), A_eq=A, b_eq=[1.0])
        assert A.data.tolist() == [1.0, 0.0, 2.0] and A.indptr.tolist() == [0, 1, 2, 3]
        assert m.A_eq.data.tolist() == [1.0, 2.0] and m.A_eq.indptr.tolist() == [0, 1, 1, 2]

    def test_canonical_matrix_kept_as_it_is(self):
        A = sparse.csc_matrix(([1.0, -1.0, 2.0], [0, 1, 1], [0, 2, 2, 3]), shape=(2, 3))
        m = replace(simple_model(), objective=np.ones(3), lower=np.zeros(3), upper=np.ones(3),
                    is_integer=np.zeros(3, bool), A_eq=A, b_eq=[1.0, 1.0], row_lower=None)
        assert m.A_eq is A

    @pytest.mark.parametrize("A", [
        pytest.param(sparse.csc_matrix(([1.0, 2.0], [1, 0], [0, 2, 2])), id="falling-rows"),
        pytest.param(sparse.csc_matrix(([1.0, 2.0], [1, 1], [0, 2, 2])), id="duplicate"),
        pytest.param(sparse.csc_matrix(([1.0, -0.0], [0, 1], [0, 1, 2])), id="stored-zero"),
        pytest.param(sparse.csc_matrix(([1, 2], [0, 1], [0, 1, 2])), id="integers"),
        pytest.param(sparse.csr_matrix(([1.0, 2.0], [0, 1], [0, 1, 2])), id="rows"),
        pytest.param(np.array([[1.0, 0.0], [0.0, 2.0]]), id="dense"),
    ])
    def test_other_matrices_copied_into_canonical_form(self, A):
        """The model checks the form itself: a flag that claims it is not trusted."""
        if sparse.issparse(A):
            A.has_canonical_format = True
        before = [a.copy() for a in (A.data, A.indices, A.indptr)] if sparse.issparse(A) else None
        m = MilpModel(objective=np.ones(2), lower=np.zeros(2), upper=np.ones(2),
                      is_integer=np.zeros(2, bool), A_eq=A, b_eq=[1.0, 1.0])
        want = sparse.csc_matrix(A.toarray() if sparse.issparse(A) else A, dtype=float)
        assert m.A_eq is not A and type(m.A_eq) is sparse.csc_matrix
        assert np.array_equal(m.A_eq.indptr, want.indptr)
        assert np.array_equal(m.A_eq.indices, want.indices)
        assert np.array_equal(m.A_eq.data, want.data) and m.A_eq.data.dtype == np.float64
        if before is not None:
            assert all(map(np.array_equal, before, (A.data, A.indices, A.indptr)))

    def test_unbounded(self):
        # every column must be bounded, so no model is unbounded
        with pytest.raises(ValueError):
            model([1.0], [0.0], [math.inf])


class TestMilpSolve:
    def test_integral_relaxation_single_node(self):
        m = model([1.0], [0.0], [5.0], integer=[True])
        sol = milp_solve(m)
        assert sol.objective == pytest.approx(5.0, abs=1e-9)
        assert sol.nodes_explored == 1

    def test_fractional_vertex_raises(self):
        # max v s.t. 2 v <= 3: not totally unimodular, the LP optimum is 1.5
        m = slack_model([1.0], [0.0], [10.0], integer=[True], A_ub=[[2.0]], b_ub=[3.0])
        with pytest.raises(RuntimeError, match="not integral: column 0 = 1.5;"):
            milp_solve(m)

    def test_infeasible_integer(self):
        m = model([1.0, 1.0], [0.0, 0.0], [3.0, 3.0], integer=[True, True],
                  A_eq=[[1.0, 1.0]], b_eq=[7.0])
        with pytest.raises(PlanningError, match="^no plan: solver status infeasible$"):
            milp_solve(m)

    def test_unbounded_integers_rejected(self):
        with pytest.raises(ValueError):
            model([1.0], [0.0], [math.inf], integer=[True])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_enumeration_on_random_models(self, seed):
        rng = np.random.default_rng(seed)
        problem = _random_tu_problem(rng, n=int(rng.integers(2, 6)), width=int(rng.integers(2, 6)))
        oracle = _enumerate_optimum(problem)
        for build in (slack_model, le_model):
            if oracle is None:
                with pytest.raises(PlanningError):
                    milp_solve(build(**problem))
            else:
                sol = milp_solve(build(**problem))
                assert sol.objective == pytest.approx(oracle, abs=1e-6)
                residual_check(problem, sol.values[:len(problem["obj"])])

    def test_determinism(self):
        rng = np.random.default_rng(123)
        m = slack_model(**_random_tu_problem(rng, n=5, width=5))
        a = milp_solve(m)
        b = milp_solve(m)
        assert a.nodes_explored == b.nodes_explored == 1
        assert a.objective == b.objective
        assert np.array_equal(a.values, b.values)

    def test_solution_invariants(self):
        # max 3 v1 + 2 v2 + 0.5 s.t. v1 + v2 <= 5, v2 - v1 = 1
        m = slack_model([3.0, 2.0], [0.0, 0.0], [4.0, 4.0], integer=[True, True],
                        A_ub=[[1.0, 1.0]], b_ub=[5.0], A_eq=[[-1.0, 1.0]], b_eq=[1.0],
                        constant=0.5)
        sol = milp_solve(m)
        assert np.array_equal(sol.values, np.rint(sol.values))
        assert sol.values[:2].tolist() == [2.0, 3.0]
        assert sol.objective == 3.0 * 2 + 2.0 * 3 + 0.5


def _reference_solve(model):
    """HiGHS on the model passed as a `HighsLp`, with lp_solve's options set
    one by one and, where the model names one, its start basis built row by
    row: `status` (optimal, or 2 where HiGHS reports the model infeasible or
    in error), the optimum `x` and `fun` and iterations `nit`.
    `scipy.optimize.linprog`, given the `<=` rows as A_ub, must report the
    same status and, within 1e-9 relative, the same optimum."""
    A, ub = model.A_eq, model.row_lower == -np.inf
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.n_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = len(model.b_eq)
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    # lp_solve's costs, scaled by milp.COST_SCALE, and its optimum, scaled back
    lp.col_cost_ = -milp.COST_SCALE * model.objective
    lp.col_lower_, lp.col_upper_ = model.lower, model.upper
    lp.row_lower_, lp.row_upper_ = model.row_lower, model.b_eq
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
    highs = _Highs()
    for option, value in milp.HIGHS_OPTIONS:
        assert highs.setOptionValue(option, value) == HighsStatus.kOk
    loaded = highs.passModel(lp) != HighsStatus.kError
    if loaded and model.basic is not None:
        # column basic[i] is basic in place of row i's slack, where basic[i] >= 0; every other
        # column is nonbasic at its lower bound
        cols = [HighsBasisStatus.kLower] * model.n_vars
        rows = [HighsBasisStatus.kBasic] * len(model.b_eq)
        for i in range(len(model.b_eq)):
            j = int(model.basic[i])
            if j >= 0:
                cols[j], rows[i] = HighsBasisStatus.kBasic, HighsBasisStatus.kLower
        basis = HighsBasis()
        basis.col_status, basis.row_status = cols, rows
        basis.valid, basis.alien = True, False
        assert highs.setBasis(basis) == HighsStatus.kOk
    if loaded:
        highs.run()
    status = highs.getModelStatus() if loaded else HighsModelStatus.kModelError
    assert status in (HighsModelStatus.kOptimal, HighsModelStatus.kInfeasible,
                      HighsModelStatus.kModelError), status
    info, optimal = highs.getInfo(), status == HighsModelStatus.kOptimal
    ref = scipy.optimize.OptimizeResult(
        status=0 if optimal else 2, nit=max(info.simplex_iteration_count, 0),
        x=np.array(highs.getSolution().col_value) if optimal else None,
        fun=info.objective_function_value / milp.COST_SCALE if optimal else None)
    second = scipy.optimize.linprog(
        -model.objective, A_ub=A[ub], b_ub=model.b_eq[ub], A_eq=A[~ub], b_eq=model.b_eq[~ub],
        bounds=np.column_stack([model.lower, model.upper]), method="highs",
        options={"dual_feasibility_tolerance": milp.DUAL_TOL, "presolve": False})
    assert second.status == ref.status, second.message
    if optimal:
        assert math.isclose(second.fun, ref.fun, rel_tol=1e-9, abs_tol=1e-9)
    return ref


def _assert_same_solve(model):
    """lp_solve raises PlanningError exactly where the reference reports
    status 2, and otherwise returns its optimum; both take the same iterations."""
    nits = []

    def counted(c, real=milp.linprog, **kwargs):
        res = real(c, **kwargs)
        nits.append(res.nit)
        return res

    reference = _reference_solve(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "linprog", counted)
        if reference.status == 2:
            with pytest.raises(PlanningError, match="^no plan: solver status infeasible$"):
                lp_solve(model)
        else:
            ours = lp_solve(model)
            assert np.array_equal(ours.values, reference.x)
            assert ours.objective == model.constant - reference.fun
    assert nits == [reference.nit]


def _segment_models(solve):
    """The models `solve` hands milp_solve, one per LP round."""
    models = []
    real = planner.milp_solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "milp_solve", lambda m, *rest: models.append(m) or real(m, *rest))
        try:
            solve()
        except PlanningError:
            pass
    return models


class TestHighsBackends:
    """`milp.linprog` calls HiGHS directly; `scipy.optimize.linprog`, the
    reference, must solve every LP the same, bit for bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_tu_models(self, seed):
        rng = np.random.default_rng(seed)
        problem = _random_tu_problem(rng, n=int(rng.integers(2, 6)), width=int(rng.integers(2, 6)))
        _assert_same_solve(slack_model(**problem))
        _assert_same_solve(le_model(**problem))

    @pytest.mark.parametrize("solve, rounds", [
        (lambda: plan(Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0,
                               c_veh=100)), 2),
        (lambda sc=Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100,
                            boundary=Boundary.CIRCULAR):
            plan_baseline(sc, service_standard_supply(sc, 0.8)), 2),
        (lambda sc=Scenario(T=24, N=6, s=2, delta=4, beta=2, d_max=8.0, a=1.5, c_veh=5):
            plan_baseline(sc, economic_standard_supply(sc, 1.0)), 1),
        # the windowed round's optimum rests on a window side: a third, full round
        (lambda: plan(Scenario(T=19, N=143, s=3, delta=5, beta=0, d_max=26.062734815051325,
                               a=2.824821213818114, c_veh=141, boundary=Boundary.CIRCULAR)), 3),
        # no vehicle for N = 2 drivers: infeasible
        (lambda: plan(Scenario(T=6, N=2, s=1, delta=2, beta=1, d_max=4.0, a=2.0, c_veh=0)), 1),
    ])
    def test_segment_models(self, solve, rounds):
        models = _segment_models(solve)
        assert len(models) >= rounds
        for model in models:
            _assert_same_solve(model)

    @pytest.mark.parametrize("A_eq, b_eq", [([[1e20, 1.0]], [1.0]), ([[1.0, 1.0]], [1e31])])
    def test_models_highs_rejects(self, A_eq, b_eq):
        # HiGHS rejects a matrix value of 1e15 or more and a right-hand side of
        # 1e30, its infinity, or more: a model error, on which lp_solve raises
        # PlanningError and linprog reports status 2
        _assert_same_solve(model([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], A_eq=A_eq, b_eq=b_eq))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rows_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            model([1.0], [0.0], [1.0], A_eq=[[bad]], b_eq=[1.0])
        with pytest.raises(ValueError, match="finite"):
            model([1.0], [0.0], [1.0], A_eq=[[1.0]], b_eq=[bad])


class TestHighsObjects:
    """A cold LP goes into this thread's one HiGHS object, cleared first, and an LP under a
    HotStart into that HotStart's own."""

    def test_one_object_per_thread(self):
        mine = milp._thread_highs()
        assert milp._thread_highs() is mine and milp.HotStart().highs is not mine
        theirs = []
        helper = threading.Thread(target=lambda: theirs.append(milp._thread_highs()))
        helper.start()
        helper.join()
        assert theirs[0] is not mine

    def test_repeated_cold_solve_takes_the_same_iterations(self):
        # a basis left from the last LP would re-solve the same LP in 0 iterations
        models = _segment_models(lambda: plan(Scenario(T=48, N=120, s=2, delta=6, beta=4,
                                                       d_max=120.0, a=2.0, c_veh=100)))
        mine = milp._thread_highs()
        assert max(m.A_eq.nnz for m in models) <= milp._KEEP_NNZ
        for model in models + models:
            assert lp_solve(model).iterations == _reference_solve(model).nit > 0
        assert milp._thread_highs() is mine

    def test_large_lp_kept_out_of_the_thread_object(self, monkeypatch):
        """An LP over _KEEP_NNZ nonzeros, whose memory the thread's object would keep, goes into
        a new object, also where its solve raises."""
        model = build_reward_mip(Scenario(T=168, N=40, s=5, delta=8, beta=8, d_max=40.0, a=2.0,
                                          c_veh=40))
        assert model.A_eq.nnz > milp._KEEP_NNZ

        class Rejecting(_Highs):
            def setBasis(self, basis):
                return HighsStatus.kError

        for highs in (_Highs, Rejecting):
            monkeypatch.setattr(milp, "_Highs", highs)
            lp_solve(simple_model())
            mine = milp._thread_highs()
            if highs is _Highs:
                assert lp_solve(model).iterations == _reference_solve(model).nit
            else:
                with pytest.raises(RuntimeError, match="^HiGHS rejected the start basis$"):
                    lp_solve(model)
            assert milp._thread_highs() is mine and mine.getNumNz() == simple_model().A_eq.nnz

    def test_cold_solve_between_hot_ones(self):
        """A cold LP between two LPs of one HotStart leaves its model as it was: the second
        still re-solves hot, with the iterations and optimum of a run without the cold LP."""
        sc = Scenario(T=24, N=6, s=2, delta=4, beta=2, d_max=8.0, a=1.5, c_veh=5)
        models = [_segment_models(lambda: plan_baseline(sc, desired))[0] for desired in (
            service_standard_supply(sc, 0.8), economic_standard_supply(sc, 1.0))]
        cold = _segment_models(lambda: plan(sc))[0]

        def run(between):
            hot, out = milp.HotStart(), []
            for k, model in enumerate(models):
                assert hot.holds(model) == (k > 0)
                out.append(lp_solve(model, hot))
                if between:
                    assert lp_solve(cold).iterations == _reference_solve(cold).nit
            return [(sol.values.tolist(), sol.objective, sol.iterations) for sol in out]

        assert run(True) == run(False)


_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _small_plans(seed):
    """The benchmark's small-plans scenarios at `seed` (bench/workloads.py)."""
    def load(name):
        spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "checks", load("checks"))  # workloads imports it by name
        return [Scenario.from_dict(sc) for sc in load("workloads").small_plans(seed)]


def _greedy_start(scenario, env):
    """The segment model's start basis, built in plain Python: x_t in link row t and, in supply
    row t, the piece of step t where a fill of the working time over (gain, step, k) in
    descending gain stops. A piece spans its envelope piece, cut at min(c_veh, N)."""
    T, cap = scenario.T, min(scenario.c_veh, scenario.N)
    pieces, columns = [], [[] for _ in range(T)]
    begin = env.start.tolist()
    for j, (step, end, slope) in enumerate(zip(env.step.tolist(), env.ends.tolist(),
                                               env.slopes.tolist())):
        k = len(columns[step])
        columns[step].append(2 * T + j)
        pieces.append((-env.sign * slope, step, k, min(max(cap - begin[step], 0),
                                                        end - begin[step])))
        begin[step] = end
    left, taken = scenario.working_time - sum(env.start.tolist()), [0] * T
    for _, step, _, width in sorted(pieces):
        if width > left:
            break
        left -= width
        taken[step] += 1
    return (list(range(T)) + [cols[min(n, len(cols) - 1)] for cols, n in zip(columns, taken)]
            + [-1] * (T + 1))


@st.composite
def _tied_envelopes(draw):
    """A scenario and envelopes whose gains take four values, so that many pieces tie, and
    the greedy fill often stops inside a tie: 1-6 pieces per step, of widths 1-3 from a start
    of 0-2, with falling gains (rising slopes where sign = -1)."""
    T, sign = draw(st.integers(1, 8)), draw(st.sampled_from([1, -1]))
    step, ends, gains, start = [], [], [], []
    for t in range(T):
        k, lo = draw(st.integers(1, 6)), draw(st.integers(0, 2))
        step += [t] * k
        ends += (lo + np.cumsum(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)))).tolist()
        gains += sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0]), min_size=k,
                                      max_size=k)), reverse=True)
        start.append(lo)
    env = Envelopes(step=np.array(step), ends=np.array(ends), slopes=sign * np.array(gains),
                    intercepts=np.zeros(len(step)), start=np.array(start),
                    start_value=np.zeros(T), sign=sign)
    sc = Scenario(T=T, N=draw(st.integers(1, 12)), s=draw(st.integers(1, 3)),
                  delta=draw(st.integers(1, T)), beta=0, d_max=1.0, a=1.0,
                  c_veh=draw(st.integers(0, 14)))
    return sc, env


class TestStartBasis:
    """A cold solve starts from the model's `basic`; the planner names x_t in link row t and,
    in supply row t, the piece where a greedy fill of the working time by gain stops."""

    # column 0: 1.0 in row 0; column 1: 1.0 in rows 0 and 1; column 2: an explicit 0.0 in
    # row 1; column 3: 2.0 in row 1
    A = sparse.csc_matrix(([1.0, 1.0, 1.0, 0.0, 2.0], [0, 0, 1, 1, 1], [0, 1, 3, 4, 5]),
                          shape=(2, 4))

    def _model(self, basic):
        return MilpModel(objective=np.zeros(4), lower=np.zeros(4), upper=np.ones(4),
                         is_integer=np.zeros(4, bool), A_eq=self.A, b_eq=[1.0, 1.0],
                         basic=basic)

    @pytest.mark.parametrize("basic", [[0, 3], [-1, 3], [0, -1], [-1, -1]])
    def test_valid_basic_kept(self, basic):
        assert self._model(basic).basic.tolist() == basic

    @pytest.mark.parametrize("basic", [
        pytest.param([1, -1], id="two-entries"),
        pytest.param([3, -1], id="other-row"),
        pytest.param([-1, 2], id="explicit-zero"),
        pytest.param([0, 0], id="repeated"),
        pytest.param([4, -1], id="past-last-column"),
        pytest.param([-2, 3], id="below-minus-one"),
        pytest.param([0], id="short"),
        pytest.param([0, 3, -1], id="long"),
        pytest.param([[0, 3]], id="two-dimensional"),
    ])
    def test_invalid_basic_rejected(self, basic):
        with pytest.raises(ValueError, match="^basic must "):
            self._model(basic)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("kind", ["reward", "deviation", "windowed", "tied"])
    def test_segment_model(self, kind, boundary):
        sc = Scenario(T=48, N=120, s=2, delta=6, beta=4, d_max=120.0, a=2.0, c_veh=100,
                      boundary=boundary)
        y_max = min(sc.c_veh, sc.N)
        if kind == "reward":
            env = concavify_reward(demand_vector(sc), sc.a, 0, y_max)
        elif kind == "deviation":
            env = convexify_sq_dev(service_standard_supply(sc, 0.8), 0, y_max, 2)
        elif kind == "windowed":  # a later round: windows of every integer around a supply
            lo = np.random.default_rng(3).integers(1, 60, sc.T)
            env = concavify_reward(demand_vector(sc), sc.a, lo, lo + 9)
        else:  # equal demand: the gains tie across steps, and 2*121*6 = 30*48 + 12, so the
            sc = replace(sc, N=121)  # working time fills a 31st piece in the first 12 steps only
            env = concavify_reward(np.full(sc.T, 40.0), sc.a, 0, y_max)
        m = planner._segment_model(sc, env)
        expected = _greedy_start(sc, env)
        assert m.basic.tolist() == expected
        # the fill stops at different pieces in different steps
        firsts = 2 * sc.T + np.searchsorted(env.step, range(sc.T))
        assert len(set((m.basic[sc.T : 2 * sc.T] - firsts).tolist())) > 1

    @settings(max_examples=150, deadline=None)
    @given(drawn=_tied_envelopes())
    def test_equal_gains_fill_in_index_order(self, drawn):
        sc, env = drawn
        assert planner._segment_model(sc, env).basic.tolist() == _greedy_start(sc, env)

    def test_basis_highs_rejects_raises(self, monkeypatch):
        class Rejecting(_Highs):
            def setBasis(self, basis):
                return HighsStatus.kError

        monkeypatch.setattr(milp, "_Highs", Rejecting)
        lp_solve(simple_model())  # no `basic`: no basis handed to HiGHS
        with pytest.raises(RuntimeError, match="^HiGHS rejected the start basis$"):
            lp_solve(replace(simple_model(), basic=[2]))  # the slack column of row 0

    def test_fewer_iterations_than_the_slack_start(self):
        # the first 30 small-plans scenarios of the benchmark at seed 7, one LP each: 4,423
        # iterations from the greedy start and 7,633 from the all-slack basis
        models = [m for sc in _small_plans(7)[:30] for m in _segment_models(lambda: plan(sc))]
        assert len(models) == 30
        ours = [milp_solve(m).iterations for m in models]
        assert ours == [_reference_solve(m).nit for m in models]
        assert sum(ours) <= 0.65 * sum(_reference_solve(replace(m, basic=None)).nit
                                       for m in models)


def _random_tu_problem(rng, n, width):
    """Integer data over an interval matrix (each row a run of consecutive
    columns, times +-1): totally unimodular, like the planner's window rows.
    Returns `slack_model`'s arguments."""
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
    return dict(
        obj=[float(rng.integers(-5, 6)) for _ in range(n)],
        lb=[0.0] * n,
        ub=[float(width)] * n,
        integer=[True] * n,
        A_ub=np.reshape(rows["A_ub"], (-1, n)),
        b_ub=np.array(rows["b_ub"]),
        A_eq=np.reshape(rows["A_eq"], (-1, n)),
        b_eq=np.array(rows["b_eq"]),
    )


def _row_values(p, v):
    return (p["A_ub"] @ v, p["A_eq"] @ v)


def _enumerate_optimum(p):
    """Best objective of the original problem, over its own columns."""
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(p["lb"], p["ub"])]
    best = None
    for point in itertools.product(*ranges):
        v = np.array(point, dtype=float)
        ub, eq = _row_values(p, v)
        if np.all(ub <= p["b_ub"] + 1e-9) and np.all(np.abs(eq - p["b_eq"]) <= 1e-9):
            val = float(np.dot(p["obj"], v))
            best = val if best is None else max(best, val)
    return best


def residual_check(p, values):
    ub, eq = _row_values(p, values)
    b_ub, b_eq = p["b_ub"], p["b_eq"]
    assert np.all(ub <= b_ub + 1e-7 * (1 + np.abs(b_ub)))
    assert np.all(np.abs(eq - b_eq) <= 1e-7 * (1 + np.abs(b_eq)))


def _oracle_plan(text, T):
    values = solve_parsed_lp(parse_lp(text))
    return ShiftPlan(x=np.rint([values[f"x_{t}"] for t in range(1, T + 1)]).astype(np.int64))


class TestExportLp:
    def test_empty_model(self):
        text = export_lp(model([], [], []))
        for section in ("Maximize", "Subject To", "Bounds", "End"):
            assert section in text
        assert text.endswith("End\n")

    def test_unnamed_model_writes_v1_to_vn(self):
        m = model([2.0, -1.0], [0.0, 1.0], [3.0, 4.0], integer=[True, False],
                  A_eq=[[1.0, 1.0]], b_eq=[2.0])
        assert m.names is None
        assert export_lp(m).splitlines()[1:] == [
            "Maximize", " obj: 2 v1 - 1 v2", "Subject To", " c0: 1 v1 + 1 v2 = 2",
            "Bounds", " 0 <= v1 <= 3", " 1 <= v2 <= 4", "Generals", " v1", "End",
        ]

    def test_names_must_match_the_columns(self):
        with pytest.raises(ValueError, match="names"):
            model([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], names=["only_one"])

    def test_rows_must_match_the_columns(self):
        with pytest.raises(ValueError, match="A_eq and b_eq"):
            model([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0])

    def test_rows_with_no_lower_side_are_written_le(self):
        m = model([1.0, 1.0], [0.0, 0.0], [3.0, 3.0], A_eq=[[1.0, 1.0], [1.0, -1.0]],
                  b_eq=[2.0, 1.0])
        m = replace(m, row_lower=[2.0, -math.inf])
        assert export_lp(m).splitlines()[4:6] == [" c0: 1 v1 + 1 v2 = 2", " c1: 1 v1 - 1 v2 <= 1"]
        assert lp_solve(m).objective == pytest.approx(2.0, abs=1e-9)
        with pytest.raises(ValueError, match="row_lower"):
            replace(m, row_lower=[2.0, 0.0])  # a ranged row
        with pytest.raises(ValueError, match="row_lower"):
            replace(m, row_lower=[-math.inf])

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
            for desired in (service_standard_supply(sc, 0.8), economic_standard_supply(sc, 1.0)):
                text = export_lp(build_deviation_mip(sc, desired))
                assert "\\ Objective constant: -" in text
                y = supply_curve(_oracle_plan(text, sc.T), sc).y
                assert np.sum((y - desired) ** 2) == pytest.approx(
                    plan_baseline(sc, desired).mip_objective, rel=1e-9
                )

    def test_zero_demand_objective_reads_back(self):
        sc = Scenario(T=6, N=2, s=1, delta=2, beta=1, d_max=0.0, a=2.0, c_veh=2)
        text = export_lp(build_reward_mip(sc))
        assert " obj: 0 x_1" in text.splitlines()
        parsed = parse_lp(text)
        values = solve_parsed_lp(parsed)
        assert sum(c * values[n] for n, c in parsed["objective"].items()) == 0.0

    def test_numbers_have_12_significant_digits(self):
        m = model([1.0 / 3.0], [0.0], [1.0], names=["x"])
        assert "0.333333333333 x" in export_lp(m)


# 0, -0.0, exact integers past 2**53 and magnitudes from 1e-300 to 2**62, either sign
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 / 3.0, 2.0**53 + 2, 2.0**62]),
    st.builds(lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]), st.floats(1e-300, 2.0**62)),
)


@st.composite
def _models(draw):
    """Random models: explicit and summed-to-zero entries in A_eq, empty rows,
    `<=` rows, no columns, unnamed columns, '%' in names and a constant."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    vec = lambda k: st.lists(_VALUES, min_size=k, max_size=k)
    bounds = np.sort(np.array(draw(st.lists(st.tuples(_VALUES, _VALUES), min_size=n, max_size=n)),
                              dtype=float).reshape(n, 2), axis=1)
    entries = draw(st.lists(st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(n - 1, 0)),
                                      _VALUES), max_size=3 * n * m))
    rows, cols, data = zip(*entries) if entries else ((), (), ())
    names = draw(st.none() | st.lists(st.text("ab_%0", min_size=1, max_size=4),
                                      min_size=n, max_size=n, unique=True))
    b = np.array(draw(vec(m)), dtype=float)
    upper_only = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    return MilpModel(objective=draw(vec(n)), lower=bounds[:, 0], upper=bounds[:, 1],
                     is_integer=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                     A_eq=sparse.csc_matrix((data, (rows, cols)), shape=(m, n)),
                     b_eq=b, names=names, constant=draw(_VALUES),
                     row_lower=np.where(upper_only, -np.inf, b))


def _assert_same_bytes(m):
    """export_lp(m) == export_lp_reference(m), reported at the first differing
    byte: pytest's own diff of two multi-megabyte files takes minutes."""
    text, ref = export_lp(m), export_lp_reference(m)
    if text != ref:
        k = next((k for k, (a, b) in enumerate(zip(text, ref)) if a != b),
                 min(len(text), len(ref)))
        near = slice(max(k - 40, 0), k + 40)
        pytest.fail(f"first difference at byte {k}: {text[near]!r} != {ref[near]!r}")


class TestExportLpBytes:
    """`export_lp` writes the same bytes as the term-by-term renderer."""

    @settings(max_examples=300, deadline=None)
    @given(_models())
    def test_random_models(self, m):
        _assert_same_bytes(m)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("week", ["headline_scenario", "large_fleet_scenario"])
    def test_segment_models(self, week, boundary, request):
        sc = replace(request.getfixturevalue(week), boundary=boundary)
        for m in (build_reward_mip(sc), build_deviation_mip(sc, service_standard_supply(sc, 0.8))):
            _assert_same_bytes(m)
