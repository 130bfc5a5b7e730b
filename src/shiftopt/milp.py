"""Integer linear models solved as one exact LP, and LP export.

A model is the planner's LP form: maximize over bounded columns subject to
equality and `<=` rows. The planner's models have a totally unimodular
constraint matrix and integral bounds and right-hand sides, so every basic
optimum of the LP relaxation is integral (Hochbaum & Shanthikumar 1990,
J. ACM 37(4)). `milp_solve` therefore solves the relaxation once with HiGHS
and checks the optimum for integrality instead of branching. A model with no
feasible point raises `PlanningError` where HiGHS reports it.

HiGHS is called through SciPy's private bundled bindings (SciPy >= 1.15),
in `linprog` only: a separate function because the benchmark hooks it.
A cold solve starts HiGHS's dual simplex from the basis the model names in
`basic` (a triangular crash basis; Bixby 1992, ORSA J. Computing 4(3)). The
model's builder knows its structure and can start each row near its optimal
price (Maros & Mitra 1998, INFORMS J. Computing 10(2)); a model without
`basic` starts from the all-slack basis. Where the LP has several optima the
one HiGHS reaches depends on the start. A model may be re-solved with new
costs: `lp_solve` given a `HotStart` keeps the HiGHS model of each LP it
solves, and an LP whose rows and column bounds equal the last one's changes
only the costs and runs HiGHS's dual simplex again from the last optimal
basis (Huangfu & Hall 2018, Math. Prog. Comp. 10(1)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy._core import (HighsBasis, HighsBasisStatus, HighsModelStatus,
                                           HighsStatus, MatrixFormat, ObjSense, _Highs)
from scipy.sparse import csc_matrix, csr_matrix

__all__ = [
    "MilpModel",
    "MilpSolution",
    "PlanningError",
    "export_lp",
    "lp_solve",
    "milp_solve",
]

INT_TOL = 1e-6
# HiGHS's default dual feasibility tolerance (1e-7) lets it stop with chord
# gains up to that size unused, up to ~1e-8 of the objective where the
# reward saturates
DUAL_TOL = 1e-10
# linprog's HiGHS options. No presolve: the planner's rows are already tight, and its LPs
# solve 15-30% faster. No cost perturbation: its cleanup can leave chord gains below DUAL_TOL
# with a ~1e-8 dual infeasibility, and the model status kUnknown
HIGHS_OPTIONS = (("output_flag", False), ("simplex_strategy", 1), ("presolve", "off"),
                 ("dual_feasibility_tolerance", DUAL_TOL),
                 ("dual_simplex_cost_perturbation_multiplier", 0.0))
# lp_solve hands HiGHS the costs times this power of two and divides the optimum by it, both
# exact. Where demand is far above supply, consecutive chord gains differ by about a^2/d, and
# DUAL_TOL, being absolute, lets HiGHS stop with such gains unused: 2**10 brings it to about
# 1e-13 of a unit gain. Fixed, not drawn from the costs: the gains left unused are the reward's,
# at most a, and scaling to the largest |c| would loosen the tolerance wherever a > 1
COST_SCALE = 2.0**10


class PlanningError(Exception):
    """Raised when the model has no feasible point: no plan exists."""


@dataclass(frozen=True)
class MilpModel:
    """max objective·v + constant  s.t.  row_lower <= A_eq v <= b_eq, lower <= v <= upper, with
    v_j integral where is_integer[j]. row_lower is b_eq (the default: an equality row) or -inf (a
    `<=` row). A model without rows has a 0 x n A_eq. `names` are only read by `export_lp`.
    basic[i] >= 0 names a column whose one entry lies in row i, basic in place of row i's slack
    at a cold start, and -1 keeps the slack: the start matrix is a permuted diagonal plus an
    identity, so it is nonsingular. Without `basic` HiGHS starts from the all-slack basis."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_integer: np.ndarray
    A_eq: csc_matrix
    b_eq: np.ndarray
    names: list[str] | None = None
    constant: float = 0.0
    row_lower: np.ndarray | None = None
    basic: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.objective)
        for name in ("objective", "lower", "upper"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (n,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must hold {n} finite values")
            object.__setattr__(self, name, v)
        if np.any(self.lower > self.upper):
            raise ValueError("inconsistent variable bounds")
        object.__setattr__(self, "is_integer", np.asarray(self.is_integer, dtype=bool))
        if self.is_integer.shape != (n,) or (self.names is not None and len(self.names) != n):
            raise ValueError("is_integer and names must have one entry per column")
        A = csc_matrix(self.A_eq, dtype=float, copy=True)  # columns, as HiGHS takes them
        A.sum_duplicates()  # canonical, in the copy: one sorted entry per (row, column), none zero
        A.eliminate_zeros()  # explicit zeros and -0.0
        b = np.asarray(self.b_eq, dtype=float)
        if A.shape[1] != n or b.shape != (A.shape[0],) or not np.isfinite(np.r_[A.data, b]).all():
            raise ValueError("A_eq and b_eq must be finite and match the columns")
        lo = b if self.row_lower is None else np.asarray(self.row_lower, dtype=float)
        if lo.shape != b.shape or not np.all((lo == b) | (lo == -np.inf)):
            raise ValueError("row_lower must equal b_eq or be -inf in each row")
        object.__setattr__(self, "A_eq", A)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "row_lower", lo)
        if self.basic is not None:
            basic = np.asarray(self.basic, dtype=np.int64)
            if basic.shape != b.shape:
                raise ValueError("basic must have one entry per row")
            rows = np.flatnonzero(basic >= 0)
            j = basic[rows]
            ok = np.all(basic >= -1) and np.all(j < n)
            if ok:  # one stored entry per named column, in its row: none named twice
                k = A.indptr[j]
                ok = np.all(A.indptr[j + 1] - k == 1) and np.array_equal(A.indices[k], rows)
            if not ok:
                raise ValueError("basic must name -1 or a distinct column per row, whose one "
                                 "entry is nonzero and lies in that row")
            object.__setattr__(self, "basic", basic)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class MilpSolution:
    values: np.ndarray
    objective: float
    nodes_explored: int  # LP solves
    iterations: int  # HiGHS's simplex iterations


class HotStart:
    """The last model that `lp_solve` solved optimally through this object, with its HiGHS
    model. The next LP reuses that HiGHS model where only its costs differ. An instance belongs
    to one thread and must never be shared: two threads would run one HiGHS model at once."""

    def __init__(self):
        self.model: MilpModel | None = None
        self.highs = None

    def holds(self, model: MilpModel) -> bool:
        """Whether model has the last model's rows, right-hand sides and column bounds."""
        return self.model is not None and all(map(np.array_equal, _rows_and_bounds(self.model),
                                                  _rows_and_bounds(model)))


def _rows_and_bounds(model: MilpModel) -> tuple:
    A = model.A_eq  # canonical CSC: equal matrices have equal arrays
    return A.indptr, A.indices, A.data, model.b_eq, model.row_lower, model.lower, model.upper


def linprog(c, *, A_eq, b_eq, row_lower, lower, upper, basic=None, highs=None):
    """min c·v  s.t.  row_lower <= A_eq v <= b_eq, lower <= v <= upper by HiGHS's dual simplex
    with HIGHS_OPTIONS (RuntimeError naming an option HiGHS rejects): HiGHS's model `status`,
    optimum `x` and `fun` (None unless optimal), iterations `nit` and the HiGHS model `highs`.
    A new model starts from `basic`, a valid `MilpModel.basic` (RuntimeError if HiGHS rejects
    it; all-slack if None), with every column it does not name nonbasic at its lower bound, which
    HiGHS moves to the dual-feasible bound of a boxed one. Given `highs`, a former result's model
    of an LP with these rows and bounds, `basic` is ignored: only the costs change and HiGHS
    runs again from its last optimal basis. Its name, `c` first, `A_eq` by keyword and `nit` are
    what the benchmark's `milp.highs` layer wraps and reads."""
    m, n = A_eq.shape
    if highs is not None:
        loaded = highs.changeColsCost(n, np.arange(n, dtype=np.int32), c) != HighsStatus.kError
    else:
        highs = _Highs()
        for option, value in HIGHS_OPTIONS:  # a rejected option returns kError, and raises nothing
            if highs.setOptionValue(option, value) != HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {option} = {value!r}")
        # columns, rows, nonzeros, format, sense, offset, costs, column and row bounds, CSC
        # arrays (canonical, from MilpModel) and integrality (continuous), read as buffers
        loaded = highs.passModel(n, m, A_eq.nnz, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
                                 c, lower, upper, row_lower, b_eq, A_eq.indptr, A_eq.indices,
                                 A_eq.data, np.zeros(n, np.int32)) != HighsStatus.kError
        if loaded and basic is not None:
            named = np.flatnonzero(basic >= 0)
            cols, rows = [HighsBasisStatus.kLower] * n, [HighsBasisStatus.kBasic] * m
            for i, j in zip(named.tolist(), basic[named].tolist()):
                cols[j], rows[i] = HighsBasisStatus.kBasic, HighsBasisStatus.kLower
            start = HighsBasis()
            start.col_status, start.row_status = cols, rows
            start.valid, start.alien = True, False  # exactly m basic: HiGHS takes it as it is
            if highs.setBasis(start) == HighsStatus.kError:
                raise RuntimeError("HiGHS rejected the start basis")
    if loaded:  # else HiGHS read a value as infinite: a model error
        highs.run()
    status = highs.getModelStatus() if loaded else HighsModelStatus.kModelError
    optimal, info = status == HighsModelStatus.kOptimal, highs.getInfo()
    return OptimizeResult(status=status, nit=max(info.simplex_iteration_count, 0),
                          x=np.array(highs.getSolution().col_value) if optimal else None,
                          fun=info.objective_function_value if optimal else None, highs=highs)


def lp_solve(model: MilpModel, hot: HotStart | None = None) -> MilpSolution:
    """Solve the LP relaxation (integrality ignored) with one HiGHS call, or raise
    PlanningError where HiGHS reports the model infeasible or in error. Given `hot`, the
    HiGHS model of its last LP is re-solved where `hot.holds(model)`, and is then replaced
    by this LP's."""
    reuse = hot is not None and hot.holds(model)
    res = linprog(-COST_SCALE * model.objective, A_eq=model.A_eq, b_eq=model.b_eq,
                  row_lower=model.row_lower, lower=model.lower, upper=model.upper,
                  basic=model.basic, highs=hot.highs if reuse else None)
    if res.status in (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError):
        raise PlanningError("no plan: solver status infeasible")
    if res.status != HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP backend failed: HiGHS model status {res.status.name}")
    if hot is not None:
        hot.model, hot.highs = model, res.highs
    return MilpSolution(values=res.x, objective=model.constant - res.fun / COST_SCALE,
                        nodes_explored=1, iterations=res.nit)


def milp_solve(model: MilpModel, hot: HotStart | None = None) -> MilpSolution:
    """Integer optimum of a model whose LP optimum is integral.

    Raises RuntimeError if any column of the LP optimum is more than INT_TOL
    from an integer: the model is then not totally unimodular with integral
    bounds and right-hand sides. The optimum is never rounded silently.
    `hot` is passed on to lp_solve.
    """
    sol = lp_solve(model, hot)
    values = np.rint(sol.values)
    off = np.abs(sol.values - values)
    if np.any(off > INT_TOL):
        j = int(np.argmax(off))
        raise RuntimeError(
            f"LP optimum is not integral: column {j} = {sol.values[j]:.9g}; "
            "the model is not totally unimodular with integral data"
        )
    return replace(sol, values=values, objective=float(model.objective @ values) + model.constant)


def _interleave(*columns: list) -> tuple:
    """(a0, b0, a1, b1, ...) from equal-length columns a, b, ..."""
    flat = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return tuple(flat)


def _sums(A: csr_matrix, names: list[str], heads: list[str], tails: list[str], empty: str) -> str:
    """heads[k], row k of A as a sum (' 2 x - 1 y', `empty` for a row with
    no entry) and tails[k] for every row k, in one format call. A stores no
    zero; heads, tails and `empty` must hold no bare '%'."""
    counts = np.diff(A.indptr)
    first = np.zeros(A.nnz, dtype=int)
    first[A.indptr[:-1][counts > 0]] = 2  # a row's first term has no '+ '
    signs = np.array(["+ ", "- ", "", "- "])[first + (A.data < 0)].tolist()
    template = "".join(h + (" %s%.12g %s" * n if n else empty) + t
                       for h, n, t in zip(heads, counts.tolist(), tails))
    return template % _interleave(signs, np.abs(A.data).tolist(),
                                  [names[j] for j in A.indices.tolist()])


def export_lp(model: MilpModel) -> str:
    """Render the model in CPLEX LP format (write-only, LF line endings).

    A nonzero objective constant is written as a comment: the LP format has
    no place for it, so the exported optimum differs from milp_solve's by it.
    An unnamed model's columns are written v1..vn. Each section is rendered
    in a few array passes and one format call.
    """
    names = model.names or [f"v{j}" for j in range(1, model.n_vars + 1)]
    empty = " 0 " + (names[0] if names else "x").replace("%", "%%")  # a row needs a term
    text = "\\ Problem: shiftopt\n"
    if model.constant:
        text += f"\\ Objective constant: {model.constant:.12g}\n"
    text += "Maximize" + _sums(csr_matrix(model.objective), names, ["\n obj:"], [""],
                               empty if names else "")
    text += "\nSubject To" + _sums(model.A_eq.tocsr(), names,
                                    [f"\n c{k}:" for k in range(len(model.b_eq))],
                                    [f" {'=' if lo == b else '<='} {b:.12g}" for lo, b in
                                     zip(model.row_lower.tolist(), model.b_eq.tolist())], empty)
    text += "\nBounds" + "\n %.12g <= %s <= %.12g" * model.n_vars % _interleave(
        model.lower.tolist(), names, model.upper.tolist())
    generals = [names[j] for j in np.flatnonzero(model.is_integer)]
    if generals:
        text += "\nGenerals" + "".join(f"\n {g}" for g in generals)
    return text + "\nEnd\n"
