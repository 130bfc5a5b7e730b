"""Integer linear models solved as one exact LP, and LP export.

A model is the planner's LP form: maximize over bounded columns subject to
equality rows only. The planner's models have a totally unimodular
constraint matrix and integral bounds and right-hand sides, so every basic
optimum of the LP relaxation is integral (Hochbaum & Shanthikumar 1990,
J. ACM 37(4)). `milp_solve` therefore solves the relaxation once with HiGHS
and checks the optimum for integrality instead of branching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.sparse import csc_matrix

try:  # SciPy's own HiGHS bindings, private; SciPy before 1.15 has none
    from scipy.optimize._highspy._core import (HighsModelStatus, HighsOptions, HighsStatus,
                                               MatrixFormat, ObjSense, _Highs)
except ImportError:
    from scipy.optimize import linprog
else:

    def linprog(c, *, A_eq, b_eq, bounds, method="highs", options):
        """`scipy.optimize.linprog(method="highs")` on lp_solve's LPs as one direct
        HiGHS call, without the wrapper's Python loop over every column: linprog's
        dual simplex, output off, `options`' presolve and tolerance, and its status
        codes. Named for the fallback because the benchmark's `milp.highs` layer
        wraps it by this name; ROADMAP item 2 moves that hook to lp_solve."""
        highs, opts = _Highs(), HighsOptions()
        opts.output_flag = opts.log_to_console = False
        opts.simplex_strategy = 1  # dual
        opts.presolve = "on" if options["presolve"] else "off"
        opts.dual_feasibility_tolerance = options["dual_feasibility_tolerance"]
        highs.passOptions(opts)
        # columns, rows, nonzeros, format, sense, offset, costs, column and row
        # bounds, CSC arrays (sized by MilpModel), integrality (continuous). This
        # form reads the buffers; a HighsLp's fields copy most arrays entry by entry
        (m, n), (lower, upper) = A_eq.shape, bounds.T.copy()
        loaded = highs.passModel(n, m, A_eq.nnz, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
                                 c, lower, upper, b_eq, b_eq, A_eq.indptr, A_eq.indices,
                                 A_eq.data, np.zeros(n, np.int32)) != HighsStatus.kError
        if loaded:  # else HiGHS read a value as infinite: a model error
            highs.run()
        status = highs.getModelStatus() if loaded else HighsModelStatus.kModelError
        optimal, info = status == HighsModelStatus.kOptimal, highs.getInfo()
        return OptimizeResult(
            status={HighsModelStatus.kOptimal: 0, HighsModelStatus.kInfeasible: 2,
                    HighsModelStatus.kModelError: 2}.get(status, 4),
            x=np.array(highs.getSolution().col_value) if optimal else None,
            fun=info.objective_function_value if optimal else None,
            nit=max(info.simplex_iteration_count, 0),
            message=highs.modelStatusToString(status),
        )


__all__ = [
    "MilpModel",
    "MilpSolution",
    "SolveStatus",
    "export_lp",
    "lp_solve",
    "milp_solve",
]

INT_TOL = 1e-6
# HiGHS's default dual feasibility tolerance (1e-7) lets it stop with chord
# gains up to that size unused, up to ~1e-8 of the objective where the
# reward saturates
DUAL_TOL = 1e-10


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class MilpModel:
    """max objective·v + constant  s.t.  A_eq v = b_eq, lower <= v <= upper,
    with v_j integral where is_integer[j]. A model without rows has a 0 x n
    A_eq. `names`, one per column, are only read by `export_lp`."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_integer: np.ndarray
    A_eq: csc_matrix
    b_eq: np.ndarray
    names: list[str] | None = None
    constant: float = 0.0

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
        A = csc_matrix(self.A_eq, dtype=float)  # columns, as HiGHS takes them
        A.sum_duplicates()  # canonical: one sorted entry per (row, column)
        b = np.asarray(self.b_eq, dtype=float)
        if A.shape[1] != n or b.shape != (A.shape[0],) or not np.isfinite(np.r_[A.data, b]).all():
            raise ValueError("A_eq and b_eq must be finite and match the columns")
        object.__setattr__(self, "A_eq", A)
        object.__setattr__(self, "b_eq", b)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class MilpSolution:
    status: SolveStatus
    values: np.ndarray
    objective: float
    nodes_explored: int  # LP solves


def lp_solve(model: MilpModel) -> MilpSolution:
    """Solve the LP relaxation (integrality ignored) with one HiGHS call."""
    # HiGHS presolve costs more than it saves on the planner's models, whose
    # rows are already tight: without it their LPs solve about 15-30% faster
    res = linprog(
        -model.objective,
        A_eq=model.A_eq,
        b_eq=model.b_eq,
        bounds=np.column_stack([model.lower, model.upper]),
        method="highs",
        options={"dual_feasibility_tolerance": DUAL_TOL, "presolve": False},
    )
    if res.status == 2:
        return MilpSolution(
            status=SolveStatus.INFEASIBLE,
            values=np.full(model.n_vars, np.nan),
            objective=-np.inf,
            nodes_explored=1,
        )
    if res.status != 0:
        raise RuntimeError(f"LP backend failed: {res.message}")
    return MilpSolution(
        status=SolveStatus.OPTIMAL,
        values=res.x,
        objective=model.constant - res.fun,
        nodes_explored=1,
    )


def milp_solve(model: MilpModel) -> MilpSolution:
    """Integer optimum of a model whose LP optimum is integral.

    Raises RuntimeError if any column of the LP optimum is more than INT_TOL
    from an integer: the model is then not totally unimodular with integral
    bounds and right-hand sides. The optimum is never rounded silently.
    """
    sol = lp_solve(model)
    if sol.status is not SolveStatus.OPTIMAL:
        return sol
    values = np.rint(sol.values)
    off = np.abs(sol.values - values)
    if np.any(off > INT_TOL):
        j = int(np.argmax(off))
        raise RuntimeError(
            f"LP optimum is not integral: column {j} = {sol.values[j]:.9g}; "
            "the model is not totally unimodular with integral data"
        )
    return replace(sol, values=values, objective=float(model.objective @ values) + model.constant)


def _num(x: float) -> str:
    return f"{x:.12g}"


def _linear_expr(cols, coeffs, names: list[str]) -> str:
    expr = " ".join(
        f"{'-' if c < 0 else '+'} {_num(abs(c))} {names[j]}"
        for j, c in zip(cols, coeffs)
        if c != 0
    )
    return expr[2:] if expr.startswith("+ ") else expr


def export_lp(model: MilpModel) -> str:
    """Render the model in CPLEX LP format (write-only, LF line endings).

    A nonzero objective constant is written as a comment: the LP format has
    no place for it, so the exported optimum differs from milp_solve's by it.
    An unnamed model's columns are written v1..vn.
    """
    names = model.names or [f"v{j}" for j in range(1, model.n_vars + 1)]
    lines = ["\\ Problem: shiftopt"]
    if model.constant:
        lines.append(f"\\ Objective constant: {_num(model.constant)}")
    lines.append("Maximize")
    obj = np.flatnonzero(model.objective)
    expr = _linear_expr(obj, model.objective[obj], names)
    if not expr and model.n_vars:
        expr = f"0 {names[0]}"
    lines.append(f" obj: {expr}".rstrip())
    lines.append("Subject To")
    A = model.A_eq.tocsr()
    empty_row = "0 " + (names[0] if names else "x")  # a row needs at least one term
    for k in range(A.shape[0]):
        row = slice(A.indptr[k], A.indptr[k + 1])
        expr = _linear_expr(A.indices[row], A.data[row], names) or empty_row
        lines.append(f" c{k}: {expr} = {_num(model.b_eq[k])}")
    lines.append("Bounds")
    for j in range(model.n_vars):
        lines.append(f" {_num(model.lower[j])} <= {names[j]} <= {_num(model.upper[j])}")
    generals = [names[j] for j in np.flatnonzero(model.is_integer)]
    if generals:
        lines.append("Generals")
        lines.extend(f" {g}" for g in generals)
    lines.append("End")
    return "\n".join(lines) + "\n"
