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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy._core import (HighsModelStatus, HighsStatus, MatrixFormat, ObjSense,
                                           _Highs)
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


class PlanningError(Exception):
    """Raised when the model has no feasible point: no plan exists."""


@dataclass(frozen=True)
class MilpModel:
    """max objective·v + constant  s.t.  row_lower <= A_eq v <= b_eq, lower <= v <= upper, with
    v_j integral where is_integer[j]. row_lower is b_eq (the default: an equality row) or -inf (a
    `<=` row). A model without rows has a 0 x n A_eq. `names` are only read by `export_lp`."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_integer: np.ndarray
    A_eq: csc_matrix
    b_eq: np.ndarray
    names: list[str] | None = None
    constant: float = 0.0
    row_lower: np.ndarray | None = None

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
        lo = b if self.row_lower is None else np.asarray(self.row_lower, dtype=float)
        if lo.shape != b.shape or not np.all((lo == b) | (lo == -np.inf)):
            raise ValueError("row_lower must equal b_eq or be -inf in each row")
        object.__setattr__(self, "A_eq", A)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "row_lower", lo)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class MilpSolution:
    values: np.ndarray
    objective: float
    nodes_explored: int  # LP solves


def linprog(c, *, A_eq, b_eq, row_lower, lower, upper):
    """min c·v  s.t.  row_lower <= A_eq v <= b_eq, lower <= v <= upper by HiGHS's dual simplex
    with HIGHS_OPTIONS (RuntimeError naming an option HiGHS rejects): HiGHS's model `status`,
    optimum `x` and `fun` (None unless optimal) and iterations `nit`. Its name, `c` first,
    `A_eq` by keyword and `nit` are what the benchmark's `milp.highs` layer wraps and reads."""
    highs = _Highs()
    for option, value in HIGHS_OPTIONS:  # a rejected option returns kError, and raises nothing
        if highs.setOptionValue(option, value) != HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {option} = {value!r}")
    # columns, rows, nonzeros, format, sense, offset, costs, column and row bounds, CSC
    # arrays (canonical, from MilpModel) and integrality (continuous), read as buffers
    m, n = A_eq.shape
    loaded = highs.passModel(n, m, A_eq.nnz, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
                             c, lower, upper, row_lower, b_eq, A_eq.indptr, A_eq.indices,
                             A_eq.data, np.zeros(n, np.int32)) != HighsStatus.kError
    if loaded:  # else HiGHS read a value as infinite: a model error
        highs.run()
    status = highs.getModelStatus() if loaded else HighsModelStatus.kModelError
    optimal, info = status == HighsModelStatus.kOptimal, highs.getInfo()
    return OptimizeResult(status=status, nit=max(info.simplex_iteration_count, 0),
                          x=np.array(highs.getSolution().col_value) if optimal else None,
                          fun=info.objective_function_value if optimal else None)


def lp_solve(model: MilpModel) -> MilpSolution:
    """Solve the LP relaxation (integrality ignored) with one HiGHS call, or raise
    PlanningError where HiGHS reports the model infeasible or in error."""
    res = linprog(-model.objective, A_eq=model.A_eq, b_eq=model.b_eq,
                  row_lower=model.row_lower, lower=model.lower, upper=model.upper)
    if res.status in (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError):
        raise PlanningError("no plan: solver status infeasible")
    if res.status != HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP backend failed: HiGHS model status {res.status.name}")
    return MilpSolution(values=res.x, objective=model.constant - res.fun, nodes_explored=1)


def milp_solve(model: MilpModel) -> MilpSolution:
    """Integer optimum of a model whose LP optimum is integral.

    Raises RuntimeError if any column of the LP optimum is more than INT_TOL
    from an integer: the model is then not totally unimodular with integral
    bounds and right-hand sides. The optimum is never rounded silently.
    """
    sol = lp_solve(model)
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
    """heads[k], row k of A as a sum (' 2 x - 1 y': entries equal to 0
    skipped, `empty` for a row with none) and tails[k] for every row k, in
    one format call. Heads, tails and `empty` must hold no bare '%'."""
    A = A.copy()
    A.eliminate_zeros()  # explicit zeros and -0.0
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
