"""Integer linear models solved as one exact LP, and LP export.

Models are stated in maximization form with every column bounded. The
planner's models have a totally unimodular constraint matrix and integral
bounds and right-hand sides, so every basic optimum of the LP relaxation is
integral (Hochbaum & Shanthikumar 1990, J. ACM 37(4)). `milp_solve`
therefore solves the relaxation once with HiGHS and checks the optimum for
integrality instead of branching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

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


def _rows(A, b, n: int) -> tuple[csc_matrix, np.ndarray]:
    if A is None:
        return csc_matrix((0, n)), np.zeros(0)
    A = csc_matrix(A, dtype=float)  # columns, as HiGHS takes them
    A.sum_duplicates()  # canonical: one sorted entry per (row, column)
    b = np.asarray(b, dtype=float)
    if A.shape[1] != n or b.shape != (A.shape[0],):
        raise ValueError("row matrix and right-hand side do not match the columns")
    return A, b


@dataclass(frozen=True)
class MilpModel:
    """max objective·v + constant  s.t.  A_ub v <= b_ub, A_eq v = b_eq,
    lower <= v <= upper, with v_j integral where is_integer[j]."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_integer: np.ndarray
    names: list[str]
    A_ub: csc_matrix | None = None
    b_ub: np.ndarray | None = None
    A_eq: csc_matrix | None = None
    b_eq: np.ndarray | None = None
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
        if self.is_integer.shape != (n,) or len(self.names) != n:
            raise ValueError("is_integer and names must have one entry per column")
        for kind in ("ub", "eq"):
            A, b = _rows(getattr(self, f"A_{kind}"), getattr(self, f"b_{kind}"), n)
            object.__setattr__(self, f"A_{kind}", A)
            object.__setattr__(self, f"b_{kind}", b)

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
    has_ub = model.A_ub.shape[0] > 0
    # HiGHS presolve costs more than it saves on the planner's models, whose
    # rows are already tight: without it their LPs solve about 15-30% faster
    res = linprog(
        -model.objective,
        A_ub=model.A_ub if has_ub else None,
        b_ub=model.b_ub if has_ub else None,
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
            f"LP optimum is not integral: {model.names[j]} = {sol.values[j]:.9g}; "
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


def export_lp(model: MilpModel, name: str = "shiftopt") -> str:
    """Render the model in CPLEX LP format (write-only, LF line endings).

    A nonzero objective constant is written as a comment: the LP format has
    no place for it, so the exported optimum differs from milp_solve's by it.
    """
    names = model.names
    lines = [f"\\ Problem: {name}"]
    if model.constant:
        lines.append(f"\\ Objective constant: {_num(model.constant)}")
    lines.append("Maximize")
    obj = np.flatnonzero(model.objective)
    expr = _linear_expr(obj, model.objective[obj], names)
    if not expr and model.n_vars:
        expr = f"0 {names[0]}"
    lines.append(f" obj: {expr}".rstrip())
    lines.append("Subject To")
    i = 0
    for A, b, sense in ((model.A_ub, model.b_ub, "<="), (model.A_eq, model.b_eq, "=")):
        A = A.tocsr()
        for k in range(A.shape[0]):
            row = slice(A.indptr[k], A.indptr[k + 1])
            expr = _linear_expr(A.indices[row], A.data[row], names)
            if not expr:
                expr = "0 " + (names[0] if names else "x")
            lines.append(f" c{i}: {expr} {sense} {_num(b[k])}")
            i += 1
    lines.append("Bounds")
    for j in range(model.n_vars):
        lines.append(f" {_num(model.lower[j])} <= {names[j]} <= {_num(model.upper[j])}")
    generals = [names[j] for j in np.flatnonzero(model.is_integer)]
    if generals:
        lines.append("Generals")
        lines.extend(f" {g}" for g in generals)
    lines.append("End")
    return "\n".join(lines) + "\n"
