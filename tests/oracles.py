"""Independent oracles used by the tests: brute-force plan enumeration,
random feasible-plan sampling, and a minimal CPLEX-LP-format reader."""

from __future__ import annotations

import itertools
import re

import numpy as np

from shiftopt.domain import Scenario, ShiftPlan, supply_curve, total_reward


def enumerate_feasible_plans(scenario: Scenario):
    """All integer plans with sum x = s*N, y <= c_veh, z <= N."""
    total = scenario.total_shifts
    hi = min(scenario.N, total)
    for combo in itertools.product(range(hi + 1), repeat=scenario.T):
        if sum(combo) != total:
            continue
        plan = ShiftPlan(x=np.array(combo))
        curve = supply_curve(plan, scenario)
        if curve.y.max(initial=0) > scenario.c_veh:
            continue
        if curve.z.max(initial=0) > scenario.N:
            continue
        yield plan


def best_plan_by_enumeration(scenario: Scenario):
    """(best_reward, best_plan) over the feasible set, or (None, None)."""
    best, best_plan = None, None
    for plan in enumerate_feasible_plans(scenario):
        r = total_reward(plan, scenario)
        if best is None or r > best + 1e-12:
            best, best_plan = r, plan
    return best, best_plan


def sample_feasible_plan(scenario: Scenario, rng: np.random.Generator, tries: int = 500):
    """Rejection-sample a plan satisfying the constraints, or None."""
    total = scenario.total_shifts
    for _ in range(tries):
        x = np.zeros(scenario.T, dtype=np.int64)
        spots = rng.integers(0, scenario.T, size=total)
        for t in spots:
            x[t] += 1
        if x.max(initial=0) > scenario.N:
            continue
        plan = ShiftPlan(x=x)
        curve = supply_curve(plan, scenario)
        if curve.y.max(initial=0) <= scenario.c_veh and curve.z.max(initial=0) <= scenario.N:
            return plan
    return None


_TERM = re.compile(r"([+-]?)\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?\s*([A-Za-z_][\w]*)")


def parse_lp(text: str):
    """Parse the LP files this package writes: returns a dict with the
    objective, rows, bounds, and integer names, for cross-checking with an
    off-the-shelf solver."""
    section = None
    obj: dict[str, float] = {}
    rows: list[tuple[dict[str, float], str, float]] = []
    bounds: dict[str, tuple[float, float]] = {}
    integers: set[str] = set()

    def parse_terms(expr: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for sign, coef, name in _TERM.findall(expr):
            value = float(coef) if coef else 1.0
            if sign == "-":
                value = -value
            out[name] = out.get(name, 0.0) + value
        return out

    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("maximize", "subject to", "bounds", "generals", "end"):
            section = low
            continue
        if section == "maximize":
            obj.update(parse_terms(line.split(":", 1)[1]))
        elif section == "subject to":
            body = line.split(":", 1)[1]
            m = re.search(r"(<=|>=|=)\s*([-+0-9.eE]+)\s*$", body)
            rows.append((parse_terms(body[: m.start()]), m.group(1), float(m.group(2))))
        elif section == "bounds":
            if line.endswith("free"):
                bounds[line.split()[0]] = (-np.inf, np.inf)
            elif "<=" in line:
                parts = [p.strip() for p in line.split("<=")]
                if len(parts) == 3:
                    bounds[parts[1]] = (float(parts[0]), float(parts[2]))
                else:
                    name, ub = parts
                    lb = bounds.get(name, (0.0, np.inf))[0]
                    bounds[name] = (lb, float(ub))
            elif ">=" in line:
                name, lb = [p.strip() for p in line.split(">=")]
                ub = bounds.get(name, (0.0, np.inf))[1]
                bounds[name] = (float(lb), ub)
        elif section == "generals":
            integers.add(line.strip())
    return {"objective": obj, "rows": rows, "bounds": bounds, "integers": integers}


def solve_parsed_lp(parsed) -> dict[str, float]:
    """Maximize the parsed model with scipy's HiGHS MILP (external cross-check);
    returns the optimal value of every variable by name."""
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import lil_matrix

    names = sorted(parsed["bounds"])
    index = {n: j for j, n in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in parsed["objective"].items():
        c[index[name]] = -coef  # milp minimizes
    constraints = []
    if parsed["rows"]:
        A = lil_matrix((len(parsed["rows"]), n))
        lo = np.full(len(parsed["rows"]), -np.inf)
        hi = np.full(len(parsed["rows"]), np.inf)
        for i, (terms, sense, rhs) in enumerate(parsed["rows"]):
            for name, coef in terms.items():
                A[i, index[name]] = coef
            if sense in ("<=", "="):
                hi[i] = rhs
            if sense in (">=", "="):
                lo[i] = rhs
        constraints = [LinearConstraint(A.tocsr(), lo, hi)]
    lb = np.array([parsed["bounds"][name][0] for name in names])
    ub = np.array([parsed["bounds"][name][1] for name in names])
    integrality = np.array([1 if name in parsed["integers"] else 0 for name in names])
    from scipy.optimize import Bounds

    res = milp(c, constraints=constraints, bounds=Bounds(lb, ub), integrality=integrality)
    assert res.status == 0, res.message
    return dict(zip(names, res.x))
