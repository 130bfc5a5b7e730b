"""Independent oracles used by the tests: window sums by convolution,
brute-force plan enumeration, random feasible-plan sampling, a minimal
CPLEX-LP-format reader, the quadratic scan that defines greedy rostering,
chord envelopes built one step at a time, the segment model in window form
built block by block, demand and reward computed one step at a time, and
the LP file rendered one term at a time."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
from scipy import sparse

from shiftopt.domain import (
    Boundary,
    DemandModel,
    RewardParams,
    Scenario,
    ShiftPlan,
    reward,
)
from shiftopt.milp import MilpModel
from shiftopt.piecewise import Envelopes
from shiftopt.roster import Roster


def window_sum(x: np.ndarray, width: int, boundary: Boundary) -> np.ndarray:
    """Backward-looking window sum: out[i] = sum of x[i-width+1 .. i]."""
    T = len(x)
    if boundary is Boundary.CIRCULAR:
        idx = (np.arange(T)[:, None] - np.arange(width)[None, :]) % T
        return x[idx].sum(axis=1)
    padded = np.concatenate([np.zeros(width - 1, dtype=x.dtype), x])
    return np.convolve(padded, np.ones(width, dtype=x.dtype), mode="valid")


def supply_by_window_sums(plan: ShiftPlan, scenario: Scenario):
    """(y, z) of a plan from window_sum, independent of the package's window."""
    return (window_sum(plan.x, scenario.delta, scenario.boundary),
            window_sum(plan.x, scenario.delta + scenario.beta, scenario.boundary))


def enumerate_feasible_plans(scenario: Scenario):
    """All integer plans with sum x = s*N, y <= c_veh, z <= N."""
    total = scenario.total_shifts
    hi = min(scenario.N, total)
    for combo in itertools.product(range(hi + 1), repeat=scenario.T):
        if sum(combo) != total:
            continue
        plan = ShiftPlan(x=np.array(combo))
        y, z = supply_by_window_sums(plan, scenario)
        if y.max(initial=0) <= scenario.c_veh and z.max(initial=0) <= scenario.N:
            yield plan


def best_plan_by_enumeration(scenario: Scenario):
    """(best_reward, best_plan) over the feasible set, or (None, None)."""
    best, best_plan = None, None
    for plan in enumerate_feasible_plans(scenario):
        r = total_reward_by_loop(plan, scenario)
        if best is None or r > best + 1e-12:
            best, best_plan = r, plan
    return best, best_plan


def best_reward_by_array_enumeration(scenario: Scenario) -> float:
    """The best total_reward_by_loop over the feasible plans of a zero-padded
    scenario, every plan one row of one array: for horizons too long for
    best_plan_by_enumeration, which visits (min(N, s*N) + 1)**T candidates.
    A plan is the multiset of its s*N (at most 127) shift starts."""
    assert scenario.boundary is Boundary.ZERO_PADDED and scenario.total_shifts < 128
    T, total = scenario.T, scenario.total_shifts
    starts = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(T), total)), dtype=np.intp).reshape(-1, total)
    x = np.zeros((len(starts), T), dtype=np.int8)
    np.add.at(x, (np.repeat(np.arange(len(starts)), total), starts.ravel()), 1)
    cum = np.pad(np.cumsum(x, axis=1, dtype=np.int8), ((0, 0), (1, 0)))
    t = np.arange(1, T + 1)
    y = cum[:, t] - cum[:, np.maximum(t - scenario.delta, 0)]
    z = cum[:, t] - cum[:, np.maximum(t - scenario.delta - scenario.beta, 0)]
    y = y[(x.max(axis=1) <= scenario.N) & (y.max(axis=1) <= scenario.c_veh)
          & (z.max(axis=1) <= scenario.N)]
    total_reward = np.zeros(len(y))
    for step, d in enumerate(demand_by_loop(scenario).tolist()):  # in step order, as the loop
        table = [reward(float(k), RewardParams(d=d, a=scenario.a)) for k in range(y.max() + 1)]
        total_reward += np.array(table)[y[:, step]]
    return float(total_reward.max())


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
        y, z = supply_by_window_sums(plan, scenario)
        if y.max(initial=0) <= scenario.c_veh and z.max(initial=0) <= scenario.N:
            return plan
    return None


def greedy_assign_by_scan(plan: ShiftPlan, scenario: Scenario) -> Roster:
    """Greedy rostering by its definition: each shift start scans all drivers
    and takes the available one with the fewest shifts, then the lowest index."""
    length = scenario.delta + scenario.beta
    avail = [0] * scenario.N
    counts = [0] * scenario.N
    driver: list[int] = []
    start: list[int] = []
    for t in range(1, scenario.T + 1):
        for _ in range(int(plan.x[t - 1])):
            candidates = [i for i in range(scenario.N) if avail[i] <= t]
            if not candidates:
                raise ValueError(f"no driver available at step {t}: plan violates z_t <= N")
            i = min(candidates, key=lambda i: (counts[i], i))
            driver.append(i)
            start.append(t)
            avail[i] = t + length
            counts[i] += 1
    return Roster(driver=np.array(driver, dtype=np.int64), start=np.array(start, dtype=np.int64),
                  n_drivers=scenario.N, length=length)


def step_chords(breakpoints, values: np.ndarray, sign: int):
    """One step's chords through (breakpoints[k], values[k]) as
    (slopes, intercepts, ends, start_value). A chord joins the current piece
    while its slope is within 1e-12 of the piece's first chord, and the piece
    is then the chord through its first and last breakpoint; merging runs
    only when two consecutive slopes are not ordered (decreasing for sign 1,
    increasing for sign -1) and that far apart."""
    b = np.asarray(breakpoints, dtype=np.int64)
    slopes = (values[1:] - values[:-1]) / (b[1:] - b[:-1])
    first, last = list(range(len(b) - 1)), list(range(1, len(b)))
    if np.count_nonzero((slopes[1:] - slopes[:-1]) * -sign < 1e-12):
        listed = slopes.tolist()
        first = [0]
        for i, slope in enumerate(listed):
            if abs(slope - listed[first[-1]]) >= 1e-12:
                first.append(i)
        last = first[1:] + [len(b) - 1]
        slopes = (values[last] - values[first]) / (b[last] - b[first])
    intercepts = values[first] - slopes * b[first]
    return slopes, intercepts, b[last], slopes[0] * b[0] + intercepts[0]


def segment_matrix_by_blocks(scenario: Scenario, env: Envelopes) -> sparse.csc_matrix:
    """The segment model's equality rows, stacked from blocks: the window
    matrices of delta and delta + beta (column tau the window sums of a
    single start at tau), the all-ones row, identities and the segment
    incidence, over columns x, y, z, u."""
    T, n_seg = scenario.T, len(env.step)

    def window(width):
        starts = np.eye(T, dtype=np.int64)
        return np.column_stack([window_sum(e, width, scenario.boundary) for e in starts])

    eye = sparse.identity(T, format="csr")
    segments = sparse.csr_matrix((np.ones(n_seg), (env.step, np.arange(n_seg))), shape=(T, n_seg))
    return sparse.bmat(
        [
            [window(scenario.delta), -eye, None, None],
            [window(scenario.delta + scenario.beta), None, -eye, None],
            [np.ones((1, T)), None, None, None],
            [None, eye, None, -segments],
        ],
        format="csr",
    ).tocsc()


def window_form_model(scenario: Scenario, env: Envelopes) -> MilpModel:
    """The segment model in window form, over columns x, y, z, u: the rows of
    `segment_matrix_by_blocks`, y_t bounded by its envelope's window and
    min(c_veh, N), and every segment by its width."""
    T, n_seg = scenario.T, len(env.step)
    last = np.searchsorted(env.step, np.arange(T), side="right") - 1
    cap = min(scenario.c_veh, scenario.N)
    return MilpModel(
        objective=np.concatenate([np.zeros(3 * T), env.sign * env.slopes]),
        lower=np.concatenate([np.zeros(T), env.start, np.zeros(T + n_seg)]),
        upper=np.concatenate([np.full(T, scenario.N), np.minimum(env.ends[last], cap),
                              np.full(T, scenario.N), env.widths()]),
        is_integer=np.arange(3 * T + n_seg) < T,
        A_eq=segment_matrix_by_blocks(scenario, env),
        b_eq=np.concatenate([np.zeros(2 * T), [scenario.total_shifts], env.start]),
        constant=env.sign * float(env.start_value.sum()),
    )


def demand_by_loop(scenario: Scenario) -> np.ndarray:
    """Demand at every step, one step at a time with the math module."""
    out = []
    for t in range(1, scenario.T + 1):
        if scenario.demand_model is DemandModel.ENVELOPE_SINUSOID:
            daily = 1.0 - math.cos(math.pi * t / 12.0)
            envelope = max(0.0, math.sin(math.pi * t / scenario.T))
            out.append(scenario.d_max / 2.0 * daily * envelope)
        elif scenario.demand_model is DemandModel.OFFSET_SINUSOID:
            out.append(scenario.d_max * (1.0 + math.sin(math.pi * t / 12.0)))
        else:
            out.append(scenario.demand[t - 1])
    return np.array(out)


def reward_of_supply_by_loop(y, d, a: float) -> float:
    """Sum over steps of reward(y_t) at demand d_t, one step at a time."""
    return sum(reward(float(yi), RewardParams(d=float(di), a=a)) for yi, di in zip(y, d))


def total_reward_by_loop(plan: ShiftPlan, scenario: Scenario) -> float:
    """total_reward of a plan, one step at a time."""
    y, _ = supply_by_window_sums(plan, scenario)
    return reward_of_supply_by_loop(y, demand_by_loop(scenario), scenario.a)


def reward_chords(d: float, a: float, breakpoints):
    """step_chords of the reward d * (1 - exp(-a*y/d)), 0 when d = 0."""
    y = np.asarray(breakpoints, dtype=float)
    values = np.zeros_like(y) if d == 0 else d * -np.expm1(-a * y / d)
    return step_chords(breakpoints, values, 1)


def sq_dev_chords(target: float, breakpoints):
    """step_chords of the squared deviation (y - target)^2."""
    return step_chords(breakpoints, (np.asarray(breakpoints, dtype=float) - target) ** 2, -1)


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


def _num(x: float) -> str:
    return f"{x:.12g}"


def _linear_expr(cols, coeffs, names: list[str]) -> str:
    expr = " ".join(
        f"{'-' if c < 0 else '+'} {_num(abs(c))} {names[j]}"
        for j, c in zip(cols, coeffs)
        if c != 0
    )
    return expr[2:] if expr.startswith("+ ") else expr


def export_lp_reference(model: MilpModel) -> str:
    """The CPLEX LP file of `milp.export_lp`, rendered one term at a time."""
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
        sense = "=" if model.row_lower[k] == model.b_eq[k] else "<="
        lines.append(f" c{k}: {expr} {sense} {_num(model.b_eq[k])}")
    lines.append("Bounds")
    for j in range(model.n_vars):
        lines.append(f" {_num(model.lower[j])} <= {names[j]} <= {_num(model.upper[j])}")
    generals = [names[j] for j in np.flatnonzero(model.is_integer)]
    if generals:
        lines.append("Generals")
        lines.extend(f" {g}" for g in generals)
    lines.append("End")
    return "\n".join(lines) + "\n"
