"""Output checks and the independent reference for every benchmark operation.

The checks recompute what they can with the benchmark's own code: window
sums, demand curves and the exact reward. The reference objective of a
scenario comes from solving its `export_lp` text with SciPy's HiGHS MILP
(`scipy.optimize.milp`), never from the package's own branch-and-bound.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

REF_RTOL = 1e-9  # objective vs. reference, relative
CHORD_RTOL = 1e-9  # chord objective vs. exact reward, relative
GAP_SLACK = 1e-12  # relative gap must lie in [0, 1] up to this
# compare.csv: ours <= baselines up to the solver's default relative MIP gap
DOMINANCE_SLACK = 1e-6


def envelope(T: int) -> np.ndarray:
    """The envelope_sinusoid demand curve for d_max = 1."""
    t = np.arange(1, T + 1)
    return (1.0 - np.cos(np.pi * t / 12.0)) * np.sin(np.pi * t / T) / 2.0


def demand(sc: dict) -> np.ndarray:
    model = sc.get("demand_model", "envelope_sinusoid")
    if model == "explicit":
        return np.asarray(sc["demand"], dtype=float)
    if model == "offset_sinusoid":
        t = np.arange(1, sc["T"] + 1)
        return sc["d_max"] * (1.0 + np.sin(np.pi * t / 12.0))
    return sc["d_max"] * envelope(sc["T"])


def window_sums(x: np.ndarray, width: int, circular: bool) -> np.ndarray:
    """out[t] = sum of x over the `width` steps ending at t."""
    T = len(x)
    tau = np.arange(T)[:, None] - np.arange(width)[None, :]
    if circular:
        return x[tau % T].sum(axis=1)
    return np.where(tau >= 0, x[np.maximum(tau, 0)], 0).sum(axis=1)


def exact_reward(sc: dict, y: np.ndarray) -> float:
    total = 0.0
    for di, yi in zip(demand(sc).tolist(), y.tolist()):
        if di > 0:
            total += di * (1.0 - math.exp(-sc["a"] * yi / di))
    return total


def feasibility(sc: dict, x: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Violations of sum x = s*N, y <= c_veh, z <= N, and the supply y."""
    circular = sc.get("boundary") == "circular"
    y = window_sums(x, sc["delta"], circular)
    z = window_sums(x, sc["delta"] + sc["beta"], circular)
    bad = []
    if np.any(x < 0):
        bad.append("negative shift starts")
    if int(x.sum()) != sc["s"] * sc["N"]:
        bad.append(f"sum x = {int(x.sum())} != s*N = {sc['s'] * sc['N']}")
    if y.max(initial=0) > sc["c_veh"]:
        bad.append(f"max y = {y.max()} > c_veh = {sc['c_veh']}")
    if z.max(initial=0) > sc["N"]:
        bad.append(f"max z = {z.max()} > N = {sc['N']}")
    return bad, y


def _parse_terms(tokens: list[str]) -> list[tuple[float, str]]:
    terms, sign, i = [], 1.0, 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
            i += 1
            continue
        terms.append((sign * float(tok), tokens[i + 1]))
        sign = 1.0
        i += 2
    return terms


def solve_lp_text(text: str) -> dict[str, float]:
    """Maximise a CPLEX LP file as `export_lp` writes it; returns name -> value."""
    section = None
    obj: list[tuple[float, str]] = []
    rows: list[tuple[list[tuple[float, str]], str, float]] = []
    bounds: dict[str, tuple[float, float]] = {}
    integers: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("maximize", "subject to", "bounds", "generals", "end"):
            section = low
            continue
        if section == "maximize":
            obj = _parse_terms(line.split(":", 1)[1].split())
        elif section == "subject to":
            tokens = line.split(":", 1)[1].split()
            rows.append((_parse_terms(tokens[:-2]), tokens[-2], float(tokens[-1])))
        elif section == "bounds":
            parts = line.split()
            if parts[-1] == "free":
                bounds[parts[0]] = (-math.inf, math.inf)
            elif len(parts) == 5:
                bounds[parts[2]] = (float(parts[0]), float(parts[4]))
            elif parts[1] == ">=":
                bounds[parts[0]] = (float(parts[2]), math.inf)
            else:
                bounds[parts[0]] = (0.0, float(parts[2]))
        elif section == "generals":
            integers.add(line)
    names = list(bounds)
    index = {n: j for j, n in enumerate(names)}
    c = np.zeros(len(names))
    for coef, name in obj:
        c[index[name]] -= coef  # milp minimises
    data, ri, ci = [], [], []
    lo = np.full(len(rows), -math.inf)
    hi = np.full(len(rows), math.inf)
    for i, (terms, sense, rhs) in enumerate(rows):
        for coef, name in terms:
            ri.append(i)
            ci.append(index[name])
            data.append(coef)
        if sense in ("<=", "="):
            hi[i] = rhs
        if sense in (">=", "="):
            lo[i] = rhs
    A = csr_matrix((data, (ri, ci)), shape=(len(rows), len(names)))
    res = milp(
        c,
        constraints=[LinearConstraint(A, lo, hi)],
        bounds=Bounds([bounds[n][0] for n in names], [bounds[n][1] for n in names]),
        integrality=np.array([n in integers for n in names], dtype=int),
        # presolve leaves plans up to ~1e-9 below the optimum; without it the
        # reference matches the exact optimum to ~1e-11
        options={"mip_rel_gap": 1e-12, "presolve": False},
    )
    if res.status != 0:
        raise RuntimeError(f"reference MILP failed: {res.message}")
    return dict(zip(names, res.x))


def reference_reward(sc: dict, lp_text: str) -> float:
    """Exact reward of the reference MILP's plan, which must be feasible."""
    values = solve_lp_text(lp_text)
    x = np.rint([values[f"x_{t}"] for t in range(1, sc["T"] + 1)]).astype(np.int64)
    bad, y = feasibility(sc, x)
    if bad:
        raise RuntimeError("reference plan infeasible: " + "; ".join(bad))
    return exact_reward(sc, y)


def check_plan_op(sc: dict, out: dict, reference: float) -> list[str]:
    """Every check on one plan -> relative_gap -> roster operation."""
    result = out["result"]
    x = np.asarray(result.plan.x)
    bad, y = feasibility(sc, x)
    if not np.array_equal(np.asarray(result.supply.y), y):
        bad.append("supply y differs from the window sums of x")
    own = exact_reward(sc, y)
    if not math.isclose(result.true_reward, own, rel_tol=REF_RTOL, abs_tol=1e-12):
        bad.append(f"true_reward {result.true_reward!r} != exact reward {own!r}")
    if not math.isclose(result.mip_objective, result.true_reward,
                        rel_tol=CHORD_RTOL, abs_tol=1e-12):
        bad.append(f"mip_objective {result.mip_objective!r} != true_reward")
    if not math.isclose(result.true_reward, reference, rel_tol=REF_RTOL, abs_tol=1e-12):
        bad.append(f"objective {result.true_reward!r} != reference {reference!r}")
    gap = out["gap"].delta
    if not -GAP_SLACK <= gap <= 1.0 + GAP_SLACK:
        bad.append(f"relative gap {gap!r} outside [0, 1]")
    if "roster" in out and not out["roster"].ok:
        bad.append("roster: " + "; ".join(out["roster"].violations))
    return bad


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _gap_ok(v: str) -> bool:
    return -GAP_SLACK <= float(v) <= 1.0 + GAP_SLACK


def check_cli_op(op: dict, out: dict) -> list[str]:
    """Checks on one CLI call: exit code, files, row counts, dominance."""
    if out["exit"] != 0:
        return [f"{op['command']} exited with {out['exit']}"]
    config, out_dir = op["config"], out["out_dir"]
    T = config["scenario"]["T"]
    n_values = len(config.get("sweep_values", []))
    expected = {
        "compare": {"compare.csv": n_values, "robustness.csv": 6 * n_values},
        "sweep": {"sweep.csv": n_values, "sweep_supply.csv": n_values * T},
        "export-lp": {"model.lp": None},
    }[op["command"]]
    bad = []
    files = sorted(os.listdir(out_dir))
    if files != sorted(expected):
        return [f"{op['command']} wrote {files}, expected {sorted(expected)}"]
    for name, n_rows in expected.items():
        path = os.path.join(out_dir, name)
        if name == "model.lp":
            bad += _check_lp_file(path, T)
            continue
        header, rows = _read_csv(path)
        if len(rows) != n_rows:
            bad.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        if name == "compare.csv":
            for row in rows:
                ours, service, economic = (float(v) for v in row[1:4])
                if ours > service + DOMINANCE_SLACK or ours > economic + DOMINANCE_SLACK:
                    bad.append(f"compare.csv N={row[0]}: gap_ours above a baseline")
                if not all(_gap_ok(v) for v in row[1:4]):
                    bad.append(f"compare.csv N={row[0]}: gap outside [0, 1]")
        elif name in ("robustness.csv", "sweep.csv"):
            col = header.index("relative_gap")
            if not all(_gap_ok(row[col]) for row in rows):
                bad.append(f"{name}: gap outside [0, 1]")
    return bad


def _check_lp_file(path: str, T: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    bad = []
    for section in ("Maximize", "Subject To", "Bounds", "Generals"):
        if section not in lines:
            bad.append(f"model.lp: no {section} section")
    if lines[-1:] != ["End"]:
        bad.append("model.lp: does not end with End")
    if bad:
        return bad
    generals = lines[lines.index("Generals") + 1:-1]
    if generals != [f" x_{t}" for t in range(1, T + 1)]:
        bad.append("model.lp: Generals is not x_1..x_T")
    n_rows = lines.index("Bounds") - lines.index("Subject To") - 1
    if n_rows < 3 * T + 1:
        bad.append(f"model.lp: only {n_rows} rows")
    return bad
