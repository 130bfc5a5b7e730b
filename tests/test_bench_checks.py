"""The benchmark's output checks (`bench/checks.py`) accept what the package
writes today: plans against the reference MILP solved from `export_lp`, and
the `model.lp` of `export-lp` with Generals x_1..x_T and at least 3T+1 rows.
A change to the LP form or the exported file fails here rather than only in
a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

import shiftopt
import shiftopt.cli

_CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("bench_checks", _CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scenario(**kw):
    sc = {"T": 24, "N": 3, "s": 2, "delta": 4, "beta": 3, "d_max": 6.0, "a": 1.5,
          "c_veh": 3, "demand_model": "envelope_sinusoid", "boundary": "zero_padded"}
    sc.update(kw)
    return sc


_EXPLICIT = [0.5, 1.0, 2.0, 3.5, 4.0, 3.0, 2.5, 1.0, 0.0, 0.5, 2.0, 1.5]

SCENARIOS = {
    "zero-padded": _scenario(),
    "circular": _scenario(boundary="circular"),
    "offset-circular": _scenario(demand_model="offset_sinusoid", boundary="circular", c_veh=2),
    "explicit": _scenario(T=12, N=2, s=1, delta=3, beta=2, c_veh=2,
                          demand_model="explicit", demand=_EXPLICIT),
    "explicit-circular": _scenario(T=12, N=2, s=2, delta=2, beta=1, c_veh=2,
                                   demand_model="explicit", demand=_EXPLICIT,
                                   boundary="circular"),
    # y_max = 80 > 64: the plan comes from a coarse and a windowed round
    "windowed": _scenario(N=80, s=1, delta=6, beta=2, d_max=80.0, a=2.0, c_veh=80),
    # small-plans seed 37, op 115: chord slopes down to 2.3e-14, below milp.DUAL_TOL;
    # under HiGHS's cost perturbation its LP ended with model status kUnknown
    "near-flat-chords": _scenario(T=96, N=20, s=6, delta=6, beta=7, d_max=21.863488,
                                  a=1.671154, c_veh=20, demand_model="offset_sinusoid"),
}


def _plan_op(checks, sc):
    """What the benchmark's small-plans operation hands to `check_plan_op`."""
    scenario = shiftopt.Scenario.from_dict(sc)
    result = shiftopt.plan(scenario)
    out = {"result": result, "gap": shiftopt.relative_gap(result.plan, scenario)}
    if scenario.boundary is shiftopt.Boundary.ZERO_PADDED:
        roster = shiftopt.rebalance(shiftopt.greedy_assign(result.plan, scenario), scenario.s)
        out["roster"] = shiftopt.verify_roster(roster, result.plan, scenario)
    reference = checks.reference_reward(
        sc, shiftopt.export_lp(shiftopt.build_reward_mip(scenario)))
    return out, reference


@pytest.mark.parametrize("name", SCENARIOS)
def test_plan_op_passes_every_check(checks, name):
    sc = SCENARIOS[name]
    out, reference = _plan_op(checks, sc)
    assert checks.check_plan_op(sc, out, reference) == []
    # the reference comparison has teeth
    assert checks.check_plan_op(sc, out, reference * (1 + 1e-6) + 1e-6) != []


def test_export_lp_file_passes_the_cli_check(checks, tmp_path):
    config = {"kind": "plan", "scenario": _scenario(T=48, N=5, c_veh=5)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = shiftopt.cli.main(["export-lp", "--config", str(path), "--out", str(out_dir)])
    op = {"command": "export-lp", "config": config}
    out = {"exit": code, "out_dir": str(out_dir)}
    assert checks.check_cli_op(op, out) == []
    # a model.lp with a row short of 3T+1 fails the check
    lp = out_dir / "model.lp"
    lines = lp.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[lines.index("Subject To\n") + 1]
    lp.write_text("".join(lines), encoding="utf-8")
    assert checks.check_cli_op(op, out) == ["model.lp: only 144 rows"]
