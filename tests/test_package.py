"""The package's public names are its library modules' `__all__`, republished."""

import importlib
import os
import subprocess
import sys

import pytest

import shiftopt

MODULES = ("benchmark", "domain", "milp", "piecewise", "planner", "roster")
API = {
    "AgnosticOptimum", "GapReport", "agnostic_optimum_closed_form", "economic_standard_supply",
    "relative_gap", "service_standard_supply", "water_fill",
    "Boundary", "DemandModel", "RewardParams", "Scenario", "ShiftPlan", "SupplyCurve",
    "demand_vector", "reward", "supply_curve", "total_reward",
    "MilpModel", "MilpSolution", "PlanningError", "export_lp", "lp_solve", "milp_solve",
    "Envelopes", "concavify_reward", "convexify_sq_dev",
    "PlanResult", "build_deviation_mip", "build_reward_mip", "plan", "plan_baseline",
    "plan_baselines",
    "Roster", "VerificationReport", "greedy_assign", "rebalance", "roster_to_csv",
    "verify_roster",
}


def test_public_names():
    # a fresh interpreter: a test that imports shiftopt.cli adds `cli` to the package
    src = os.path.dirname(os.path.dirname(shiftopt.__file__))
    names = subprocess.run(
        [sys.executable, "-c",
         "import shiftopt; print(*(n for n in dir(shiftopt) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert len(API) == 38
    assert sorted(names) == sorted(API | set(MODULES))


def test_each_name_listed_once():
    listed = [name for m in MODULES for name in importlib.import_module(f"shiftopt.{m}").__all__]
    assert sorted(listed) == sorted(API)


@pytest.mark.parametrize("module", MODULES)
def test_package_names_are_the_module_objects(module):
    mod = importlib.import_module(f"shiftopt.{module}")
    for name in mod.__all__:
        assert getattr(shiftopt, name) is getattr(mod, name), name


def test_unexported_names_stay_importable():
    from shiftopt.benchmark import gap  # noqa: F401
    from shiftopt.domain import reward_vector, window_ends  # noqa: F401
    from shiftopt.planner import PlanningError

    assert PlanningError is shiftopt.milp.PlanningError
