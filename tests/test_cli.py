import csv
import io
import json
import math
import os
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftopt import Boundary, DemandModel, planner
from shiftopt.cli import (
    EXIT_BAD_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFICATION,
    _KINDS,
    _each,
    main,
)


def base_scenario(**kw):
    sc = {
        "T": 12, "N": 2, "s": 1, "delta": 2, "beta": 1,
        "d_max": 4.0, "a": 2.0, "c_veh": 4,
        "demand_model": "envelope_sinusoid", "boundary": "zero_padded",
    }
    sc.update(kw)
    return sc


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Read back a CLI-written CSV; numeric cells are parsed as floats."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]

    def cell(v: str):
        try:
            return float(v)
        except ValueError:
            return v

    return header, [[cell(v) for v in row] for row in body]


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(tmp_path, command, config_obj, **flags):
    cfg = write_config(tmp_path, config_obj)
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return main(argv), out


class TestPlanCommand:
    def test_writes_all_files(self, tmp_path):
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": base_scenario()})
        assert code == EXIT_OK
        for name in ("plan.csv", "supply.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sum_x"] == 2
        assert summary["solve_status"] == "optimal"
        header, rows = read_csv(str(out / "supply.csv"))
        assert header == ["t", "demand", "y", "z", "y_star", "reward"]
        assert len(rows) == 12

    def test_zero_drivers_gap_is_one(self, tmp_path):
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": base_scenario(N=0)})
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sum_x"] == 0
        assert summary["relative_gap"] == 1.0

    def test_zero_demand_gap_is_one(self, tmp_path):
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": base_scenario(d_max=0.0)})
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["r_star"] == 0.0
        assert summary["relative_gap"] == 1.0

    @pytest.mark.parametrize("field", ["d_max", "a", "demand"])
    def test_non_finite_input_exit_2(self, tmp_path, field):
        sc = base_scenario()
        if field == "demand":
            sc.update(demand_model="explicit", demand=[1.0] * 11 + [float("nan")])
        else:
            sc[field] = float("inf")
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": sc})
        assert code == EXIT_BAD_CONFIG
        assert not out.exists()

    def test_removed_flags_rejected(self, tmp_path):
        for flag, value in (("seed", 1), ("gap", 0.1)):
            with pytest.raises(SystemExit) as err:
                run(tmp_path, "plan", {"kind": "plan", "scenario": base_scenario()},
                    **{flag: value})
            assert err.value.code == 2

    def test_malformed_json_exit_2_no_files(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["plan", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert not out.exists()

    def test_infeasible_exit_3(self, tmp_path, capsys):
        sc = base_scenario(T=3, N=1, s=2, delta=2, beta=2, c_veh=1)
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": sc})
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().err == "error: no plan: solver status infeasible\n"
        assert not (out / "summary.json").exists()

    def test_no_vehicles_exit_3(self, tmp_path, capsys):
        # no vehicle for N = 3 drivers: the supply rows cannot hold
        sc = base_scenario(T=24, N=3, s=2, delta=4, beta=2, d_max=3.0, a=2.0, c_veh=0)
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": sc})
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().err == "error: no plan: solver status infeasible\n"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("N, want", [(2, EXIT_INFEASIBLE), (0, EXIT_OK)])
    def test_circular_break_of_2_31_plans(self, tmp_path, capsys, N, want):
        # each extended window wraps the horizon ~1.8e8 times: one entry per start, not per lap
        sc = base_scenario(N=N, beta=2**31 - 1, boundary="circular")
        code, _ = run(tmp_path, "plan", {"kind": "plan", "scenario": sc})
        assert code == want
        assert capsys.readouterr().err.count("\n") == (1 if want else 0)

    def test_failed_write_exit_4_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "out" / "plan.csv").mkdir(parents=True)
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": base_scenario()})
        assert code == EXIT_IO
        assert [p.name for p in out.iterdir()] == ["plan.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_modes_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": base_scenario()})
        finally:
            os.umask(old)
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["plan.csv", "summary.json", "supply.csv"]
        assert {p.stat().st_mode & 0o777 for p in out.iterdir()} == {mode}

    def test_round_trip_csv(self, tmp_path):
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": base_scenario()})
        assert code == EXIT_OK
        header, rows = read_csv(str(out / "plan.csv"))
        total = sum(row[header.index("x")] for row in rows)
        assert total == 2.0


class TestSweepCommand:
    def test_driver_sweep(self, tmp_path):
        config = {
            "kind": "sweep_drivers",
            "scenario": base_scenario(),
            "sweep_values": [1, 2, 4],
            "d_max_per_driver": 2.0,
        }
        code, out = run(tmp_path, "sweep", config)
        assert code == EXIT_OK
        header, rows = read_csv(str(out / "sweep.csv"))
        assert header == ["sweep_value", "relative_gap", "true_reward", "r_star", "nodes"]
        assert [row[0] for row in rows] == [1.0, 2.0, 4.0]
        gaps = [row[1] for row in rows]
        assert gaps == sorted(gaps, reverse=True)
        header2, supply_rows = read_csv(str(out / "sweep_supply.csv"))
        assert header2 == ["sweep_value", "t", "y_norm", "y_star_norm"]
        assert len(supply_rows) == 3 * 12

    def test_zero_demand_gaps_are_one(self, tmp_path):
        config = {
            "kind": "sweep_drivers",
            "scenario": base_scenario(d_max=0.0),
            "sweep_values": [1, 2],
        }
        code, out = run(tmp_path, "sweep", config)
        assert code == EXIT_OK
        header, rows = read_csv(str(out / "sweep.csv"))
        assert [row[header.index("relative_gap")] for row in rows] == [1.0, 1.0]

    def test_shifts_sweep_requires_divisibility(self, tmp_path):
        config = {
            "kind": "sweep_shifts_per_driver",
            "scenario": base_scenario(N=4, s=4, T=24, c_veh=100),
            "sweep_values": [4, 2, 1],
        }
        code, out = run(tmp_path, "sweep", config)
        assert code == EXIT_OK
        config["sweep_values"] = [3]
        code, _ = run(tmp_path, "sweep", config)
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("scale, code", [(True, EXIT_OK), (False, EXIT_INFEASIBLE)])
    def test_scale_c_veh(self, tmp_path, capsys, scale, code):
        # 6 drivers of 6-step shifts fit in 12 steps only with c_veh raised to 6
        config = {"kind": "sweep_drivers", "scale_c_veh": scale, "sweep_values": [6],
                  "scenario": base_scenario(delta=6, beta=0, d_max=30.0, c_veh=2)}
        assert run(tmp_path, "sweep", config)[0] == code
        assert capsys.readouterr().err == (
            "error: no plan: solver status infeasible\n" if code else "")

    @pytest.mark.parametrize("kind", ["sweep_shifts_per_driver", "sweep_shift_length"])
    def test_d_max_per_driver_rejected_where_unused(self, tmp_path, capsys, kind):
        # it was read and ignored: 100.0 and 1.0 wrote the same sweep.csv, with exit 0
        config = {"kind": kind, "scenario": base_scenario(), "sweep_values": [1, 2],
                  "d_max_per_driver": 100.0}
        code, out = run(tmp_path, "sweep", config)
        assert code == EXIT_BAD_CONFIG and not out.exists()
        assert capsys.readouterr().err == f"error: {kind} configs take no key 'd_max_per_driver'\n"

    def test_kind_mismatch_rejected(self, tmp_path):
        code, _ = run(tmp_path, "sweep", {"kind": "plan", "scenario": base_scenario()})
        assert code == EXIT_BAD_CONFIG


class TestCompareCommand:
    def test_columns_and_dominance(self, tmp_path):
        config = {
            "kind": "compare_baselines",
            "scenario": base_scenario(T=24, s=2, delta=2, beta=2),
            "sweep_values": [2, 3],
            "d_max_per_driver": 1.5,
            "service_fraction": 0.8,
            "economic_cost": 1.0,
            "robustness_fractions": [0.5, 0.8],
            "robustness_costs": [1.0],
        }
        code, out = run(tmp_path, "compare", config)
        assert code == EXIT_OK
        header, rows = read_csv(str(out / "compare.csv"))
        assert header == ["N", "gap_ours", "gap_service", "gap_economic"]
        for row in rows:
            assert row[1] <= row[2] + 1e-6
            assert row[1] <= row[3] + 1e-6
        header2, robust = read_csv(str(out / "robustness.csv"))
        assert header2 == ["standard", "c", "N", "relative_gap"]
        assert {row[0] for row in robust} == {"service", "economic"}

    def test_zero_drivers_all_gaps_one(self, tmp_path):
        config = {
            "kind": "compare_baselines",
            "scenario": base_scenario(),
            "sweep_values": [0],
            "service_fraction": 0.8,
            "economic_cost": 1.0,
        }
        code, out = run(tmp_path, "compare", config)
        assert code == EXIT_OK
        _, rows = read_csv(str(out / "compare.csv"))
        assert rows[0][1:] == [1.0, 1.0, 1.0]
        _, robust = read_csv(str(out / "robustness.csv"))
        assert [row[2:] for row in robust] == [[0, 1.0]] * 6

    def test_explicit_demand_ignores_d_max(self, tmp_path):
        """Explicit demand with d_max 0 is planned, not skipped as all-zero demand."""
        sc = base_scenario(T=6, N=3, s=1, delta=2, beta=1, demand_model="explicit",
                           demand=[1.0, 4.0, 6.0, 5.0, 2.0, 1.0])
        outputs = []
        for d_max in (0.0, 1.0):
            (tmp_path / str(d_max)).mkdir()
            config = {"kind": "compare_baselines", "scenario": {**sc, "d_max": d_max},
                      "sweep_values": [3], "service_fraction": 0.8, "economic_cost": 1.0}
            code, out = run(tmp_path / str(d_max), "compare", config)
            assert code == EXIT_OK
            outputs.append([read_csv(str(out / f)) for f in ("compare.csv", "robustness.csv")])
        assert outputs[0] == outputs[1]
        (_, rows), (_, robust) = outputs[0]
        assert rows[0][1:] == pytest.approx([0.0434, 0.0873, 0.0434], abs=1e-4)
        assert len(robust) == 6

    def test_plan_beats_baselines_where_demand_dwarfs_supply(self, tmp_path):
        """At d_max 1e12 consecutive chord gains differ by about 4e-12, below HiGHS's dual
        tolerance unless the costs are scaled: the plan's gap read 3.9e-12, above both
        baselines' (1.7e-12 and 1.2e-12), where the enumerated best is 3.0e-13."""
        sc = base_scenario(T=24, N=3, s=2, delta=4, beta=2, d_max=1e12, a=2.0, c_veh=3)
        config = {"kind": "compare_baselines", "scenario": sc, "sweep_values": [3],
                  "service_fraction": 0.8, "economic_cost": 1.0}
        code, out = run(tmp_path, "compare", config)
        assert code == EXIT_OK
        _, rows = read_csv(str(out / "compare.csv"))
        assert rows[0][1] <= min(rows[0][2:])

    @pytest.mark.parametrize("d_max, fields, robust_rows", [
        (1e10, {"service_fraction": 1e-17}, 6),
        (1e12, {"service_fraction": 0.8, "robustness_fractions": [1e-9]}, 4),
    ], ids=["tiny-fraction", "tiny-robustness-fraction"])
    def test_large_demand_small_fraction_runs(self, tmp_path, capsys, d_max, fields, robust_rows):
        """Used to end in a traceback with exit 1: the service standard rechecked
        its own closed form, and 1 - c cancelled in float64."""
        sc = base_scenario(T=24, N=3, s=2, delta=4, beta=2, d_max=d_max, a=2.0, c_veh=3)
        config = {"kind": "compare_baselines", "scenario": sc, "sweep_values": [3],
                  "economic_cost": 1.0, **fields}
        code, out = run(tmp_path, "compare", config)
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert len(read_csv(str(out / "compare.csv"))[1]) == 1
        assert len(read_csv(str(out / "robustness.csv"))[1]) == robust_rows


class TestGapWithoutCancellation:
    """With demand far above the fleet, 1 - exp(-a*y/d) cancelled in float64: the exact
    reward could exceed the shift-agnostic bound, and a gap read below 0."""

    @pytest.mark.parametrize("d_max", [1e10, 1e12])
    def test_plan_and_compare_gaps_are_not_negative(self, tmp_path, d_max):
        sc = base_scenario(T=24, N=3, s=2, delta=4, beta=2, d_max=d_max, a=2.0, c_veh=3)
        for name in ("plan", "compare"):
            (tmp_path / name).mkdir()
        code, out = run(tmp_path / "plan", "plan", {"kind": "plan", "scenario": sc})
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["relative_gap"] >= 0
        code, out = run(tmp_path / "compare", "compare", {
            "kind": "compare_baselines", "scenario": sc, "sweep_values": [3],
            "service_fraction": 0.8, "economic_cost": 1.0})
        assert code == EXIT_OK
        (_, rows), (_, robust) = (read_csv(str(out / f)) for f in ("compare.csv", "robustness.csv"))
        assert min(rows[0][1:] + [row[-1] for row in robust]) >= 0


def _compare_config(**kw):
    config = {
        "kind": "compare_baselines",
        "scenario": base_scenario(),
        "sweep_values": [2],
        "service_fraction": 0.8,
        "economic_cost": 1.0,
    }
    config.update(kw)
    return config


def _roster_config(plan):
    return {"kind": "roster", "scenario": base_scenario(T=6), "plan": plan}


class TestConfigErrors:
    """Configs that used to end in a traceback with exit 1."""

    @pytest.mark.parametrize(
        "command, config",
        [
            # delta = 16 > T = 12
            ("sweep", {"kind": "sweep_shift_length", "scenario": base_scenario(N=16, c_veh=16),
                       "sweep_values": [16]}),
            ("sweep", {"kind": "sweep_drivers", "scenario": base_scenario(),
                       "sweep_values": ["a"]}),
            ("sweep", {"kind": "sweep_drivers", "scenario": base_scenario(), "sweep_values": 5}),
            # the work held fixed is zero, so supply cannot be normalised by it
            ("sweep", {"kind": "sweep_shift_length", "scenario": base_scenario(N=0),
                       "sweep_values": [2]}),
            ("compare", _compare_config(sweep_values=["x"])),
            ("compare", _compare_config(service_fraction=1.5)),
            ("compare", _compare_config(economic_cost="1")),
            ("compare", _compare_config(d_max_per_driver="a")),
            ("compare", _compare_config(economic_cost=10**400)),  # an int past float's range
            ("plan", {"kind": "plan", "scenario": base_scenario(T=math.inf)}),
            ("plan", {"kind": "plan", "scenario": base_scenario(N=2.9)}),
            ("plan", {"kind": "plan", "scenario": base_scenario(T="12")}),
            ("roster", _roster_config([1.5] + [0] * 5)),
            ("roster", _roster_config([-1] + [0] * 5)),
            ("roster", _roster_config("abc")),
            ("roster", _roster_config([[1]])),
            ("roster", _roster_config(None)),
            ("roster", _roster_config([10**30] + [0] * 5)),
            ("sweep", {"kind": "sweep_drivers", "scenario": base_scenario(delta=6, beta=0),
                       "sweep_values": [6], "scale_c_veh": "no"}),
            # s*N*delta * max(d), then sum(d), then d_max * (1 + sin) overflows
            ("compare", _compare_config(
                scenario=base_scenario(T=6, N=3, a=0.5, c_veh=3, demand_model="explicit",
                                       demand=[1e308, 1, 2, 3, 1, 1]),
                sweep_values=[3], economic_cost=0.1)),
            ("plan", {"kind": "plan", "scenario": base_scenario(
                T=6, N=3, a=0.5, c_veh=3, demand_model="explicit",
                demand=[1e308, 1e308, 2, 3, 1, 1])}),
            ("plan", {"kind": "plan", "scenario": base_scenario(
                T=6, N=3, a=0.5, c_veh=3, demand_model="offset_sinusoid", d_max=1e308)}),
            # a desired supply whose square overflows: a/c and d/a * ln(a/c)
            ("compare", _compare_config(scenario=base_scenario(d_max=3.0, c_veh=2),
                                        economic_cost=5e-324)),
            ("compare", _compare_config(scenario=base_scenario(d_max=3.0, a=1e-300, c_veh=2),
                                        economic_cost=1e-305)),
            # counts above 2**31 - 1, which s*N and the int64 window bounds need
            ("sweep", {"kind": "sweep_drivers", "scenario": base_scenario(d_max=3.0, c_veh=2),
                       "sweep_values": [1e20]}),
            ("sweep", {"kind": "sweep_drivers", "scenario": base_scenario(d_max=3.0, c_veh=2),
                       "sweep_values": [1e308]}),
            ("compare", _compare_config(scenario=base_scenario(d_max=3.0, c_veh=2),
                                        sweep_values=[1e308])),
            ("plan", {"kind": "plan", "scenario": base_scenario(d_max=3.0, N=10**20,
                                                                c_veh=10**20)}),
            ("roster", {"kind": "roster", "scenario": base_scenario(T=6, s=10**20, d_max=3.0,
                                                                    c_veh=2),
                        "plan": [1e19, 0, 0, 0, 0, 0]}),
            # a horizon or break past Scenario's bounds: each allocated or overflowed
            ("plan", {"kind": "plan", "scenario": base_scenario(beta=10**20)}),
            ("plan", {"kind": "plan", "scenario": base_scenario(beta=2**31)}),
            ("plan", {"kind": "plan", "scenario": base_scenario(T=2**31)}),
            ("plan", {"kind": "plan", "scenario": base_scenario(T=2**20 + 1)}),
            # a config that is not an object, has no scenario, or a plan not of length T
            ("plan", [1, 2]),
            ("plan", {"kind": "plan"}),
            ("roster", _roster_config([0] * 5)),
            # a scenario that is not an object
            ("plan", {"kind": "plan", "scenario": [1]}),
            ("roster", {"kind": "roster", "scenario": "x"}),
            ("compare", _compare_config(scenario=None)),
            # a modifier that the kind does not read: each was ignored with exit 0
            ("compare", _compare_config(scale_c_veh=False)),
            ("sweep", {"kind": "sweep_shift_length", "scenario": base_scenario(),
                       "sweep_values": [1, 2], "scale_c_veh": "junk"}),
            ("plan", {"kind": "plan", "scenario": base_scenario(), "scale_c_veh": "junk"}),
            ("plan", {"kind": "plan", "scenario": base_scenario(), "d_max_per_driver": "junk"}),
            ("roster", {"kind": "roster", "scenario": base_scenario(),
                        "d_max_per_driver": "junk"}),
            # a key that the kind does not read, or a scenario key that is not a field:
            # each was ignored with exit 0
            ("compare", _compare_config(robustness_fraction=[0.1])),
            ("roster", {"kind": "roster", "scenario": base_scenario(T=6),
                        "planx": [1, 1, 0, 0, 0, 0]}),
            ("plan", {"kind": "plan", "scenario": base_scenario(), "sweep_values": [1, 2]}),
            ("plan", {"kind": "plan", "scenario": base_scenario(boundry="circular")}),
            # export-lp takes plan configs only: it read the scenario of any other kind
            ("export-lp", {"kind": "sweep_drivers", "scenario": base_scenario(),
                           "sweep_values": "junk"}),
            ("export-lp", _roster_config([1, 1, 0, 0, 0, 0])),
        ],
        ids=["delta-above-T", "text-value", "scalar-values", "zero-work",
             "text-driver-count", "fraction-above-1", "text-cost", "text-per-driver",
             "cost-past-float",
             "infinite-T", "fractional-N", "text-T", "fractional-plan", "negative-plan",
             "text-plan", "nested-plan", "null-plan", "huge-plan", "text-scale-c-veh",
             "demand-times-work", "demand-sum", "offset-sinusoid-peak", "tiny-cost",
             "tiny-a-and-cost", "sweep-1e20-drivers", "sweep-1e308-drivers",
             "compare-1e308-drivers", "huge-N", "huge-s", "huge-beta", "beta-2**31",
             "T-2**31", "T-2**20+1", "not-an-object", "no-scenario", "short-plan",
             "list-scenario", "text-scenario", "null-scenario", "compare-scale-c-veh",
             "shift-length-scale-c-veh", "plan-scale-c-veh", "plan-per-driver",
             "roster-per-driver", "misspelt-compare-key", "misspelt-roster-key",
             "plan-sweep-values", "misspelt-scenario-key", "export-lp-sweep",
             "export-lp-roster"],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, config):
        code, out = run(tmp_path, command, config)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        b"\xff\xfe{}",  # not UTF-8
        b'{"kind": "plan", "scenario": {"T": ' + b"1" * 5000 + b"}}",  # past 4300 digits
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
    ], ids=["bad-utf-8", "5000-digit-int", "deep-nesting"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, text):
        # each ended in a traceback with exit 1
        (tmp_path / "config.json").write_bytes(text)
        out = tmp_path / "out"
        assert main(["plan", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", [None, "plot", "plan", []])
    def test_kind_checked_before_scenario(self, tmp_path, capsys, kind):
        config = {"scenario": {"T": "not a number"}} | ({} if kind is None else {"kind": kind})
        assert run(tmp_path, "sweep", config)[0] == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert all(k in err for k in ("sweep_drivers", "sweep_shifts_per_driver",
                                      "sweep_shift_length"))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.integers(-2, 6),
    st.floats(-3.0, 6.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5, 0.5, 5e-324, 1e-300,
                     2**31, 10**20, 1e308]),
)
_JUNK_OR_LIST = st.one_of(_JUNK, st.lists(_JUNK, max_size=3))
# an explicit demand for T = 12, with subnormal, tiny and huge entries
_DEMAND = st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 1e200, 1e308]),
                             st.floats(0.0, 10.0)), min_size=12, max_size=12)
# valid values of keys that some kinds read
_VALID_FIELDS = {"sweep_values": [1, 2], "service_fraction": 0.8, "economic_cost": 1.0}
_FIELDS = {
    "sweep_values": _JUNK_OR_LIST,
    "service_fraction": _JUNK,
    "economic_cost": _JUNK,
    "d_max_per_driver": _JUNK,
    "scale_c_veh": _JUNK,
    "robustness_fractions": _JUNK_OR_LIST,
    "robustness_costs": _JUNK_OR_LIST,
    "plan": st.one_of(_JUNK_OR_LIST, st.lists(st.integers(0, 3), min_size=12, max_size=12)),
}
_SCENARIO_FIELDS = {
    **{key: _JUNK for key in ("T", "N", "s", "delta", "beta", "d_max", "a", "c_veh")},
    "demand": _JUNK_OR_LIST,
    "demand_model": st.one_of(_JUNK, st.sampled_from([m.value for m in DemandModel])),
    "boundary": st.one_of(_JUNK, st.sampled_from([b.value for b in Boundary])),
}
_KIND_AND_COMMAND = [
    ("sweep_drivers", "sweep"), ("sweep_shifts_per_driver", "sweep"),
    ("sweep_shift_length", "sweep"), ("compare_baselines", "compare"), ("roster", "roster"),
    ("plan", "plan"), ("plan", "export-lp"),
]


@settings(max_examples=300, deadline=None)
@given(
    kind_and_command=st.sampled_from(_KIND_AND_COMMAND),
    fields=st.fixed_dictionaries({}, optional=_FIELDS),
    scenario=st.one_of(st.fixed_dictionaries({}, optional=_SCENARIO_FIELDS), _JUNK_OR_LIST),
    N=st.integers(0, 4), s=st.integers(1, 2), delta=st.integers(1, 4),
    c_veh=st.integers(0, 5), demand=st.one_of(st.none(), _DEMAND), valid=st.booleans(),
    keep=st.sampled_from([None, *_FIELDS, *_SCENARIO_FIELDS]),
    misspelt=st.one_of(st.none(), st.sampled_from([*_FIELDS, *_SCENARIO_FIELDS])),
)
def test_config_fuzz_never_exit_1(kind_and_command, fields, scenario, N, s, delta, c_veh,
                                  demand, valid, keep, misspelt):
    """Every command's config either runs or fails with a documented exit code:
    one line on stderr if it fails, nothing if it runs. Only the drawn fields
    that the kind reads are kept. In about half the runs (`valid`) the config
    starts from the valid fields that the kind reads and an object scenario,
    and keeps only the drawn field named `keep`, so that many of them reach a
    planning path. Otherwise a drawn scenario that is not an object is used as
    it is. A drawn explicit demand replaces the base scenario's demand model.
    A `misspelt` key, the named key less its last letter, is put in the config
    or the scenario object: that config is bad whatever else it holds."""
    kind, command = kind_and_command
    reads = _KINDS[kind][1]
    fields = {k: v for k, v in fields.items() if k in reads}
    if valid:
        fields = {**{k: v for k, v in _VALID_FIELDS.items() if k in reads},
                  **{k: v for k, v in fields.items() if k == keep}}
        scenario = {k: v for k, v in scenario.items() if k == keep} if isinstance(
            scenario, dict) else {}
    if isinstance(scenario, dict):
        base = base_scenario(N=N, s=s, delta=delta, c_veh=c_veh)
        if demand is not None:
            base.update(demand_model="explicit", demand=demand)
        scenario = {**base, **scenario}
    config = {"kind": kind, "scenario": scenario, **fields}
    holder = config if misspelt in _FIELDS else scenario
    misspell = misspelt is not None and isinstance(holder, dict)
    if misspell:
        holder[misspelt[:-1]] = 1
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        code, _ = run(Path(tmp), command, config)
    assert code in (EXIT_OK, EXIT_BAD_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_VERIFICATION)
    assert code == EXIT_BAD_CONFIG or not misspell
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestRosterCommand:
    def test_roster_from_solved_plan(self, tmp_path):
        code, out = run(tmp_path, "roster", {"kind": "roster", "scenario": base_scenario()})
        assert code == EXIT_OK
        header, rows = read_csv(str(out / "roster.csv"))
        assert header == ["driver_id", "shift_index", "start_step", "end_step"]
        assert len(rows) == 2

    def test_empty_roster_for_no_drivers(self, tmp_path):
        code, out = run(
            tmp_path, "roster", {"kind": "roster", "scenario": base_scenario(N=0)}
        )
        assert code == EXIT_OK
        header, rows = read_csv(str(out / "roster.csv"))
        assert header == ["driver_id", "shift_index", "start_step", "end_step"]
        assert rows == []

    @pytest.mark.parametrize("plan", [[10**8, 0], None], ids=["given-plan", "solved-plan"])
    def test_shift_count_bounded_before_any_shift_is_built(self, tmp_path, capsys, plan):
        # 10**8 shifts, one object each, used to end in MemoryError with exit 1
        config = {"kind": "roster", "scenario": base_scenario(
            T=2, N=10**8, c_veh=10**8, s=1, delta=1, beta=0)}
        if plan is not None:
            config["plan"] = plan
        start = time.perf_counter()
        code, out = run(tmp_path, "roster", config)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: roster takes at most s*N = 1048576 shifts, got 100000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("plan", [[1, 1] + [0] * 10, None], ids=["given-plan", "solved-plan"])
    def test_circular_scenario_rejected_before_planning(self, tmp_path, capsys, monkeypatch,
                                                        plan):
        # used to solve the LP and then exit 5, "roster verification failed"
        calls = []
        monkeypatch.setattr(planner, "plan", lambda *args: calls.append(args))
        config = {"kind": "roster", "scenario": base_scenario(boundary="circular")}
        if plan is not None:
            config["plan"] = plan
        code, out = run(tmp_path, "roster", config)
        assert calls == []
        assert code == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: roster takes zero_padded scenarios only, got boundary circular\n")
        assert not out.exists()

    def test_violating_plan_exit_5(self, tmp_path):
        config = {
            "kind": "roster",
            "scenario": base_scenario(N=1, s=2),
            "plan": [1, 1] + [0] * 10,
        }
        code, out = run(tmp_path, "roster", config)
        assert code == EXIT_VERIFICATION
        assert not (out / "roster.csv").exists()

    def test_plan_short_of_s_n_shifts_exit_5(self, tmp_path, capsys):
        # one shift for 3 drivers of 2: dealt without a clash, then failed by the check
        sc = {"T": 24, "N": 3, "s": 2, "delta": 4, "beta": 2, "d_max": 3.0, "a": 2.0, "c_veh": 3}
        code, out = run(tmp_path, "roster", {"kind": "roster", "scenario": sc,
                                             "plan": [1] + [0] * 23})
        assert code == EXIT_VERIFICATION
        assert capsys.readouterr().err == (
            "error: roster verification failed: not every driver works exactly s shifts\n")
        assert not (out / "roster.csv").exists()


class TestExportLpCommand:
    def test_writes_model(self, tmp_path):
        code, out = run(tmp_path, "export-lp", {"kind": "plan", "scenario": base_scenario()})
        assert code == EXIT_OK
        text = (out / "model.lp").read_text()
        for section in ("Maximize", "Subject To", "Bounds", "Generals", "End"):
            assert section in text
        assert "\r" not in text


def _cpus(monkeypatch, n):
    """The process may run on n CPUs, as far as the CLI can tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestSweepValuesOnThreads:
    """compare and sweep solve their sweep values on every CPU the process may use, with
    the files, error lines and exit codes of a serial loop."""

    def test_each_item_runs_once_under_contention(self, monkeypatch):
        # more threads than this host's CPUs, switching as often as the interpreter allows
        _cpus(monkeypatch, 16)
        seen, result = [], []

        def fn(v):
            seen.append(v)
            return -v

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(_each(fn, list(range(500)))))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert result == [[-v for v in range(500)]] and sorted(seen) == list(range(500))
        assert _each(fn, []) == []

    def test_one_cpu_is_a_plain_loop(self, monkeypatch):
        _cpus(monkeypatch, 1)
        seen = []

        def fn(v):
            seen.append((v, threading.current_thread() is threading.main_thread()))
            if v == 1:
                raise ValueError(v)
            return v

        with pytest.raises(ValueError, match="1"):
            _each(fn, [0, 1, 2])
        assert seen == [(0, True), (1, True)]  # nothing after the failure starts

    def test_first_failure_in_input_order_wins(self, monkeypatch):
        _cpus(monkeypatch, 4)
        item2_raised = threading.Event()
        raised = []

        def fn(v):
            if v == 0:
                assert item2_raised.wait(timeout=60)
            if v == 1:
                return v
            raised.append(v)
            if v == 2:
                item2_raised.set()
            raise ValueError(f"item {v}")

        with pytest.raises(ValueError, match="item 0"):
            _each(fn, [0, 1, 2])
        assert raised == [2, 0]

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_first_failure_decides_the_exit_code(self, tmp_path, capsys, monkeypatch, cpus):
        # N = 1 is infeasible (exit 3); the later 1e20 drivers give a bad scenario (exit 2)
        _cpus(monkeypatch, cpus)
        config = {
            "kind": "compare_baselines",
            "scenario": {"T": 3, "N": 1, "s": 2, "delta": 2, "beta": 2, "d_max": 3.0,
                         "a": 2.0, "c_veh": 1},
            "sweep_values": [0, 1, 100000000000000000000],
            "service_fraction": 0.8,
            "economic_cost": 1.0,
        }
        code, out = run(tmp_path, "compare", config)
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().err == "error: no plan: solver status infeasible\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        # N = 0 has no drivers; N = 70 (y_max > 64) is planned in windowed rounds
        ("compare", _compare_config(scenario=base_scenario(T=24, s=2, delta=3, beta=2),
                                    sweep_values=[0, 2, 5, 70, 3], d_max_per_driver=1.2)),
        ("sweep", {"kind": "sweep_drivers", "scenario": base_scenario(T=24),
                   "sweep_values": [1, 2, 3, 5, 8], "d_max_per_driver": 1.5}),
        ("sweep", {"kind": "sweep_shifts_per_driver",
                   "scenario": base_scenario(T=24, N=6, s=2, c_veh=6),
                   "sweep_values": [1, 2, 3, 4, 6]}),
    ])
    def test_same_bytes_on_one_and_four_cpus(self, tmp_path, monkeypatch, command, config):
        files = []
        for cpus in (1, 4):
            _cpus(monkeypatch, cpus)
            (tmp_path / str(cpus)).mkdir()
            code, out = run(tmp_path / str(cpus), command, config)
            assert code == EXIT_OK
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(files[0]) == 2
        assert files[0] == files[1]
