import json
import os

import numpy as np
import pytest

from shiftopt.cli import (
    EXIT_BAD_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFICATION,
    main,
    read_csv,
)


def base_scenario(**kw):
    sc = {
        "T": 12, "N": 2, "s": 1, "delta": 2, "beta": 1,
        "d_max": 4.0, "a": 2.0, "c_veh": 4,
        "demand_model": "envelope_sinusoid", "boundary": "zero_padded",
    }
    sc.update(kw)
    return sc


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

    def test_infeasible_exit_3(self, tmp_path):
        sc = base_scenario(T=3, N=1, s=2, delta=2, beta=2, c_veh=1)
        code, out = run(tmp_path, "plan", {"kind": "plan", "scenario": sc})
        assert code == EXIT_INFEASIBLE
        assert not (out / "summary.json").exists()

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

    def test_violating_plan_exit_5(self, tmp_path):
        config = {
            "kind": "roster",
            "scenario": base_scenario(N=1, s=2),
            "plan": [1, 1] + [0] * 10,
        }
        code, out = run(tmp_path, "roster", config)
        assert code == EXIT_VERIFICATION
        assert not (out / "roster.csv").exists()


class TestExportLpCommand:
    def test_writes_model(self, tmp_path):
        code, out = run(tmp_path, "export-lp", {"kind": "plan", "scenario": base_scenario()})
        assert code == EXIT_OK
        text = (out / "model.lp").read_text()
        for section in ("Maximize", "Subject To", "Bounds", "Generals", "End"):
            assert section in text
        assert "\r" not in text
