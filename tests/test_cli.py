"""End-to-end tests for the command line interface.

These call :func:`pvsmooth.cli.main` in-process so exit codes and artifacts
can be asserted without shell plumbing.
"""

import json
import math
from pathlib import Path

import pytest

from pvsmooth.cli import main
from pvsmooth.lp import parse_mps, simplex, solve

FLAT_HEADER = "timestamp,irradiance_wm2,temp_c\n"


def flat_weather_file(tmp_path, steps=36, irradiance=800.0):
    # 36 ten-minute steps: short enough to solve fast, long enough that the
    # annualized per-step revenue stays below every chemistry's rating cost
    # (very short traces make end-of-horizon discharge look profitable)
    rows = [FLAT_HEADER]
    for i in range(steps):
        rows.append(f"2024-06-01T{10 + i // 6:02d}:{(i % 6) * 10:02d}:00,{irradiance},20\n")
    path = tmp_path / "weather.csv"
    path.write_text("".join(rows))
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def flat_config(tmp_path):
    weather = flat_weather_file(tmp_path)
    return write_config(
        tmp_path,
        {
            "weather": {"file": weather.name},
            "cases": ["A", "baseline"],
            "output_dir": "out",
        },
    )


class TestRun:
    def test_flat_trace_runs_clean(self, flat_config, tmp_path, capsys):
        assert main(["run", str(flat_config)]) == 0
        out = tmp_path / "out"
        for name in (
            "case_A_dispatch.csv",
            "case_baseline_dispatch.csv",
            "comparison.json",
            "comparison.txt",
            "plot_injection.csv",
            "solver.json",
            "summary.json",
        ):
            assert (out / name).is_file(), name

        summary = json.loads((out / "summary.json").read_text())
        assert summary["cases"]["A"]["status"] == "optimal"
        comparison = json.loads((out / "comparison.json").read_text())
        case_a = comparison["cases"]["A"]
        # nothing to smooth on a flat trace, so smoothing costs nothing
        assert case_a["decrement_vs_baseline"] == pytest.approx(0.0, abs=1e-9)
        assert case_a["battery_power_kw"] == pytest.approx(0.0, abs=1e-9)

    def test_summary_keeps_only_what_the_optimum_defines(self, flat_config, tmp_path):
        assert main(["run", str(flat_config)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        solver = json.loads((tmp_path / "out" / "solver.json").read_text())
        assert set(solver["cases"]) == set(summary["cases"]) == {"A", "baseline"}
        for label, case in summary["cases"].items():
            assert set(case) == {
                "status", "net_benefit", "p_batt_max", "e_batt_max",
                "p_diesel_max", "diesel_energy", "validation",
            }
            assert case["validation"] == {"passed": True, "tolerance": 1e-6}
            # the pivot path's diagnostics live in solver.json
            path = solver["cases"][label]
            assert set(path) == {
                "iterations", "phase1_iterations", "artificials", "residuals", "worst_step",
            }
            assert path["iterations"] >= path["phase1_iterations"] >= 0
            assert set(path["residuals"]) == set(path["worst_step"])
        # every number is written at the 12 significant digits of the CSVs
        numbers = [summary["baseline_net_benefit"]]
        numbers += [v for case in summary["cases"].values() for v in case.values()
                    if isinstance(v, float)]
        assert len(numbers) == 11
        assert all(v == float(f"{v:.12g}") for v in numbers)

    def test_failed_solve_reports_status_and_iterations(self, tmp_path):
        weather = flat_weather_file(tmp_path)
        cfg = write_config(tmp_path, {
            "weather": {"file": weather.name},
            "cases": ["A"],
            "solver": {"max_iterations": 1},
            "output_dir": "out",
        })
        assert main(["run", str(cfg)]) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        solver = json.loads((tmp_path / "out" / "solver.json").read_text())
        assert summary["cases"] == {"A": {"status": "iteration-limit"}}
        # no dispatch, so no residuals: only the solver's own counters
        assert set(solver["cases"]) == {"A"}
        assert set(solver["cases"]["A"]) == {"iterations", "phase1_iterations", "artificials"}
        assert solver["cases"]["A"]["iterations"] == 1

    def test_dispatch_csv_header(self, flat_config, tmp_path):
        main(["run", str(flat_config)])
        first = (tmp_path / "out" / "case_A_dispatch.csv").read_text().splitlines()[0]
        assert first == "step,p_pv,p_grid,p_batt,e_batt,p_curt,p_diesel"

    def test_output_dir_flag_overrides_config(self, flat_config, tmp_path):
        target = tmp_path / "elsewhere"
        assert main(["run", str(flat_config), "--output-dir", str(target)]) == 0
        assert (target / "summary.json").is_file()

    def test_repeat_runs_are_byte_identical(self, flat_config, tmp_path):
        a = tmp_path / "first"
        b = tmp_path / "second"
        main(["run", str(flat_config), "--output-dir", str(a)])
        main(["run", str(flat_config), "--output-dir", str(b)])
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes(), path.name

    def test_seed_override_only_for_synthetic(self, flat_config, capsys):
        assert main(["run", str(flat_config), "--seed", "3"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_synthetic_seed_changes_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "weather": {"synthetic": {"days": 1, "seed": 1}},
                "cases": ["A"],
                "output_dir": "out",
            },
        )
        main(["run", str(cfg)])
        first = (tmp_path / "out" / "summary.json").read_text()
        main(["run", str(cfg), "--seed", "2"])
        second = (tmp_path / "out" / "summary.json").read_text()
        assert first != second

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"constraints": {"fluctuation_limit": -5}})
        assert main(["run", str(cfg)]) == 2
        assert "fluctuation_limit" in capsys.readouterr().err

    def test_missing_weather_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"weather": {"file": "nope.csv"}})
        assert main(["run", str(cfg)]) == 2

    def test_hourly_trace_needs_no_step_setting(self, tmp_path):
        # the LP's step is the CSV's own spacing, with no constraints given
        rows = [FLAT_HEADER]
        for i in range(48):
            day, hour = divmod(i, 24)
            sun = max(math.sin(math.pi * (hour - 6) / 12), 0.0)
            cloud = 0.3 if hour == 11 else 1.0
            rows.append(f"2024-06-{day + 1:02d}T{hour:02d}:00:00,{1000 * sun * cloud:.2f},20\n")
        (tmp_path / "hourly.csv").write_text("".join(rows))
        cfg = write_config(tmp_path, {"weather": {"file": "hourly.csv"}, "output_dir": "out"})
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "comparison.json").is_file()

    def test_all_night_trace_exits_2(self, tmp_path, capsys):
        flat_weather_file(tmp_path, irradiance=0.0)
        cfg = write_config(tmp_path, {"weather": {"file": "weather.csv"}})
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "at least 2 retained steps, got 0" in err


class TestSolverFailure:
    def test_singular_basis_exits_1_with_one_line(self, flat_config, monkeypatch, capsys):
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")  # as SuperLU reports it

        monkeypatch.setattr(simplex, "splu", singular)
        assert main(["run", str(flat_config)]) == 1
        err = capsys.readouterr().err
        assert err == "solver failure: basis matrix is singular: Factor is exactly singular\n"


class TestValidateSubcommand:
    def test_solver_output_validates(self, flat_config, tmp_path, capsys):
        main(["run", str(flat_config)])
        csv_path = tmp_path / "out" / "case_A_dispatch.csv"
        assert main(["validate", str(flat_config), str(csv_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_corrupted_dispatch_fails(self, flat_config, tmp_path, capsys):
        main(["run", str(flat_config)])
        csv_path = tmp_path / "out" / "case_A_dispatch.csv"
        lines = csv_path.read_text().splitlines()
        head, first = lines[0].split("\n")[0], lines[1].split(",")
        first[2] = str(float(first[2]) + 500.0)  # break the power balance
        csv_path.write_text("\n".join([head, ",".join(first)] + lines[2:]) + "\n")
        assert main(["validate", str(flat_config), str(csv_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["residuals"]["balance"] == pytest.approx(500.0)

    def test_wrong_header_exits_2(self, flat_config, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,p_pv\n0,1\n")
        assert main(["validate", str(flat_config), str(bad)]) == 2

    def test_missing_csv_exits_2(self, flat_config, tmp_path):
        assert main(["validate", str(flat_config), str(tmp_path / "gone.csv")]) == 2


class TestExportMps:
    def test_export_round_trips_to_same_optimum(self, flat_config, tmp_path, capsys):
        assert main(["export-mps", str(flat_config), "--case", "A"]) == 0
        printed = capsys.readouterr().out.strip()
        path = Path(printed)
        assert path.is_file()
        problem = parse_mps(path.read_text())
        result = solve(problem)
        # check against the run artifact rather than recomputing revenue here
        assert main(["run", str(flat_config)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert result.objective_value == pytest.approx(
            summary["cases"]["A"]["net_benefit"], rel=1e-9
        )

    def test_unknown_case_rejected(self, flat_config, capsys):
        with pytest.raises(SystemExit):
            main(["export-mps", str(flat_config), "--case", "Q"])


class TestBatterySelect:
    def test_ranked_on_flat_trace(self, tmp_path, capsys):
        weather = flat_weather_file(tmp_path)
        cfg = write_config(
            tmp_path,
            {
                "weather": {"file": weather.name},
                "cases": ["D"],
                "output_dir": "out",
            },
        )
        assert main(["battery-select", str(cfg)]) == 0
        ranking = json.loads((tmp_path / "out" / "battery_select.json").read_text())
        assert len(ranking["ranking"]) == 4
        nets = [e["net_benefit"] for e in ranking["ranking"]]
        assert nets == sorted(nets, reverse=True)
        # flat trace: no storage needed, so every chemistry nets the same
        assert max(nets) - min(nets) == pytest.approx(0.0, abs=1e-6 * abs(nets[0]))
        # every number is written at the 12 significant digits of the CSVs
        numbers = [ranking["baseline_net_benefit"]]
        numbers += [v for e in ranking["ranking"] for v in e.values() if isinstance(v, float)]
        assert len(numbers) == 17
        assert all(v == float(f"{v:.12g}") for v in numbers)

    def test_single_candidate_rejected(self, tmp_path, capsys):
        weather = flat_weather_file(tmp_path)
        cfg = write_config(
            tmp_path,
            {
                "weather": {"file": weather.name},
                "battery_candidates": ["table1_nas"],
            },
        )
        assert main(["battery-select", str(cfg)]) == 2
        assert "candidate" in capsys.readouterr().err


class TestNestingGuard:
    def test_idle_diesel_lump_charge_keeps_the_chain(self, tmp_path, capsys):
        # a gentle trace never runs the diesel, so its fixed emission charge
        # makes case D earn exactly the lump less than case B; the nesting
        # check adds the lump back and the run succeeds
        cfg = write_config(
            tmp_path,
            {
                "weather": {"synthetic": {"days": 1, "seed": 1, "variability": 0.05}},
                "cases": ["B", "D"],
                "output_dir": "out",
            },
        )
        assert main(["run", str(cfg)]) == 0
        assert "nesting violation" not in capsys.readouterr().err
        comparison = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert set(comparison["cases"]) == {"B", "D"}
