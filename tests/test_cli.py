"""End-to-end tests for the command line interface.

These call :func:`pvsmooth.cli.main` in-process so exit codes and artifacts
can be asserted without shell plumbing.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pvsmooth import cli
from pvsmooth.cli import DISPATCH_COLUMNS, main
from pvsmooth.config import RUN_CASES, load_preset, load_run_config
from pvsmooth.formulation import DispatchSolution
from pvsmooth.lp import parse_mps, read_mps, render_mps, simplex, solve

FLAT_HEADER = "timestamp,irradiance_wm2,temp_c\n"

#: no energy price: the baseline earns exactly 0, and so does B, which then
#: builds no storage
ZERO_BASELINE = {"weather": {"synthetic": {"days": 1}}, "econ": {"energy_price": 0}}


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
        assert case_a["battery_power_kw"] == 0.0
        assert capsys.readouterr().err == ""

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
                "start", "iterations", "phase1_iterations", "infeasible_rows",
                "max_curtailed_kw", "residuals", "worst_step",
            }
            assert path["start"] == "crash"  # neither case extends a solved one
            assert path["iterations"] >= path["phase1_iterations"] >= 0
            assert set(path["residuals"]) == set(path["worst_step"])
        # every number is written at the 12 significant digits of the CSVs
        numbers = [summary["baseline_net_benefit"]]
        numbers += [v for case in summary["cases"].values() for v in case.values()
                    if isinstance(v, float)]
        assert len(numbers) == 11
        assert all(v == float(f"{v:.12g}") for v in numbers)

    def test_comparison_is_written_at_12_digits(self, tmp_path):
        cfg = write_config(tmp_path, {"weather": {"synthetic": {"days": 1}}, "output_dir": "out"})
        assert main(["run", str(cfg)]) == 0
        comparison = json.loads((tmp_path / "out" / "comparison.json").read_text())
        numbers = [comparison["baseline_net_benefit"]]
        numbers += [v for case in comparison["cases"].values() for v in case.values()]
        # the largest curtailment depends on the pivot path; solver.json has it
        assert all("max_curtailed_kw" not in case for case in comparison["cases"].values())
        assert len(numbers) == 1 + 4 * 5
        assert all(v == float(f"{v:.12g}") for v in numbers)

    def test_cases_start_from_the_case_they_extend_in_any_order(self, tmp_path):
        cfg = write_config(tmp_path, {
            "weather": {"synthetic": {"days": 1}},
            "cases": ["D", "baseline", "C", "B", "A"],
            "output_dir": "out",
        })
        assert main(["run", str(cfg)]) == 0
        solver = json.loads((tmp_path / "out" / "solver.json").read_text())
        starts = {label: case["start"] for label, case in solver["cases"].items()}
        assert starts == {"A": "crash", "B": "A", "C": "A", "D": "C", "baseline": "crash"}

    def test_failed_solve_reports_status_and_iterations(self, tmp_path, monkeypatch):
        # a limit below one iteration stops the solve after its first
        monkeypatch.setattr(simplex, "ITERATION_LIMIT_FACTOR", 1e-9)
        weather = flat_weather_file(tmp_path)
        cfg = write_config(tmp_path, {
            "weather": {"file": weather.name},
            "cases": ["A"],
            "output_dir": "out",
        })
        assert main(["run", str(cfg)]) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        solver = json.loads((tmp_path / "out" / "solver.json").read_text())
        assert summary["cases"] == {"A": {"status": "iteration-limit"}}
        # no dispatch, so no residuals: only the solver's own counters
        assert set(solver["cases"]) == {"A"}
        assert set(solver["cases"]["A"]) == {
            "start", "iterations", "phase1_iterations", "infeasible_rows",
        }
        assert solver["cases"]["A"]["iterations"] == 1

    def test_failed_cases_are_named_on_stderr(self, tmp_path, capsys):
        # an empty start under the 10% SOC floor forces the energy rating to
        # zero, which leaves A and C no way to smooth the trace
        cfg = write_config(tmp_path, {
            "weather": {"synthetic": {"days": 1}},
            "constraints": {"initial_soc_fraction": 0.0},
            "output_dir": "out",
        })
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == "case A: infeasible\ncase C: infeasible\n"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert {c: case["status"] for c, case in summary["cases"].items()} == {
            "A": "infeasible", "B": "optimal", "C": "infeasible", "D": "optimal",
            "baseline": "optimal",
        }

    def test_no_solved_case_writes_no_comparison(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "weather": {"synthetic": {"days": 1}},
            "cases": ["A"],
            "constraints": {"initial_soc_fraction": 0.0},
            "output_dir": "out",
        })
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == "case A: infeasible\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "solver.json", "summary.json",
        ]

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

    # the seed is set in the config file, as weather.synthetic.seed
    def test_seed_flag_is_gone(self, flat_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(flat_config), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_synthetic_seed_changes_output(self, tmp_path):
        summaries = []
        for seed in (1, 2):
            cfg = write_config(
                tmp_path,
                {
                    "weather": {"synthetic": {"days": 1, "seed": seed}},
                    "cases": ["A"],
                    "output_dir": f"out{seed}",
                },
                name=f"seed{seed}.json",
            )
            main(["run", str(cfg)])
            summaries.append((tmp_path / f"out{seed}" / "summary.json").read_text())
        assert summaries[0] != summaries[1]

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"constraints": {"fluctuation_limit": -5}})
        assert main(["run", str(cfg)]) == 2
        assert "fluctuation_limit" in capsys.readouterr().err

    def test_missing_weather_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"weather": {"file": "nope.csv"}})
        assert main(["run", str(cfg)]) == 2

    def test_non_utf8_byte_in_weather_exits_2(self, tmp_path, capsys):
        weather = tmp_path / "weather.csv"
        weather.write_bytes(
            FLAT_HEADER.encode() + b"2024-06-01T10:00:00,800,25\n"
            b"2024-06-01T10:10:00,8\xe900,25\n2024-06-01T10:20:00,800,25\n"
        )
        cfg = write_config(tmp_path, {"weather": {"file": weather.name}})
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {weather}: row 3: non-UTF-8 byte 0xe9 in column 'irradiance_wm2'\n"
        )

    def test_zero_baseline_leaves_the_decrement_undefined(self, tmp_path):
        # a fraction of a zero baseline is undefined: null in the JSON and
        # n/a in the table, never a dollar amount divided by 1
        cfg = write_config(tmp_path, {**ZERO_BASELINE, "output_dir": "out"})
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "out"
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["baseline_net_benefit"] == 0.0
        assert list(comparison["cases"]) == ["A", "B", "C", "D"]
        assert all(c["decrement_vs_baseline"] is None for c in comparison["cases"].values())
        rows = (out / "comparison.txt").read_text().splitlines()
        assert rows[2].split()[-4:] == ["n/a"] * 4
        assert rows[2].startswith("Decrement vs baseline (%)")

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


RATINGS = ("p_batt_max", "e_batt_max", "p_diesel_max", "diesel_energy")


class TestZeroRatings:
    """The simplex leaves roundoff of about 1e-14 to 2e-12 on a rating that
    the optimum sets to zero; the reports hold exactly 0.0."""

    def _reports(self, tmp_path, doc):
        cfg = write_config(tmp_path, {**doc, "output_dir": "out"})
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "out"
        return (json.loads((out / "summary.json").read_text()),
                json.loads((out / "comparison.json").read_text()))

    def test_flat_trace_needs_no_storage_or_diesel(self, tmp_path):
        flat_weather_file(tmp_path)
        summary, comparison = self._reports(tmp_path, {"weather": {"file": "weather.csv"}})
        assert set(summary["cases"]) == {"A", "B", "C", "D", "baseline"}
        for case in summary["cases"].values():
            assert [case[name] for name in RATINGS] == [0.0] * 4
        for case in comparison["cases"].values():
            assert case["battery_power_kw"] == case["battery_energy_kwh"] == 0.0
            assert case["diesel_power_kw"] == 0.0
        assert "-0.0" not in (tmp_path / "out" / "comparison.txt").read_text()

    def test_no_fuel_means_no_diesel(self, tmp_path):
        summary, comparison = self._reports(tmp_path, {
            "weather": {"synthetic": {"days": 3}},
            "diesel": {"annual_fuel_cap_liters": 0},
        })
        for label in ("C", "D"):
            case = summary["cases"][label]
            assert case["p_diesel_max"] == case["diesel_energy"] == 0.0
        assert [case["diesel_power_kw"] for case in comparison["cases"].values()] == [0.0] * 4

    def test_zero_ratings_leave_no_roundoff_in_the_net_benefit(self, tmp_path):
        # B's optimum builds nothing and earns nothing; the ratings' roundoff
        # once left it 2.7e-11 above the baseline's 0.0
        summary, comparison = self._reports(tmp_path, ZERO_BASELINE)
        assert summary["cases"]["B"]["net_benefit"] == 0.0
        assert comparison["cases"]["B"]["net_benefit"] == 0.0
        assert "-0.00" not in (tmp_path / "out" / "comparison.txt").read_text()


def test_comparison_text_is_the_table_of_the_document():
    doc = {
        "baseline_net_benefit": 1.0,
        "cases": {
            "A": {"net_benefit": 123456789.125, "decrement_vs_baseline": 0.0123456,
                  "battery_power_kw": 2687.44, "battery_energy_kwh": 3380.75,
                  "diesel_power_kw": 0.0},
            "D": {"net_benefit": -0.5, "decrement_vs_baseline": 1.0000001,
                  "battery_power_kw": 0.0, "battery_energy_kwh": 0.0,
                  "diesel_power_kw": 12.25},
        },
    }
    assert cli.comparison_text(doc) == (
        "                                        A             D\n"
        "Net benefit ($)              123456789.12         -0.50\n"
        "Decrement vs baseline (%)            1.23        100.00\n"
        "Battery power rating (kW)          2687.4           0.0\n"
        "Battery energy rating (kWh)        3380.8           0.0\n"
        "Diesel rating (kW)                    0.0          12.2"
    )


def test_decrement_that_rounds_to_zero_prints_unsigned():
    # a net benefit a few 1e-8 dollars above the baseline's, as on a flat
    # trace, gives a decrement of -1.95e-16; it and -0.004% print as 0.00,
    # while -0.006% keeps its sign
    cell = {"net_benefit": 1.0, "battery_power_kw": 0.0, "battery_energy_kwh": 0.0,
            "diesel_power_kw": 0.0}
    doc = {
        "baseline_net_benefit": 1.0,
        "cases": {label: dict(cell, decrement_vs_baseline=value)
                  for label, value in (("A", -1.95e-16), ("B", -4e-5), ("C", -6e-5), ("D", None))},
    }
    row = cli.comparison_text(doc).splitlines()[2]
    assert row.split()[4:] == ["0.00", "0.00", "-0.01", "n/a"]


class TestSolverFailure:
    def test_singular_basis_exits_1_with_one_line(self, flat_config, monkeypatch, capsys):
        def singular(matrix, **options):
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

    def test_byte_order_mark_validates(self, flat_config, tmp_path, capsys):
        main(["run", str(flat_config)])
        csv_path = tmp_path / "out" / "case_A_dispatch.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        assert main(["validate", str(flat_config), str(bom)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

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

    @pytest.mark.parametrize("row, message", [
        ("1.5,1,1,0,0,0,0", "row 3: bad value in column 'step': '1.5'"),
        ("1,1,1,0,0,0", "row 3: expected 7 fields, got 6"),
        # float reads "nan"; the report would hold it as bare NaN, not JSON
        ("1,1,1,nan,0,0,0", "row 3: bad value in column 'p_batt': 'nan'"),
    ])
    def test_faulty_row_is_named(self, flat_config, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(DISPATCH_COLUMNS) + "\n0,1,1,0,0,0,0\n" + row + "\n")
        assert main(["validate", str(flat_config), str(bad)]) == 2
        assert capsys.readouterr().err == f"config error: {bad}: {message}\n"

    def test_non_utf8_byte_is_named(self, flat_config, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(",".join(DISPATCH_COLUMNS).encode() + b"\n0,1,1,0,0,0,0\n1,1,1,0,0\xff,0,0\n")
        assert main(["validate", str(flat_config), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {bad}: row 3: non-UTF-8 byte 0xff in column 'e_batt'\n"
        )


def test_dispatch_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    n = 40
    series = {
        name: rng.normal(size=n) * 10.0 ** rng.integers(-12, 13, size=n)
        for name in DISPATCH_COLUMNS[1:]
    }
    series["p_curt"][:3] = [0.0, -0.0, 1.0 / 3.0]
    sol = DispatchSolution(
        steps=np.arange(7, 7 + n), **series, p_batt_max=1.0, e_batt_max=1.0,
        p_diesel_max=0.0, net_benefit=0.0, diesel_energy=0.0,
    )
    path = tmp_path / "case_A_dispatch.csv"
    cli.write_dispatch_csv(path, sol)
    back = cli.read_dispatch_csv(path)
    assert back["steps"].tolist() == sol.steps.tolist()
    for name, values in series.items():
        assert back[name].tolist() == [float(f"{v:.12g}") for v in values], name
    # the text too: -0 and 0 parse to equal floats, and so do other spellings
    lines = path.read_bytes().decode("utf-8").splitlines()
    assert lines[0] == ",".join(DISPATCH_COLUMNS)
    cells = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in cells] == [str(s) for s in sol.steps.tolist()]
    for k, (name, values) in enumerate(series.items(), start=1):
        assert [row[k] for row in cells] == [f"{v:.12g}" for v in values], name
    assert cells[0][5:6] == ["0"] and cells[1][5:6] == ["-0"] and cells[2][5] == "0.333333333333"


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

    def test_every_case_keeps_its_names(self, tmp_path, capsys):
        # every name the case builder makes is an MPS name, written as it is
        cfg = write_config(tmp_path, {"weather": {"synthetic": {"days": 2}},
                                      "constraints": {"initial_soc_fraction": 0.5},
                                      "output_dir": "out"})
        config = load_run_config(cfg)
        pv = cli.build_power_series(config)
        names = set()
        for label in RUN_CASES:
            assert main(["export-mps", str(cfg), "--case", label]) == 0
            path = tmp_path / "out" / f"case_{label}.mps"
            p = read_mps(path)
            assert render_mps(p) == path.read_text(encoding="ascii")
            built = cli._formulate(label, config, pv, config.battery)[0].problem
            assert (p.name, p.row_names, p.col_names) == (built.name, built.row_names,
                                                          built.col_names)
            names |= {name.rstrip("0123456789") for name in p.row_names + p.col_names}
        assert names == {"BAL", "RUP", "RDN", "SOC", "PBU", "PBL", "EBU", "EBL", "DCP", "FUELCAP",
                         "INITSOC", "CYCSOC", "PG", "PB", "EB", "PC", "PD", "PBMAX", "EBMAX",
                         "PDMAX"}


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

    def test_each_candidate_starts_from_the_one_before(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"weather": {"synthetic": {"days": 1}}, "output_dir": "out"})
        solves = []

        def recording_solve(problem, start=None):
            sol = solve(problem, start=start)
            solves.append((start is not None, sol.warm_start, sol.phase1_iterations))
            return sol

        monkeypatch.setattr(cli, "solve", recording_solve)
        assert main(["battery-select", str(cfg)]) == 0
        # the baseline and the first candidate crash; the other three start
        # from the candidate before and skip phase 1
        assert [given for given, _, _ in solves] == [False, False, True, True, True]
        assert all(warm and phase1 == 0 for _, warm, phase1 in solves[2:])

    def test_not_a_run_case(self, tmp_path, capsys):
        # ranking is its own subcommand, not a case that run solves
        cfg = write_config(tmp_path, {"cases": ["A", "battery-select"]})
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: cases: unknown case 'battery-select'; valid: A, B, C, D, baseline\n"
        )

    def test_zero_baseline_leaves_the_imposed_cost_undefined(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**ZERO_BASELINE, "output_dir": "out"})
        assert main(["battery-select", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "battery_select.json").read_text())
        assert doc["baseline_net_benefit"] == 0.0
        assert [e["imposed_cost_pct"] for e in doc["ranking"]] == [None] * 4
        nets = [e["net_benefit"] for e in doc["ranking"]]
        assert nets == sorted(nets, reverse=True)
        lines = capsys.readouterr().out.splitlines()
        assert lines == (tmp_path / "out" / "battery_select.txt").read_text().splitlines()
        assert [line.split()[2] for line in lines[1:]] == ["n/a"] * 4

    def test_names_are_written_as_utf8_in_any_locale(self, tmp_path):
        # in the C locale without UTF-8 mode, a text file opened without an
        # encoding is ASCII
        weather = flat_weather_file(tmp_path)
        cfg = write_config(
            tmp_path,
            {
                "weather": {"file": weather.name},
                "battery_candidates": [
                    {**load_preset("table1_la"), "name": "Blei-Säure"}, "table1_nas"
                ],
                "output_dir": "out",
            },
        )
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run(
            [sys.executable, "-m", "pvsmooth.cli", "battery-select", str(cfg)],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        text = (tmp_path / "out" / "battery_select.txt").read_bytes()
        assert "Blei-Säure".encode("utf-8") in text
        assert proc.stdout == text

    def test_long_name_keeps_the_columns(self, tmp_path, capsys):
        # the name column is as wide as the longest name, 12 at least
        weather = flat_weather_file(tmp_path)
        cfg = write_config(
            tmp_path,
            {
                "weather": {"file": weather.name},
                "battery_candidates": [
                    {**load_preset("table1_liion"), "name": "Lithium-ion NMC 2024"}, "table1_nas"
                ],
                "output_dir": "out",
            },
        )
        assert main(["battery-select", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == (tmp_path / "out" / "battery_select.txt").read_text().splitlines()
        ranking = json.loads((tmp_path / "out" / "battery_select.json").read_text())["ranking"]
        end = lines[0].index("Net benefit ($)") + len("Net benefit ($)")
        for line, e in zip(lines[1:], ranking, strict=True):
            assert line.startswith(e["battery"])
            assert line[:end].endswith(f" {e['net_benefit']:.2f}")

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
