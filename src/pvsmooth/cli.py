"""Command-line pipeline: weather -> PV power -> formulate -> solve -> report.

Subcommands: ``run``, ``battery-select``, ``export-mps``, ``validate``. All
artifacts are plain CSV/JSON written deterministically, so identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RUN_CASES, RunConfig, load_run_config
from .economics import BatterySpec, DieselSpec
from .errors import ConfigError, PvSmoothError, SolveStatusError
from .formulation import (
    CASE_IDS,
    DIESEL_CASES,
    CaseFormulation,
    ConstraintConfig,
    DispatchSolution,
    build_case,
    extract_solution,
)
from .lp import LpSolution, solve, write_mps
from .pvmodel import PowerSeries, pv_power
from .validation import NESTED_PAIRS, baseline_ratio, check_dispatch, compare_cases
from .weather import filter_low_irradiance, load_weather, read_table, synth_weather

log = logging.getLogger("pvsmooth")

DISPATCH_COLUMNS = ("step", "p_pv", "p_grid", "p_batt", "e_batt", "p_curt", "p_diesel")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _rounded(x: float) -> float:
    """``x`` rounded to the 12 significant digits the CSVs carry."""
    return float(_fmt(x))


@dataclass
class CaseRecord:
    label: str  # A/B/C/D/baseline
    solution: LpSolution
    dispatch: DispatchSolution | None
    report: dict | None  # the document of check_dispatch
    start: str  # label of the case whose basis the solve started from, or "crash"

    @property
    def ok(self) -> bool:
        # only an optimal solve is decoded and validated
        return self.report is not None and self.report["passed"]


def build_power_series(config: RunConfig) -> PowerSeries:
    if config.weather_file is not None:
        weather = load_weather(config.weather_file)
    else:
        spec = config.weather_synth
        weather = synth_weather(spec.days, spec.seed, spec.variability)
    weather = filter_low_irradiance(weather)
    return pv_power(weather, config.plant)


def _case_constraints(label: str, config: RunConfig) -> ConstraintConfig:
    """The constraints of case ``label``: the baseline drops the fluctuation band."""
    if label == "baseline":
        return replace(config.constraints, fluctuation_limit=math.inf)
    return config.constraints


def _formulate(
    label: str, config: RunConfig, pv: PowerSeries, battery: BatterySpec
) -> tuple[CaseFormulation, ConstraintConfig, DieselSpec | None]:
    """The LP of case ``label`` with the constraints and diesel it was built from.

    The baseline is case A with the fluctuation band removed.
    """
    case_id = "A" if label == "baseline" else label
    cfg = _case_constraints(label, config)
    diesel = config.diesel if case_id in DIESEL_CASES else None
    return build_case(case_id, pv, battery, config.econ, cfg, diesel=diesel), cfg, diesel


def solve_case(
    label: str,
    config: RunConfig,
    pv: PowerSeries,
    battery: BatterySpec | None = None,
    start: CaseRecord | None = None,
) -> CaseRecord:
    """Solve case ``label``, from the optimal basis of ``start`` when it has one."""
    battery = battery if battery is not None else config.battery
    form, cfg, diesel = _formulate(label, config, pv, battery)
    basis = start.solution.basis if start is not None else None
    solution = solve(form.problem, start=basis)
    start_label = start.label if solution.warm_start else "crash"
    log.info(
        "case %s: %s after %d iterations (%d in phase 1, %d infeasible rows) from %s",
        label, solution.status, solution.iterations,
        solution.phase1_iterations, solution.infeasible_rows, start_label,
    )
    dispatch = report = None
    if solution.status == "optimal":
        dispatch = extract_solution(form, solution)
        report = check_dispatch(dispatch, pv, cfg, battery, diesel)
    return CaseRecord(label, solution, dispatch, report, start_label)


def _write_table(
    path: Path, header: Sequence[str], steps: np.ndarray, series: Sequence[np.ndarray]
) -> None:
    """A CSV table of the integer ``steps`` and then each of ``series`` at
    12 significant digits, the text :func:`_fmt` gives. A number needs no
    quoting, so each row is one ``%`` format in the csv module's dialect."""
    row = "%d" + ",%.12g" * len(series) + "\r\n"
    rows = zip(steps.tolist(), *(values.tolist() for values in series))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(map(row.__mod__, rows))


def write_dispatch_csv(path: Path, sol: DispatchSolution) -> None:
    _write_table(path, DISPATCH_COLUMNS, sol.steps,
                 [getattr(sol, name) for name in DISPATCH_COLUMNS[1:]])


def read_dispatch_csv(path: Path) -> dict:
    if not Path(path).exists():
        raise ConfigError(f"dispatch file not found: {path}")
    values, lines = read_table(path, DISPATCH_COLUMNS, (int,) + (float,) * 6, ConfigError)
    if not len(lines):
        raise ConfigError(f"{path}: no dispatch rows")
    return dict(zip(("steps",) + DISPATCH_COLUMNS[1:], map(np.asarray, values)))


def _case_summary(record: CaseRecord) -> dict:
    """What the optimum defines: every optimal point of the LP gives these
    values to 12 significant digits, whichever pivot path reached it."""
    doc: dict = {"status": record.solution.status}
    sol = record.dispatch
    if sol is not None:
        for name in ("net_benefit", "p_batt_max", "e_batt_max", "p_diesel_max", "diesel_energy"):
            doc[name] = _rounded(getattr(sol, name))
    if record.report is not None:
        doc["validation"] = {
            "passed": record.report["passed"],
            "tolerance": _rounded(record.report["tolerance"]),
        }
    return doc


def _case_solver(record: CaseRecord) -> dict:
    """What depends on the pivot path: where the solve started, the iteration
    counts, the rows the starting basis violates, the largest
    curtailment of the optimal point reached, and where and how far the
    dispatch misses each constraint family."""
    sol = record.solution
    doc: dict = {
        "start": record.start,
        "iterations": sol.iterations,
        "phase1_iterations": sol.phase1_iterations,
        "infeasible_rows": sol.infeasible_rows,
    }
    if record.dispatch is not None:
        doc["max_curtailed_kw"] = _rounded(np.max(record.dispatch.p_curt))
    if record.report is not None:
        doc.update(residuals=record.report["residuals"], worst_step=record.report["worst_step"])
    return doc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _weather_summary(config: RunConfig) -> dict:
    if config.weather_file is not None:
        return {"file": str(config.weather_file)}
    spec = config.weather_synth
    return {
        "synthetic": {
            "days": spec.days,
            "seed": spec.seed,
            "variability": _rounded(spec.variability),
        }
    }


def write_injection_csv(path: Path, records: list[CaseRecord]) -> None:
    """Wide per-step table of grid injection per case, for plotting."""
    written = [r for r in records if r.dispatch is not None]
    if not written:
        return
    first = written[0].dispatch
    _write_table(
        path,
        ["step", "p_pv"] + [f"p_grid_{r.label}" for r in written],
        first.steps,
        [first.p_pv] + [r.dispatch.p_grid for r in written],
    )


def cmd_run(config: RunConfig) -> int:
    pv = build_power_series(config)
    records: dict[str, CaseRecord] = {}
    # solved in A-D order, a case starts from the optimum of the last case it
    # extends (B and C from A, D from C), which is a feasible point of it
    for label in sorted(config.cases, key=RUN_CASES.index):
        extended = [
            records[lo] for lo, hi in NESTED_PAIRS
            if hi == label and lo in records and records[lo].solution.basis is not None
        ]
        records[label] = solve_case(label, config, pv, start=extended[-1] if extended else None)

    smoothing = [c for c in config.cases if c in CASE_IDS]
    baseline = records.get("baseline")
    if baseline is None and smoothing:
        # the comparison needs the unconstrained revenue even when the
        # baseline case was not requested
        baseline = solve_case("baseline", config, pv)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for label, record in records.items():
        if record.dispatch is not None:
            write_dispatch_csv(out / f"case_{label}_dispatch.csv", record.dispatch)

    summary = {
        "weather": _weather_summary(config),
        "battery": config.battery.name,
        "cases": {label: _case_summary(rec) for label, rec in records.items()},
    }

    for label, record in records.items():
        if record.report is None:
            print(f"case {label}: {record.solution.status}", file=sys.stderr)
        elif not record.report["passed"]:
            print(f"case {label}: validation failed", file=sys.stderr)
    exit_code = 0 if all(rec.ok for rec in records.values()) else 1

    # a comparison needs at least one solved case
    solved = {c: records[c].dispatch for c in smoothing if records[c].dispatch is not None}
    if solved and baseline.dispatch is not None:
        try:
            comparison = compare_cases(
                solved, baseline.dispatch, emission_charge=config.diesel.emission_charge_total
            )
        except ValueError as exc:
            print(f"comparison failed: {exc}", file=sys.stderr)
            exit_code = 1
        else:
            # the table is formatted from the raw values, and only then is
            # the document rounded to the 12 digits of the CSVs
            text = comparison_text(comparison)
            (out / "comparison.txt").write_text(text + "\n", encoding="utf-8")
            comparison["baseline_net_benefit"] = _rounded(comparison["baseline_net_benefit"])
            for case in comparison["cases"].values():
                for name, value in case.items():
                    case[name] = None if value is None else _rounded(value)
            _write_json(out / "comparison.json", comparison)
            summary["baseline_net_benefit"] = comparison["baseline_net_benefit"]

    write_injection_csv(out / "plot_injection.csv", [records[c] for c in config.cases])
    _write_json(out / "summary.json", summary)
    _write_json(
        out / "solver.json",
        {"cases": {label: _case_solver(rec) for label, rec in records.items()}},
    )
    return exit_code


def _percent_cell(value: float | None, scale: float = 1.0) -> str:
    """``scale * value`` to two decimals, unsigned where that rounds to zero,
    or n/a where a zero baseline leaves the ratio undefined."""
    # round gives -0.0 for a small negative value, and adding 0.0 drops the sign
    return "n/a" if value is None else f"{round(scale * value, 2) + 0.0:.2f}"


def comparison_text(comparison: dict) -> str:
    """The comparison document of :func:`compare_cases` as an aligned table,
    one column per case."""
    cases = comparison["cases"].values()
    rows = [
        ("Net benefit ($)", [f"{c['net_benefit']:.2f}" for c in cases]),
        ("Decrement vs baseline (%)",
         [_percent_cell(c["decrement_vs_baseline"], 100) for c in cases]),
        ("Battery power rating (kW)", [f"{c['battery_power_kw']:.1f}" for c in cases]),
        ("Battery energy rating (kWh)", [f"{c['battery_energy_kwh']:.1f}" for c in cases]),
        ("Diesel rating (kW)", [f"{c['diesel_power_kw']:.1f}" for c in cases]),
    ]
    label_w = max(len(label) for label, _ in rows)
    col_w = max(10, *(len(v) for _, vals in rows for v in vals))
    lines = [" " * label_w + "".join(f"{c:>{col_w + 2}}" for c in comparison["cases"])]
    for label, vals in rows:
        lines.append(f"{label:<{label_w}}" + "".join(f"{v:>{col_w + 2}}" for v in vals))
    return "\n".join(lines)


def cmd_battery_select(config: RunConfig) -> int:
    """Rank the battery candidates by the net benefit of their case A."""
    if len(config.battery_candidates) < 2:
        raise ConfigError("battery_candidates: ranking needs at least two specs")
    pv = build_power_series(config)
    baseline = solve_case("baseline", config, pv)
    if baseline.dispatch is None:
        print(f"baseline solve failed: {baseline.solution.status}", file=sys.stderr)
        return 1
    # every number is rounded like summary.json's, so the file and the
    # ranking depend on the optimum and not on the pivot path
    base_net = _rounded(baseline.dispatch.net_benefit)

    rows = []
    all_ok = baseline.ok
    record = None
    for battery in config.battery_candidates:
        # the candidates share case A's structure, so each starts from the
        # basis of the one before
        record = solve_case("A", config, pv, battery=battery, start=record)
        all_ok = all_ok and record.ok
        entry = {"battery": battery.name, "status": record.solution.status}
        if record.dispatch is not None:
            sol = record.dispatch
            net = _rounded(sol.net_benefit)
            pct = baseline_ratio(100.0 * (net - base_net), base_net)
            entry.update(
                net_benefit=net,
                imposed_cost_pct=None if pct is None else _rounded(pct),
                p_batt_max=_rounded(sol.p_batt_max),
                e_batt_max=_rounded(sol.e_batt_max),
            )
        rows.append(entry)

    # rank by net benefit, best first; ties keep candidate order and
    # failed solves sink to the bottom
    ranked = sorted(
        rows,
        key=lambda e: (0, -e["net_benefit"]) if "net_benefit" in e else (1, 0.0),
    )
    doc = {"baseline_net_benefit": base_net, "ranking": ranked}

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "battery_select.json", doc)

    name_w = max(12, *(len(e["battery"]) for e in ranked))
    lines = [
        f"{'Battery':<{name_w}}{'Net benefit ($)':>18}{'Imposed cost (%)':>18}"
        f"{'Power (kW)':>14}{'Energy (kWh)':>14}"
    ]
    for e in ranked:
        if "net_benefit" in e:
            lines.append(
                f"{e['battery']:<{name_w}}{e['net_benefit']:>18.2f}"
                f"{_percent_cell(e['imposed_cost_pct']):>18}{e['p_batt_max']:>14.1f}"
                f"{e['e_batt_max']:>14.1f}"
            )
        else:
            lines.append(f"{e['battery']:<{name_w}}{e['status']:>18}")
    (out / "battery_select.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0 if all_ok else 1


def cmd_export_mps(config: RunConfig, label: str) -> int:
    pv = build_power_series(config)
    form, _, _ = _formulate(label, config, pv, config.battery)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    path = config.output_dir / f"case_{label}.mps"
    write_mps(form.problem, path)
    print(path)
    return 0


def cmd_validate(config: RunConfig, csv_path: Path) -> int:
    pv = build_power_series(config)
    data = read_dispatch_csv(csv_path)
    steps = data["steps"]
    if np.any(steps < 0) or np.any(steps >= len(pv.values)):
        raise ConfigError(
            f"{csv_path}: step indices must lie in [0, {len(pv.values) - 1}]"
        )
    # sizing is not part of the CSV; validate against the smallest ratings
    # consistent with the series themselves
    sol = DispatchSolution(
        steps=steps,
        p_pv=data["p_pv"],
        p_grid=data["p_grid"],
        p_batt=data["p_batt"],
        e_batt=data["e_batt"],
        p_curt=data["p_curt"],
        p_diesel=data["p_diesel"],
        p_batt_max=float(np.max(np.abs(data["p_batt"]))),
        e_batt_max=float(np.max(data["e_batt"])),
        p_diesel_max=float(np.max(data["p_diesel"])),
        net_benefit=0.0,
        diesel_energy=float(pv.step_hours * np.sum(data["p_diesel"])),
    )
    # run names each dispatch file for its case, and the baseline's is
    # checked without the fluctuation band that the baseline drops
    label = csv_path.name.removeprefix("case_").removesuffix("_dispatch.csv")
    report = check_dispatch(
        sol, pv, _case_constraints(label, config), config.battery, config.diesel
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvsmooth",
        description="Sizing and dispatch optimizer for smoothed PV grid injection",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", type=Path, help="path to a JSON run configuration")
    common.add_argument("--output-dir", type=Path, default=None,
                        help="override the configured output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common],
                   help="solve the selected cases and write reports")
    sub.add_parser("battery-select", parents=[common],
                   help="rank battery candidates by net benefit")
    export = sub.add_parser("export-mps", parents=[common],
                            help="write one case as a fixed-format MPS file")
    export.add_argument("--case", required=True, choices=RUN_CASES)
    validate = sub.add_parser("validate", parents=[common],
                              help="re-check a dispatch CSV against a config")
    validate.add_argument("dispatch", type=Path, help="dispatch CSV to check")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("PVSMOOTH_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _parser().parse_args(argv)
    try:
        config = load_run_config(args.config)
        if args.output_dir is not None:
            config = replace(config, output_dir=args.output_dir)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "battery-select":
            return cmd_battery_select(config)
        if args.command == "export-mps":
            return cmd_export_mps(config, args.case)
        if args.command == "validate":
            return cmd_validate(config, args.dispatch)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolveStatusError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (PvSmoothError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
