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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config
from .economics import BatterySpec, DieselSpec
from .errors import ConfigError, PvSmoothError, SolveStatusError
from .formulation import (
    CaseFormulation,
    ConstraintConfig,
    DispatchSolution,
    build_case,
    extract_solution,
)
from .lp import solve, write_mps
from .pvmodel import PowerSeries, pv_power
from .validation import ValidationReport, check_dispatch, compare_cases
from .weather import filter_low_irradiance, load_weather, synth_weather

log = logging.getLogger("pvsmooth")

SMOOTHING_CASES = ("A", "B", "C", "D")

DISPATCH_COLUMNS = ("step", "p_pv", "p_grid", "p_batt", "e_batt", "p_curt", "p_diesel")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _rounded(x: float) -> float:
    """``x`` rounded to the 12 significant digits the CSVs carry."""
    return float(_fmt(x))


@dataclass
class CaseRecord:
    label: str  # A/B/C/D/baseline
    status: str
    iterations: int
    phase1_iterations: int
    artificials: int
    dispatch: DispatchSolution | None
    report: ValidationReport | None

    @property
    def ok(self) -> bool:
        return self.status == "optimal" and self.report is not None and self.report.passed


def build_power_series(config: RunConfig, seed_override: int | None) -> PowerSeries:
    if config.weather_file is not None:
        if seed_override is not None:
            raise ConfigError("--seed only applies to synthetic weather")
        weather = load_weather(config.weather_file)
    else:
        spec = config.weather_synth
        seed = spec.seed if seed_override is None else seed_override
        weather = synth_weather(spec.days, seed, spec.variability)
    weather = filter_low_irradiance(weather)
    return pv_power(weather, config.plant)


def _formulate(
    label: str, config: RunConfig, pv: PowerSeries, battery: BatterySpec
) -> tuple[CaseFormulation, ConstraintConfig, DieselSpec | None]:
    """The LP of case ``label`` with the constraints and diesel it was built from.

    The baseline is case A with the fluctuation band removed.
    """
    case_id, cfg = label, config.constraints
    if label == "baseline":
        case_id, cfg = "A", replace(cfg, fluctuation_limit=math.inf)
    diesel = config.diesel if case_id in ("C", "D") else None
    return build_case(case_id, pv, battery, config.econ, cfg, diesel=diesel), cfg, diesel


def solve_case(
    label: str, config: RunConfig, pv: PowerSeries, battery: BatterySpec | None = None
) -> CaseRecord:
    battery = battery if battery is not None else config.battery
    form, cfg, diesel = _formulate(label, config, pv, battery)
    solution = solve(form.problem, config.solver)
    log.info(
        "case %s: %s after %d iterations (%d in phase 1, %d artificials)",
        label, solution.status, solution.iterations,
        solution.phase1_iterations, solution.artificials,
    )
    dispatch = report = None
    if solution.status == "optimal":
        dispatch = extract_solution(form, solution)
        report = check_dispatch(dispatch, pv, cfg, battery, diesel)
    return CaseRecord(
        label, solution.status, solution.iterations, solution.phase1_iterations,
        solution.artificials, dispatch, report,
    )


def write_dispatch_csv(path: Path, sol: DispatchSolution) -> None:
    n = len(sol.steps)
    p_curt = sol.p_curt if len(sol.p_curt) else np.zeros(n)
    p_diesel = sol.p_diesel if len(sol.p_diesel) else np.zeros(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DISPATCH_COLUMNS)
        for k in range(n):
            writer.writerow(
                [int(sol.steps[k])]
                + [
                    _fmt(v)
                    for v in (
                        sol.p_pv[k], sol.p_grid[k], sol.p_batt[k],
                        sol.e_batt[k], p_curt[k], p_diesel[k],
                    )
                ]
            )


def read_dispatch_csv(path: Path) -> dict:
    if not Path(path).exists():
        raise ConfigError(f"dispatch file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != DISPATCH_COLUMNS:
            raise ConfigError(
                f"{path}: expected header {','.join(DISPATCH_COLUMNS)}"
            )
        rows = [row for row in reader if row]
    if not rows:
        raise ConfigError(f"{path}: no dispatch rows")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric value: {exc}") from None
    return {
        "steps": data[:, 0].astype(int),
        "p_pv": data[:, 1],
        "p_grid": data[:, 2],
        "p_batt": data[:, 3],
        "e_batt": data[:, 4],
        "p_curt": data[:, 5],
        "p_diesel": data[:, 6],
    }


def _case_summary(record: CaseRecord) -> dict:
    """What the optimum defines: every optimal point of the LP gives these
    values to 12 significant digits, whichever pivot path reached it."""
    doc: dict = {"status": record.status}
    sol = record.dispatch
    if sol is not None:
        for name in ("net_benefit", "p_batt_max", "e_batt_max", "p_diesel_max", "diesel_energy"):
            doc[name] = _rounded(getattr(sol, name))
    if record.report is not None:
        doc["validation"] = {
            "passed": bool(record.report.passed),
            "tolerance": _rounded(record.report.tolerance),
        }
    return doc


def _case_solver(record: CaseRecord) -> dict:
    """What depends on the pivot path: the iteration counts, the artificial
    columns of the starting basis, and where and how far the dispatch misses
    each constraint family."""
    doc: dict = {
        "iterations": record.iterations,
        "phase1_iterations": record.phase1_iterations,
        "artificials": record.artificials,
    }
    if record.report is not None:
        report = record.report.as_dict()
        doc.update(residuals=report["residuals"], worst_step=report["worst_step"])
    return doc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _weather_summary(config: RunConfig, seed_override: int | None) -> dict:
    if config.weather_file is not None:
        return {"file": str(config.weather_file)}
    spec = config.weather_synth
    return {
        "synthetic": {
            "days": spec.days,
            "seed": spec.seed if seed_override is None else seed_override,
            "variability": _rounded(spec.variability),
        }
    }


def write_injection_csv(path: Path, records: list[CaseRecord]) -> None:
    """Wide per-step table of grid injection per case, for plotting."""
    written = [r for r in records if r.dispatch is not None]
    if not written:
        return
    first = written[0].dispatch
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "p_pv"] + [f"p_grid_{r.label}" for r in written])
        for k in range(len(first.steps)):
            row = [int(first.steps[k]), _fmt(first.p_pv[k])]
            row += [_fmt(r.dispatch.p_grid[k]) for r in written]
            writer.writerow(row)


def cmd_run(config: RunConfig, seed_override: int | None) -> int:
    pv = build_power_series(config, seed_override)
    selected = [c for c in config.cases if c in SMOOTHING_CASES or c == "baseline"]
    records = {label: solve_case(label, config, pv) for label in selected}

    smoothing = [c for c in selected if c in SMOOTHING_CASES]
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
        "weather": _weather_summary(config, seed_override),
        "battery": config.battery.name,
        "cases": {label: _case_summary(rec) for label, rec in records.items()},
    }

    exit_code = 0 if all(rec.ok for rec in records.values()) else 1

    if smoothing and baseline is not None and baseline.dispatch is not None:
        solved = {
            c: records[c].dispatch for c in smoothing if records[c].dispatch is not None
        }
        try:
            comparison = compare_cases(
                solved, baseline.dispatch, emission_charge=config.diesel.emission_charge_total
            )
        except ValueError as exc:
            print(f"comparison failed: {exc}", file=sys.stderr)
            exit_code = 1
        else:
            _write_json(out / "comparison.json", comparison.as_dict())
            (out / "comparison.txt").write_text(comparison.as_text() + "\n")
            summary["baseline_net_benefit"] = _rounded(comparison.baseline_net_benefit)

    write_injection_csv(
        out / "plot_injection.csv",
        [records[c] for c in selected],
    )
    _write_json(out / "summary.json", summary)
    _write_json(
        out / "solver.json",
        {"cases": {label: _case_solver(rec) for label, rec in records.items()}},
    )

    if "battery-select" in config.cases:
        code = cmd_battery_select(config, seed_override, pv=pv, baseline=baseline)
        exit_code = exit_code or code
    return exit_code


def cmd_battery_select(
    config: RunConfig,
    seed_override: int | None,
    pv: PowerSeries | None = None,
    baseline: CaseRecord | None = None,
) -> int:
    """Rank the battery candidates; ``run`` passes the baseline it already solved."""
    if len(config.battery_candidates) < 2:
        raise ConfigError("battery_candidates: ranking needs at least two specs")
    if pv is None:
        pv = build_power_series(config, seed_override)
    if baseline is None:
        baseline = solve_case("baseline", config, pv)
    if baseline.dispatch is None:
        print(f"baseline solve failed: {baseline.status}", file=sys.stderr)
        return 1
    # every number is rounded like summary.json's, so the file and the
    # ranking depend on the optimum and not on the pivot path
    base_net = _rounded(baseline.dispatch.net_benefit)

    rows = []
    all_ok = baseline.ok
    for battery in config.battery_candidates:
        record = solve_case("A", config, pv, battery=battery)
        all_ok = all_ok and record.ok
        entry = {"battery": battery.name, "status": record.status}
        if record.dispatch is not None:
            sol = record.dispatch
            net = _rounded(sol.net_benefit)
            entry.update(
                net_benefit=net,
                imposed_cost_pct=_rounded(100.0 * (net - base_net) / abs(base_net)),
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

    lines = [
        f"{'Battery':<12}{'Net benefit ($)':>18}{'Imposed cost (%)':>18}"
        f"{'Power (kW)':>14}{'Energy (kWh)':>14}"
    ]
    for e in ranked:
        if "net_benefit" in e:
            lines.append(
                f"{e['battery']:<12}{e['net_benefit']:>18.2f}"
                f"{e['imposed_cost_pct']:>18.2f}{e['p_batt_max']:>14.1f}"
                f"{e['e_batt_max']:>14.1f}"
            )
        else:
            lines.append(f"{e['battery']:<12}{e['status']:>18}")
    (out / "battery_select.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if all_ok else 1


def cmd_export_mps(config: RunConfig, seed_override: int | None, label: str) -> int:
    pv = build_power_series(config, seed_override)
    form, _, _ = _formulate(label, config, pv, config.battery)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    path = config.output_dir / f"case_{label}.mps"
    write_mps(form.problem, path)
    print(path)
    return 0


def cmd_validate(config: RunConfig, seed_override: int | None, csv_path: Path) -> int:
    pv = build_power_series(config, seed_override)
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
    report = check_dispatch(
        sol, pv, config.constraints, config.battery, config.diesel
    )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvsmooth",
        description="Sizing and dispatch optimizer for smoothed PV grid injection",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", type=Path, help="path to a JSON run configuration")
    common.add_argument("--seed", type=int, default=None,
                        help="override the synthetic weather seed")
    common.add_argument("--output-dir", type=Path, default=None,
                        help="override the configured output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common],
                   help="solve the selected cases and write reports")
    sub.add_parser("battery-select", parents=[common],
                   help="rank battery candidates by net benefit")
    export = sub.add_parser("export-mps", parents=[common],
                            help="write one case as a fixed-format MPS file")
    export.add_argument("--case", required=True,
                        choices=list(SMOOTHING_CASES) + ["baseline"])
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
            return cmd_run(config, args.seed)
        if args.command == "battery-select":
            return cmd_battery_select(config, args.seed)
        if args.command == "export-mps":
            return cmd_export_mps(config, args.seed, args.case)
        if args.command == "validate":
            return cmd_validate(config, args.seed, args.dispatch)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolveStatusError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except PvSmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
