"""The benchmark's workloads: their inputs, the command they time, their checks.

Each workload writes its inputs (a run config and, for the year-long export,
a weather CSV) from the benchmark seed, runs one pvsmooth command in-process
through ``pvsmooth.cli.main``, and checks what the command wrote. The program
sees only the generated files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SMOOTHING_CASES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # pvsmooth subcommand
    days: int
    variability: float
    why: str
    extra_argv: tuple[str, ...] = ()
    #: distinct traces per run, each rep running one of them in turn; more
    #: than one where the work depends on the trace more than on machine noise
    traces: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run_default_3d",
            command="run",
            days=3,
            variability=0.8,
            why="the default run: cases A-D plus baseline on a 3-day trace, "
            "almost all of it in the dense-LU simplex",
        ),
        Workload(
            name="battery_select_2d",
            command="battery-select",
            days=2,
            variability=1.0,
            why="five solves of one LP structure that differ only in costs, "
            "where reuse across solves would show",
            traces=4,
        ),
        Workload(
            name="mps_roundtrip_365d",
            command="export-mps",
            days=365,
            variability=0.8,
            why="year-long CSV ingestion, LP build and MPS write, read and "
            "re-render, with no solve",
            extra_argv=("--case", "D"),
        ),
    )
}

WEATHER_STEP_MINUTES = 10


def weather_csv_text(days: int, seed: int, variability: float) -> str:
    """A seeded ``timestamp,irradiance_wm2,temp_c`` trace at 10-minute steps.

    Half-sine clear-sky days between 06:00 and 18:00 with a seasonal peak,
    seeded cloud occlusions that cut irradiance at onset and clear linearly,
    and a daily temperature swing with seeded noise.
    """
    rng = np.random.default_rng(seed)
    per_day = 24 * 60 // WEATHER_STEP_MINUTES
    n = days * per_day
    k = np.arange(n)
    hour = (k % per_day) * (WEATHER_STEP_MINUTES / 60.0)
    day = k // per_day
    season = 0.85 + 0.15 * np.cos(2.0 * np.pi * (day - 172) / 365.0)
    envelope = np.where(
        (hour >= 6.0) & (hour <= 18.0), np.sin(np.pi * (hour - 6.0) / 12.0), 0.0
    )
    irradiance = 1000.0 * season * np.clip(envelope, 0.0, None)

    factor = np.ones(n)
    n_events = int(rng.poisson(6.0 * variability * days))
    onsets = rng.integers(0, n, size=n_events)
    durations = rng.integers(2, 13, size=n_events)
    clears = rng.integers(1, 5, size=n_events)
    depths = variability * rng.uniform(0.55, 0.95, size=n_events)
    for onset, duration, clear, depth in zip(onsets, durations, clears, depths):
        shade = np.concatenate(
            [
                np.full(duration, 1.0 - depth),
                1.0 - depth + depth * np.arange(1, clear + 1) / (clear + 1),
            ]
        )
        stop = min(onset + len(shade), n)
        factor[onset:stop] = np.minimum(factor[onset:stop], shade[: stop - onset])
    irradiance *= factor
    temp = 16.0 + 9.0 * np.sin(2.0 * np.pi * (hour - 9.0) / 24.0)
    temp += rng.normal(0.0, 0.4, size=n)

    stamps = np.datetime64("2021-01-01T00:00") + k * np.timedelta64(WEATHER_STEP_MINUTES, "m")
    stamps = np.datetime_as_string(stamps, unit="s")
    lines = ["timestamp,irradiance_wm2,temp_c"]
    lines += [f"{t},{g:.2f},{c:.2f}" for t, g, c in zip(stamps, irradiance, temp)]
    return "\n".join(lines) + "\n"


def trace_seeds(workload: Workload, seed: int) -> list[int]:
    """The weather seeds of one run: the benchmark seed, then seed + 1000 k."""
    return [seed + 1000 * k for k in range(workload.traces)]


def prepare(workload: Workload, workdir: Path, seed: int) -> dict:
    """Write the workload's inputs under ``workdir``; return the run spec.

    The spec holds one input (config path and CLI arguments) per trace.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for k, trace_seed in enumerate(trace_seeds(workload, seed)):
        config: dict = {"output_dir": "out"}
        if workload.command == "export-mps":
            csv = workdir / f"weather{k}.csv"
            csv.write_text(weather_csv_text(workload.days, trace_seed, workload.variability))
            config["weather"] = {"file": csv.name}
        else:
            # seed 7 with these settings is the program's own default trace
            config["weather"] = {
                "synthetic": {
                    "days": workload.days, "seed": trace_seed, "variability": workload.variability
                }
            }
        config_path = workdir / f"config{k}.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        inputs.append(
            {
                "seed": trace_seed,
                "config": str(config_path),
                "argv": [workload.command, str(config_path), *workload.extra_argv],
            }
        )
    return {"workload": workload.name, "seed": seed, "inputs": inputs}


def build_lps(workload: Workload, config_path: Path):
    """Build every LP the workload's command builds, without solving.

    Returns ``(weather, power_series, [(label, CaseFormulation), ...])``,
    using only pvsmooth's public functions.
    """
    from pvsmooth import (
        build_case,
        filter_low_irradiance,
        load_run_config,
        load_weather,
        pv_power,
        synth_weather,
    )

    config = load_run_config(config_path)
    if config.weather_file is not None:
        weather = load_weather(config.weather_file)
    else:
        spec = config.weather_synth
        weather = synth_weather(spec.days, spec.seed, spec.variability)
    weather = filter_low_irradiance(weather)
    pv = pv_power(weather, config.plant)

    def form(case_id: str, battery, unconstrained: bool = False):
        cfg = config.constraints
        if unconstrained:
            cfg = replace(cfg, fluctuation_limit=math.inf)
        diesel = config.diesel if case_id in ("C", "D") else None
        return build_case(case_id, pv, battery, config.econ, cfg, diesel=diesel)

    if workload.command == "run":
        forms = [(c, form(c, config.battery)) for c in config.cases if c in SMOOTHING_CASES]
        forms.append(("baseline", form("A", config.battery, unconstrained=True)))
    elif workload.command == "battery-select":
        forms = [("baseline", form("A", config.battery, unconstrained=True))]
        forms += [(b.name, form("A", b)) for b in config.battery_candidates]
    else:
        forms = [("D", form("D", config.battery))]
    return weather, pv, forms


def fingerprint(workload: Workload, inp: dict) -> dict:
    """What one input feeds the program: trace size and every LP's shape."""
    weather, pv, forms = build_lps(workload, Path(inp["config"]))
    return {
        "seed": inp["seed"],
        "days": workload.days,
        "variability": workload.variability,
        "samples": len(weather),
        "retained_steps": int(np.count_nonzero(pv.active)),
        "lps": {
            label: {
                "rows": f.problem.n_rows,
                "cols": f.problem.n_vars,
                "nnz": int(sum(len(r.cols) for r in f.problem.rows)),
            }
            for label, f in forms
        },
    }


def run_command(inp: dict, out_dir: Path) -> dict:
    """The timed region: one pvsmooth command, plus the MPS round trip."""
    import pvsmooth.cli
    import pvsmooth.lp.mps

    code = pvsmooth.cli.main([*inp["argv"], "--output-dir", str(out_dir)])
    outcome: dict = {"exit_code": code}
    if inp["argv"][0] == "export-mps" and code == 0:
        path = out_dir / "case_D.mps"
        # looked up on the module at call time so a traced rep sees its spans
        problem = pvsmooth.lp.mps.read_mps(path)
        outcome["rendered"] = pvsmooth.lp.mps.render_mps(problem)
        outcome["parsed_shape"] = (problem.n_rows, problem.n_vars)
    return outcome


def digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes, and their total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


def _op(name: str, ok: bool, why: str = "") -> dict:
    return {"op": name, "ok": bool(ok), "why": "" if ok else why}


def check_outcome(inp: dict, out_dir: Path, outcome: dict) -> list[dict]:
    """One entry per attempted operation: the command, then each LP or step.

    ``inp`` is one input of the run spec, with its ``fingerprint``.
    """
    code = outcome["exit_code"]
    command = inp["argv"][0]
    fp = inp["fingerprint"]
    ops = [_op("command", code == 0, f"exit code {code}")]
    if command == "run":
        summary = _read_json(out_dir / "summary.json")
        cases = (summary or {}).get("cases", {})
        for label in fp["lps"]:
            case = cases.get(label, {})
            ok = case.get("status") == "optimal" and case.get("validation", {}).get("passed") is True
            ops.append(_op(label, ok, f"status {case.get('status')!r}, validation not passed"))
    elif command == "battery-select":
        # battery_select.json has no validation block; the exit code covers it
        doc = _read_json(out_dir / "battery_select.json") or {}
        base = doc.get("baseline_net_benefit")
        ops.append(
            _op("baseline", isinstance(base, (int, float)) and math.isfinite(base),
                "no baseline benefit")
        )
        ranking = {e.get("battery"): e for e in doc.get("ranking", [])}
        for label in fp["lps"]:
            if label == "baseline":
                continue
            entry = ranking.get(label, {})
            ok = entry.get("status") == "optimal" and "net_benefit" in entry
            ops.append(_op(label, ok, f"status {entry.get('status')!r}"))
    else:
        path = out_dir / "case_D.mps"
        text = path.read_text(encoding="ascii") if path.is_file() else None
        lp = fp["lps"]["D"]
        expected = (lp["rows"], lp["cols"])
        shape = outcome.get("parsed_shape")
        ok = text is not None and outcome.get("rendered") == text and shape == tuple(expected)
        ops.append(_op("roundtrip", ok, f"re-render differs or shape {shape} != {expected}"))
    return ops


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
