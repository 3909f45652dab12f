"""Layer map: which pvsmooth functions are traced, and the per-layer metrics.

Every wrap point is the module attribute the caller looks up, so the
program's own call sites go through the tracer unchanged. Times are self
times: a span's duration minus what its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics

import numpy as np

#: labels of the LPs the workloads solve: the cases, then the bundled batteries
LP_LABELS = ("A", "B", "C", "D", "baseline", "Lead-Acid", "NaS", "Li-ion", "Ni-Cd")

#: (module, attribute, span name) for every traced function
WRAP_POINTS = (
    ("pvsmooth.cli", "load_run_config", "config.load"),
    ("pvsmooth.cli", "load_weather", "weather.load"),
    ("pvsmooth.cli", "synth_weather", "weather.synth"),
    ("pvsmooth.cli", "filter_low_irradiance", "weather.filter"),
    ("pvsmooth.cli", "pv_power", "pvmodel.pv_power"),
    ("pvsmooth.cli", "solve_case", "cli.solve_case"),
    ("pvsmooth.cli", "build_case", "formulation.build"),
    ("pvsmooth.cli", "extract_solution", "formulation.extract"),
    ("pvsmooth.formulation", "build_problem", "lp.problem.build"),
    ("pvsmooth.lp.mps", "build_problem", "lp.problem.build"),
    ("pvsmooth.lp.simplex", "evaluate_residuals", "lp.problem.residuals"),
    ("pvsmooth.cli", "solve", "lp.simplex.solve"),
    ("pvsmooth.cli", "write_mps", "lp.mps.write"),
    ("pvsmooth.lp.mps", "render_mps", "lp.mps.render"),
    ("pvsmooth.lp.mps", "read_mps", "lp.mps.read"),
    ("pvsmooth.lp.mps", "parse_mps", "lp.mps.parse"),
    ("pvsmooth.cli", "check_dispatch", "validation.check"),
    ("pvsmooth.cli", "compare_cases", "validation.compare"),
)

#: per-layer time metric -> the spans whose self times it sums
SELF_TIME_METRICS = {
    "config.load_s": ("config.load",),
    "weather.load_s": ("weather.load", "weather.synth", "weather.filter"),
    "pvmodel.pv_power_s": ("pvmodel.pv_power",),
    "formulation.build_s": ("formulation.build",),
    "formulation.extract_s": ("formulation.extract",),
    "lp.problem.build_s": ("lp.problem.build",),
    "lp.problem.residuals_s": ("lp.problem.residuals",),
    "lp.simplex.solve_s": ("lp.simplex.solve",),
    "lp.mps.render_s": ("lp.mps.render", "lp.mps.write"),
    "lp.mps.parse_s": ("lp.mps.parse", "lp.mps.read"),
    "validation.check_s": ("validation.check",),
    "validation.compare_s": ("validation.compare",),
}

COUNT_METRICS = (
    "weather.samples",
    "weather.retained",
    "formulation.builds",
    "lp.problem.rows",
    "lp.problem.cols",
    "lp.problem.nnz",
    "lp.simplex.solves",
    "lp.simplex.iterations",
    "lp.simplex.not_optimal",
    "lp.mps.bytes",
    "cli.artifact_bytes",
)

UNITS = {"lp.simplex.us_per_iter": "us", "lp.simplex.highs_ratio": "ratio"}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order the benchmark prints them."""
    names = list(SELF_TIME_METRICS) + list(COUNT_METRICS)
    names += ["lp.simplex.us_per_iter", "lp.simplex.highs_ratio", "cli.self_s", "trace.overhead_s"]
    for label in LP_LABELS:
        names += [
            f"lp.simplex.solve_s.{label}",
            f"lp.simplex.iterations.{label}",
            f"lp.simplex.highs_ratio.{label}",
        ]
    return names


def unit_of(name: str) -> str:
    base = name
    for label in LP_LABELS:
        base = base.removesuffix(f".{label}")
    if base in COUNT_METRICS:
        return "bytes" if base.endswith("bytes") else "count"
    return UNITS.get(base, "s")


def install(tracer, solves: list) -> None:
    """Wrap every layer's public functions; solved LPs are appended to ``solves``."""

    def label_of(args, kwargs):
        # solve_case(label, config, pv, battery=None): battery-select labels
        # its case-A solves by battery name
        battery = kwargs.get("battery", args[3] if len(args) > 3 else None)
        return {"label": battery.name if battery is not None else args[0]}

    def solve_label(args, kwargs):
        label = tracer.ancestor_attr("label")
        solves.append({"problem": args[0], "label": label})
        return {"label": label}

    def solved(args, kwargs, result):
        # solves do not nest, so the last entry is this call's
        solves[-1]["objective"] = result.objective_value
        return {"iterations": result.iterations, "status": result.status}

    def problem_size(args, kwargs, result):
        return {"rows": result.n_rows, "cols": result.n_vars,
                "nnz": int(sum(len(r.cols) for r in result.rows))}

    hooks = {
        "weather.load": (None, lambda a, k, r: {"samples": len(r)}),
        "weather.synth": (None, lambda a, k, r: {"samples": len(r)}),
        "weather.filter": (None, lambda a, k, r: {"retained": int(np.count_nonzero(r.active))}),
        "cli.solve_case": (label_of, None),
        "lp.problem.build": (None, problem_size),
        "lp.simplex.solve": (solve_label, solved),
        "lp.mps.render": (None, lambda a, k, r: {"bytes": len(r)}),
    }
    for module_name, attr, name in WRAP_POINTS:
        enter, describe = hooks.get(name, (None, None))
        tracer.wrap(importlib.import_module(module_name), attr, name, enter, describe)


def layer_metrics(
    records: list[dict],
    highs: list[dict],
    wall_s: float,
    untraced_wall_s: float,
    artifact_bytes: int,
) -> dict:
    """Per-layer values for one traced rep.

    ``records`` are span records (with ``self_s``), ``highs`` one entry per
    solve with ``label`` and HiGHS ``seconds``, ``wall_s`` the traced wall and
    ``untraced_wall_s`` the wall of an untraced rep of the same workload.
    Per-LP metrics of labels the workload does not solve read 0.
    """
    out: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    for r in records:
        self_by_name[r["name"]] = self_by_name.get(r["name"], 0.0) + r["self_s"]
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_by_name.get(n, 0.0) for n in names)

    def attr_sum(span_name: str, key: str) -> int:
        return int(sum(r["attrs"].get(key, 0) for r in records if r["name"] == span_name))

    solves = [r for r in records if r["name"] == "lp.simplex.solve"]
    out["weather.samples"] = attr_sum("weather.load", "samples") + attr_sum("weather.synth", "samples")
    out["weather.retained"] = attr_sum("weather.filter", "retained")
    out["formulation.builds"] = sum(r["name"] == "formulation.build" for r in records)
    for key in ("rows", "cols", "nnz"):
        out[f"lp.problem.{key}"] = attr_sum("lp.problem.build", key)
    out["lp.simplex.solves"] = len(solves)
    out["lp.simplex.iterations"] = attr_sum("lp.simplex.solve", "iterations")
    out["lp.simplex.not_optimal"] = sum(r["attrs"].get("status") != "optimal" for r in solves)
    out["lp.mps.bytes"] = attr_sum("lp.mps.render", "bytes")

    iters = out["lp.simplex.iterations"]
    out["lp.simplex.us_per_iter"] = 1e6 * out["lp.simplex.solve_s"] / iters if iters else 0.0
    highs_total = sum(h["seconds"] for h in highs)
    out["lp.simplex.highs_ratio"] = out["lp.simplex.solve_s"] / highs_total if highs_total else 0.0
    out["cli.self_s"] = wall_s - sum(
        t for name, t in self_by_name.items() if not name.startswith("cli.")
    )
    out["cli.artifact_bytes"] = artifact_bytes
    out["trace.overhead_s"] = wall_s - untraced_wall_s

    for label in LP_LABELS:
        ours = [r for r in solves if r["attrs"].get("label") == label]
        ref = sum(h["seconds"] for h in highs if h["label"] == label)
        t = sum(r["self_s"] for r in ours)
        out[f"lp.simplex.solve_s.{label}"] = t
        out[f"lp.simplex.iterations.{label}"] = int(sum(r["attrs"]["iterations"] for r in ours))
        out[f"lp.simplex.highs_ratio.{label}"] = t / ref if ref else 0.0
    unknown = {r["attrs"].get("label") for r in solves} - set(LP_LABELS)
    if unknown:
        raise ValueError(f"solves with unexpected labels {sorted(map(str, unknown))}")
    return {name: out[name] for name in per_layer_names()}


def median_metrics(samples: list[dict]) -> dict:
    """Each metric's lower median over traced reps, so a count stays a count."""
    return {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}
