"""pvsmooth benchmark: three CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload run_default_3d --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the repository root. Each rep is a fresh process that runs one
pvsmooth command in-process and checks its outputs (closed loop: one caller,
the next rep starts when the last has ended). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced rep. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 8  # fresh interpreters per run for setup_s, after one warm-up
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_program():
    """Import pvsmooth from this checkout's ``src/`` and nowhere else."""
    cli = ROOT / "src" / "pvsmooth" / "cli.py"
    if not cli.is_file():
        raise BenchmarkError(f"no pvsmooth sources at {cli.parent}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import pvsmooth

    if Path(pvsmooth.__file__).resolve().parent != cli.parent.resolve():
        raise BenchmarkError(f"imported pvsmooth from {pvsmooth.__file__}, not {cli.parent}")


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded, by library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS so its threads show

    def blas_name(module) -> str:
        dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas_name(numpy), "scipy": blas_name(scipy)},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _spawn(args: list[str], stdout=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def measure_setup(config: str) -> float:
    t0 = time.monotonic()
    proc = _spawn(["setup", config], stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def run_rep(spec_path: Path, workdir: Path, index: int, k: int, traced: bool) -> dict:
    out = workdir / f"rep{k}{'-traced' if traced else ''}"
    result_path = workdir / f"{out.name}.json"
    args = ["rep", str(spec_path), str(index), str(out), str(result_path)]
    proc = _spawn(args + (["--trace"] if traced else []))
    if proc.returncode != 0 or not result_path.is_file():
        # the program crashed inside the rep: one failed command, no timing
        tail = proc.stderr.strip().splitlines()[-3:]
        result = {"ops": [{"op": "command", "ok": False, "why": " | ".join(tail)}], "crashed": True}
    else:
        result = json.loads(result_path.read_text())
    shutil.rmtree(out, ignore_errors=True)
    result["input"] = index
    return result


def _mark_digests(reps: list[dict]) -> None:
    """Artifacts must be byte-identical across the reps of one input."""
    first: dict[int, str] = {}
    for r in reps:
        if "digest" not in r:
            continue
        if first.setdefault(r["input"], r["digest"]) != r["digest"]:
            for op in r["ops"]:
                if op["op"] == "command":
                    op.update(ok=False, why="artifact digest differs from the first rep")


def _mark_highs(rep: dict) -> None:
    """An LP whose objective misses HiGHS fails that LP's operation."""
    for row in rep.get("highs", []):
        if not row["agrees"]:
            for op in rep["ops"]:
                if op["op"] == row["label"]:
                    op.update(ok=False, why=f"objective off HiGHS by {row['rel_gap']:.3g}")


def end_to_end_metrics(timed: list[dict], setups: list[float]) -> dict:
    """Medians over a run's untraced reps and set-up probes."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        spec = workloads.prepare(workload, workdir, seed)
        for inp in spec["inputs"]:
            inp["fingerprint"] = workloads.fingerprint(workload, inp)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        config = spec["inputs"][0]["config"]

        # set-up probes straddle the reps, half before and half after, so a
        # burst of load on the machine skews fewer of them
        setups: list[float] = []
        if not trace:
            measure_setup(config)  # warm-up, not counted
            setups = [measure_setup(config) for _ in range(SETUP_PROBES // 2)]

        # one cycle runs every input once (an untraced and a traced rep each
        # when tracing); cycles repeat while the next one fits the window
        reps: list[dict] = []
        layer_samples: list[dict] = []
        start = time.monotonic()
        while True:
            cycle_start = time.monotonic()
            for index in range(len(spec["inputs"])):
                plain = run_rep(spec_path, workdir, index, len(reps), traced=False)
                reps.append(plain)
                if not trace:
                    continue
                traced = run_rep(spec_path, workdir, index, len(reps), traced=True)
                _mark_highs(traced)
                reps.append(traced)
                if not (plain.get("crashed") or traced.get("crashed")):
                    layer_samples.append(
                        layers.layer_metrics(
                            traced["spans"], traced["highs"], traced["wall_s"],
                            plain["wall_s"], traced["artifact_bytes"],
                        )
                    )
            now = time.monotonic()
            if now - start + (now - cycle_start) > seconds:
                break
        if not trace:
            setups += [measure_setup(config) for _ in range(SETUP_PROBES - len(setups))]
        _mark_digests(reps)

        ops = [op for r in reps for op in r["ops"]]
        failed = [op for op in ops if not op["ok"]]
        timed = [r for r in reps if not r.get("crashed") and "spans" not in r]
        if trace:
            metrics = layers.median_metrics(layer_samples) if layer_samples else {}
            units = {m: layers.unit_of(m) for m in metrics}
        else:
            metrics = end_to_end_metrics(timed, setups) if timed else {}
            units = END_TO_END_UNITS
        if workload.command == "export-mps":
            for r in timed:
                spec["inputs"][r["input"]]["fingerprint"]["mps_bytes"] = r["artifact_bytes"]
        highs_rows = [row for r in reps for row in r.get("highs", [])]
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "load": "closed loop: one caller, one rep at a time, each rep a fresh process",
            "fingerprint": [inp["fingerprint"] for inp in spec["inputs"]],
            "samples": {
                "wall_s": [r["wall_s"] for r in timed],
                "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
                "setup_s": setups,
            },
            "highs": highs_rows,
            "spans": [r["spans"] for r in reps if "spans" in r],
            "failures": failed,
            "result": {
                "correct": not failed and bool(metrics),
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _summary_lines(detail: dict) -> list[str]:
    res = detail["result"]
    head = (
        f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
        f"{res['failed']}/{res['attempted']} operations failed "
        f"({100.0 * res['failed'] / max(res['attempted'], 1):.1f}%)"
    )
    lines = [head]
    if detail["highs"]:
        worst = max(row["rel_gap"] for row in detail["highs"])
        lines.append(f"  HiGHS objective agreement: worst relative gap {worst:.3g} "
                     f"over {len(detail['highs'])} LPs")
    n = {k: len(v) for k, v in detail["samples"].items()}
    for m, entry in res["metrics"].items():
        count = f" (median of {n[m]})" if m in n else ""
        lines.append(f"  {m} = {entry['value']:.6g} {entry['unit']}{count}")
    for op in detail["failures"]:
        lines.append(f"  FAILED {op['op']}: {op['why']}")
    return lines


def _store(detail: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}-{stamp}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    try:
        _import_program()
        env = environment()
        if args.workload == "all":
            runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
        else:
            runs = [(args.workload, bool(args.trace))]
        details = []
        for name, trace in runs:
            detail = run_workload(name, args.seed, args.seconds, trace)
            detail["environment"] = env
            _store(detail)
            print("\n".join(_summary_lines(detail)), flush=True)
            details.append(detail)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(details) == 1:
        print(json.dumps({k: v for k, v in details[0].items() if k != "result"}, sort_keys=True))
        final = details[0]["result"]
    else:
        final = {
            "correct": all(d["result"]["correct"] for d in details),
            "attempted": sum(d["result"]["attempted"] for d in details),
            "failed": sum(d["result"]["failed"] for d in details),
            "metrics": {
                f"{d['workload']}/trace{d['trace']}": d["result"]["metrics"] for d in details
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
