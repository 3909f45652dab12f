"""One fresh process of the benchmark: a set-up probe or one timed rep.

    python3 perfbench/worker.py setup CONFIG
        import pvsmooth.cli (with numpy and scipy), load CONFIG, print the
        monotonic clock; the caller subtracts the time it spawned us.
    python3 perfbench/worker.py rep SPEC INPUT OUT_DIR RESULT [--trace]
        run the workload command once on input number INPUT of SPEC, check
        its outputs, write RESULT.

``run.py`` starts these with ``src/`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def setup_probe(config: str) -> None:
    import pvsmooth.cli

    pvsmooth.cli.load_run_config(config)
    print(repr(time.monotonic()))


def rep(spec_path: str, index: int, out_dir: str, result_path: str, traced: bool) -> None:
    import pvsmooth.cli  # noqa: F401  imported before the clock starts

    import workloads

    inp = json.loads(Path(spec_path).read_text())["inputs"][index]
    out = Path(out_dir)
    tracer = None
    solves: list = []
    if traced:
        import layers
        import spans

        tracer = spans.Tracer(run=out.name)
        layers.install(tracer, solves)

    t0 = time.perf_counter()
    outcome = workloads.run_command(inp, out)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result: dict = {"wall_s": wall, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.restore()
        result["spans"] = tracer.as_records()
        result["highs"] = highs_reference(solves)
    result["ops"] = workloads.check_outcome(inp, out, outcome)
    result["digest"], result["artifact_bytes"] = workloads.digest(out)
    Path(result_path).write_text(json.dumps(result))


def highs_reference(solves: list) -> list[dict]:
    """Solve every LP of the traced rep again with HiGHS, outside any span."""
    import highs

    rows = []
    for s in solves:
        ref = highs.solve_highs(s["problem"])
        ours = s.get("objective", float("nan"))
        rows.append(
            {
                "label": s["label"],
                "seconds": ref.seconds,
                "status": ref.status,
                "objective": ours,
                "highs_objective": ref.objective,
                "rel_gap": highs.relative_gap(ours, ref.objective),
                "agrees": ref.status == "optimal" and highs.agrees(ours, ref.objective),
            }
        )
    return rows


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup_probe(argv[1])
        return 0
    if argv[:1] == ["rep"] and len(argv) in (5, 6):
        rep(argv[1], int(argv[2]), argv[3], argv[4], traced=argv[5:] == ["--trace"])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
