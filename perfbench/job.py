"""One benchmark run inside a fresh, hermetic child process.

Started by ``perfbench/run.py`` as ``python -m perfbench.job``; writes the
run's result as JSON to ``--out`` and prints the human-readable report
(metrics by name with units, checks, and in traced runs the layer table)
to standard output. A traced run writes its spans to
``.perfbench_out/trace-<workload>.jsonl.gz`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fresh-interpreter imports per run; ``setup_s`` counts their median. One
#: import takes about 0.17 s and varies by a quarter, so take many.
IMPORT_PROBES = 11

_IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import perfbench.workloads; "
    "print(time.perf_counter() - started)"
)


def import_seconds(repeats: int) -> float:
    """Median time to import the program and its workloads in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.job")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy

    from perfbench import measure, workloads
    from perfbench.tracing import Tracer

    tracer = Tracer() if args.trace else None
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, tracer, workloads.load_golden()
    )
    if tracer is None:
        setup_s, unit = outcome.metrics["setup_s"]
        outcome.metrics["setup_s"] = (import_seconds(IMPORT_PROBES) + setup_s, unit)
        outcome.metrics["peak_rss_mb"] = (measure.peak_rss_mb(), "MB")
    else:
        del outcome.metrics["setup_s"]
        outcome.metrics["failed_frac"] = (outcome.failed / outcome.attempted, "ratio")
        trace_out = os.path.join(TRACE_DIR, f"trace-{args.workload}.jsonl.gz")
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write_jsonl(trace_out)
        outcome.report.append(f"{len(tracer.spans)} spans written to {trace_out}")

    for line in outcome.report:
        print(line)
    for name, ok, detail in outcome.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload}: attempted {outcome.attempted}, failed {outcome.failed}")

    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
        "numpy_version": numpy.__version__,
        "cpus": sorted(os.sched_getaffinity(0)),
        "output_digest": outcome.digest,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
