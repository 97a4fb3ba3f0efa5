"""Run a workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload grid_smoke --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound recorded in
``BENCHMARK.json``. A run that fails or reports ``correct: false`` stops
the series.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.measure import quartile_spread  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    first, last = (int(part) for part in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(result["metrics"].items()))
        print(f"seed {seed}: {shown}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<32}{'median':>12}{'spread':>9}{'bound':>7}")
    for name, series in sorted(values.items()):
        median = statistics.median(series)
        spread = (
            "n/a" if len(series) < 2 or median == 0
            else f"{quartile_spread(series):.3f}"
        )
        print(f"{name:<32}{median:>12.4g}{spread:>9}{bounds[name]:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
