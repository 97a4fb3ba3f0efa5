"""Record the golden digests the benchmark's correctness checks compare to.

Usage, from the root of the repository::

    PYTHONPATH=src:. python3 -m perfbench.golden --seeds 0-39

For each seed it records the MAP digest of the LOF and Fast ABOD cells of
``grid_smoke`` and the ground-truth digest of each ``dataset_build``
surrogate, and rewrites ``perfbench/golden.json``. Regenerate only for a
change that is meant to alter those results, and say so in its record.
"""

from __future__ import annotations

import argparse
import json

from perfbench import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-39", help="inclusive range, e.g. 0-39")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    golden: dict = {"grid_smoke": {}, "dataset_build": {}}
    for seed in range(first, last + 1):
        workloads._reset_process_caches()
        golden["grid_smoke"][str(seed)] = workloads.grid_digest(
            workloads.grid_golden_cells(seed)
        )
        _, digests, failed = workloads._gt_pass(seed)
        if failed:
            raise SystemExit(f"seed {seed}: a dataset build failed: {digests}")
        golden["dataset_build"][str(seed)] = digests
        print(f"seed {seed} recorded", flush=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
