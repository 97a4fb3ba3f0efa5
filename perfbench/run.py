"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid_smoke --seed 1 --seconds 10 --trace 0

Workloads: ``grid_smoke``, ``dataset_build``, ``serve_warm`` (see
``perfbench/README.md``). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced run.

Every run is hermetic: a fresh child process with its own temporary cwd,
``HOME``, ``XDG_CACHE_HOME`` and ``TMPDIR`` under ``.perfbench_tmp/`` (removed
afterwards) and with every ``REPRO_*`` variable cleared, so no on-disk
cache or stray switch carries state between runs. The child runs on one
CPU (see :func:`pin_one_cpu`). A provenance stamp (source revision,
Python/NumPy versions, ``nproc``, the CPUs the child ran on, workload,
seed) is printed before the result line, with a digest of every output
the run checked, so runs of one commit can be compared. The program is
imported from ``src/`` of the checkout; without it the run fails with a
non-zero exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid_smoke", "dataset_build", "serve_warm")
CHILD_TIMEOUT_S = 175.0


def git_rev(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path and content)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def pin_one_cpu() -> None:
    """Pin this process, and so the child it starts, to one CPU.

    The program runs serially (the serial backend; the server computes
    under one interpreter lock), so a run needs one core. On a shared
    virtual machine, letting its threads hop between two vCPUs made host
    CPU steal show in serve_warm: its rounds read 25 % slower and six times
    as spread out as with every thread on one vCPU. The highest-numbered
    CPU is used, away from CPU 0, which takes most interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env(scratch: str) -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and not key.startswith("PYTHON")
    }
    for name in ("home", "cache", "tmp"):
        os.makedirs(os.path.join(scratch, name))
    env.update(
        HOME=os.path.join(scratch, "home"),
        XDG_CACHE_HOME=os.path.join(scratch, "cache"),
        TMPDIR=os.path.join(scratch, "tmp"),
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
    )
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        env = child_env(scratch)
        cwd = os.path.join(scratch, "cwd")
        os.makedirs(cwd)
        result_path = os.path.join(scratch, "result.json")
        cmd = [
            sys.executable, "-m", "perfbench.job",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", result_path,
        ]
        nproc = len(os.sched_getaffinity(0))
        pin_one_cpu()
        sys.stdout.flush()
        try:
            completed = subprocess.run(cmd, cwd=cwd, env=env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
            return 1
        if completed.returncode != 0 or not os.path.exists(result_path):
            print(f"perfbench: run failed (exit {completed.returncode})", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        stamp = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_rev": git_rev(ROOT),
            "src_digest": source_digest(src),
            "python": platform.python_version(),
            "numpy": result.pop("numpy_version"),
            "output_digest": result.pop("output_digest"),
            "nproc": nproc,
            "cpus": result.pop("cpus"),
        }
        print("perfbench stamp: " + json.dumps(stamp, sort_keys=True))
        if not result["correct"]:
            print("perfbench: a correctness check failed", file=sys.stderr)
        print(json.dumps(result, sort_keys=True), flush=True)
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
