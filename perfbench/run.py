"""Benchmark launcher: one workload, one fresh worker process, one JSON line.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The launcher pins every BLAS and OpenMP pool to one thread
through the worker's environment (set before numpy loads), runs the worker
to completion, adds the worker's peak resident memory as measured by the
operating system, and prints the worker's result as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import resource
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_grid", "dense_n3000", "market_n1e5")
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bicoord benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "bicoord" / "__init__.py").is_file():
        print(f"no bicoord sources under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the worker and waits for it before raising
        print(f"worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the worker is this process's only child
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
