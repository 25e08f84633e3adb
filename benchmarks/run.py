"""nerdct reconstruction benchmark.

    python3 benchmarks/run.py --workload nerdp-gmm --seed 1 --seconds 10 --trace 0

Each workload runs in its own process (bench_worker.py) with one BLAS
thread.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run; `--workload all` runs every workload in
turn.  The last line of standard output is the JSON result.  Run it from a
checkout that holds `src/nerdct`; NOTES.md describes workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nerdp-gmm", "dds-curve", "nerda-conv")  # bench_worker.WORKLOADS, without numpy
# Set before numpy loads in the worker.  Multi-threaded BLAS changes the
# order of CG's dot-product reductions, and so dds's output bits.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKER_TIMEOUT_S = 170


def run_workload(name, args):
    """Run one workload's worker; returns its parsed result, or None."""
    command = [sys.executable, str(HERE / "bench_worker.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} took longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0 or not lines:
        print(f"error: {name} worker exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: {name} worker printed no result", file=sys.stderr)
        return None
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "nerdct" / "__init__.py").is_file():
        print(f"error: no nerdct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
