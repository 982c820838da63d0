#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints JSON.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver (perfbench/CMakeLists.txt) is built from source into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on first use.
Build output goes to stderr. stdout carries the driver's detail record
(seed, percentiles, sample counts, workload-native figures) and, as its
last line, the result: {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). A run whose output checks fail prints "correct": false
with no metrics and exits 1; a build or usage failure prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; want one of {names}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    if not build(build_dir):
        log("perfbench: build failed")
        return 2

    # Unix socket paths are capped near 107 bytes, so the service workload
    # gets a work directory relative to the checkout root.
    work_dir = build_root / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}",
           f"--work-dir={os.path.relpath(work_dir, ROOT)}"]
    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(exist_ok=True)
        cmd.append(f"--spans={traces / f'{args.workload}-seed{args.seed}.tsv'}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: driver exited {proc.returncode}")
        return 1
    detail = json.loads(lines[-1])
    print(lines[-1])

    result = {"correct": bool(detail["correct"]),
              "attempted": int(detail["attempted"]),
              "failed": int(detail["failed"]),
              "metrics": {}}
    if result["correct"]:
        measured = detail["layers"] if args.trace else detail["end_to_end"]
        declared = {m["name"] for m in wanted}
        undeclared = sorted(set(measured) - declared)
        if undeclared:
            log(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}")
            return 2
        if not args.trace and any(
                not measured.get(name) for name in declared):
            log(f"perfbench: end-to-end metrics missing or zero: {measured}")
            return 1
        # A layer the workload does not exercise did no work: 0.
        result["metrics"] = {
            m["name"]: {"value": measured.get(m["name"]) or 0.0,
                        "unit": m["unit"]}
            for m in wanted}
    else:
        log(f"perfbench: output check failed: {detail['error']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
