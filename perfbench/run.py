#!/usr/bin/env python3
"""Build the daosim benchmark from source, then run one workload.

    python3 perfbench/run.py --workload easy-dfs --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the repository root. --seconds defaults to run_seconds in
BENCHMARK.json, the one place the run length is set. The build tree is $CARGO_TARGET_DIR when that
is set, else .bench_build/; build output goes to stderr. The benchmark's last
line on stdout is the JSON result (see perfbench/README.md). The exit code is
non-zero, and no result is printed, when the build fails; it is the benchmark's
exit code otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("easy-dfs", "easy-hdf5", "hard-mpiio-coll", "overwrite-agg")
# A run must end within 180 s; a hung benchmark is killed a little before.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "daosim_perfbench", "-j", jobs],
    )
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print(f"run.py: build step failed ({rc}): {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_benchmark(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, help="workload seed (the benchmark's default if omitted)")
    ap.add_argument("--seconds", type=int,
                    help="measurement budget per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    args = ap.parse_args()
    if args.seconds is None:
        with open(BENCHMARK_JSON) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "daosim_perfbench")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    failures = [w for w in names if run_benchmark(binary, w, args) != 0]
    if failures:
        print(f"run.py: failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
