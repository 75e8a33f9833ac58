#!/usr/bin/env python3
"""Build and run the lift-cpp end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 10 --trace 0

The first run configures and builds (Release) the benchmark, the library
layers it drives and liftd under .bench_build/; later runs rebuild only
what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sim", "native-warm", "service")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# A run stops on its own well before this; the limit only bounds a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        parser.error("run from the repository root")

    if not build():
        return 1
    cmd = [os.path.join(BUILD_DIR, "lift-e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work", os.path.join(".bench_build", "work", args.workload),
           "--examples", "examples",
           "--liftd", os.path.join(BUILD_DIR, "liftd")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish within %d s"
              % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
