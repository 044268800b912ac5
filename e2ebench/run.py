#!/usr/bin/env python3
"""Build and run the MarketMiner end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload days_pearson --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds the benchmark package (this directory's
CMakeLists.txt, over the program's sources in src/) into .bench_build/; later
calls rebuild only what changed. The benchmark binary prints its result as the
last line of standard output; build logs and progress go to standard error.
Results and traces are written to e2ebench/out/.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return os.path.join(BUILD_DIR, target)


def main(argv):
    if argv == ["--selftest"]:
        binary = build("e2ebench_selftest")
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode
    binary = build("e2ebench")
    sys.stdout.flush()
    try:
        done = subprocess.run([binary, *argv, "--out-dir", OUT_DIR], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
