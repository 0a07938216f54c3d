#!/usr/bin/env python3
"""Build the fleet benchmark from this checkout and run it.

Usage (from the repository root):
    python3 fleetbench/run.py --workload paced_30fps --seed 1 --seconds 30 --trace 0
    python3 fleetbench/run.py --sweep --seed 1 --seconds 10

The hdc library is compiled from ../src together with the benchmark program
into .bench_build/ at the repository root (configured once, rebuilt
incrementally). Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. Traced runs write their spans to .bench_out/.
Exits non-zero, printing no result, when the checkout holds no hdc sources
or the build fails.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "fleet_bench")


def fail(message):
    print("fleetbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "recognition", "perception_service.hpp")):
        fail("no hdc sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build failed")


def main():
    build()
    sys.stdout.flush()
    result = subprocess.run([BINARY, "--out-dir", OUT_DIR] + sys.argv[1:], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
