#!/usr/bin/env python3
"""Builds and runs the temporadb benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
        --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the engine and the benchmark in
.bench_build/ (a Release build of ../src plus this directory); later calls
only rebuild what changed.  Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result.  The exit code is the benchmark's:
0 when every check passed, 1 when one failed, 2 when no result was made.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
JOBS = "3"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("error: engine sources (src/) not found next to %s\n"
                         % os.path.basename(BENCH_DIR))
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("error: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    target = "perfbench_selftest" if argv == ["--selftest"] else "perfbench"
    if not build(target):
        return 2
    sys.stdout.flush()
    cmd = [os.path.join(BUILD_DIR, target)]
    if target == "perfbench":
        cmd += argv
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
