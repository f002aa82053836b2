#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is the benchmark's.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Runs a build step, forwarding its output to stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            sys.stderr.write("perfbench: %s not found; run from the "
                             "repository root\n" % needed)
            sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    build()
    binary = os.path.join(BUILD_DIR, "perfbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
