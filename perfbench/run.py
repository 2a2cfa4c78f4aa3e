#!/usr/bin/env python3
"""Builds and runs the sensord benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <e2e_detect|engine_fleet|fig11_relay> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the library sources from
src/ plus the benchmark program) in Release mode under $CARGO_TARGET_DIR, or
.bench_build/ when that is unset; later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Every argument is passed to the benchmark binary unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sensord.h")):
        sys.exit("perfbench: sensord sources not found under %s/src" % ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "sensord_perfbench")


def main():
    binary = build()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
