#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Usage, from the repository root:  python3 perfbench/smoke_test.py

Builds the benchmark (see run.py), then runs every workload (those named in
BENCHMARK.json and engine_fleet) twice untraced and twice traced with the
same seed, at the smoke-test scale and a fixed round count. It checks that each result line
has exactly the contract's keys, passes its own correctness checks, names
every metric of BENCHMARK.json with its unit, and that the deterministic
figures (message cost, quality, counters) are identical across the two runs.
An unknown workload must fail without printing a result. Exits non-zero on
the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = "7"
ROUNDS = "60"
# Built and checked here though BENCHMARK.json does not gate it (see
# README.md, Workloads).
UNGATED_WORKLOADS = ["engine_fleet"]
# Untraced metrics that do not depend on timing.
DETERMINISTIC_E2E = {"messages_per_reading", "d3_precision", "d3_recall",
                     "mgdd_precision", "mgdd_recall"}
# Traced metrics in these units are counts, so they must repeat exactly.
DETERMINISTIC_UNITS = {"1/reading", "count"}


def fail(message):
    sys.exit("smoke_test: FAIL: " + message)


def run_once(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", "--rounds", ROUNDS]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                   proc.stderr.strip()))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s trace=%d: result keys %s" % (workload, trace, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: checks failed:\n%s" % (workload, trace, proc.stdout))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s trace=%d: attempted = %r" % (workload, trace,
                                             result["attempted"]))
    return result


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    for workload in [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[section]}
            first = run_once(binary, workload, trace)
            second = run_once(binary, workload, trace)
            got = {name: m["unit"] for name, m in first["metrics"].items()}
            if got != expected:
                fail("%s trace=%d: metrics/units differ from BENCHMARK.json: "
                     "missing %s, unexpected %s" % (
                         workload, trace,
                         sorted(set(expected.items()) - set(got.items())),
                         sorted(set(got.items()) - set(expected.items()))))
            for name, unit in expected.items():
                deterministic = (name in DETERMINISTIC_E2E if trace == 0
                                 else unit in DETERMINISTIC_UNITS)
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if deterministic and a != b:
                    fail("%s trace=%d: %s differs across same-seed runs: "
                         "%r vs %r" % (workload, trace, name, a, b))
            if first["attempted"] != second["attempted"]:
                fail("%s trace=%d: attempted differs" % (workload, trace))
            print("ok  %-13s trace=%d  %d metrics, deterministic figures "
                  "repeat" % (workload, trace, len(expected)))

    proc = subprocess.run([binary, "--workload", "no_such_workload", "--seed",
                           SEED, "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("an unknown workload must fail without a result")
    print("ok  unknown workload rejected")


if __name__ == "__main__":
    main()
