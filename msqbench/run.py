#!/usr/bin/env python3
"""Builds and runs the msq benchmark.

Usage, from the root of a checkout of the repository:

    python3 msqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds msqbench/ (which compiles the library from src/) as
an optimized build under .bench_build/msqbench, runs the helper unit tests,
then runs the benchmark program and prints its result line last:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. Spans of a traced run and a full report of
every run (host and build stamp included) go to .bench_build/msqbench-out.
Exits non-zero without a result line when the build, the unit tests, a
correctness check or the run's validity fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "msqbench")
OUT = os.path.join(ROOT, ".bench_build", "msqbench-out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout=None):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print("run.py: %s: %s" % (cmd[0], err), file=sys.stderr)
        return 1


def build():
    if run_logged(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", BUILD, "-j", jobs]) != 0:
        fail("build failed")


def source_digest():
    """sha256 of the library sources: the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("run not correct")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if run_logged([os.path.join(BUILD, "msqbench_test"), "--gtest_brief=1"],
                  timeout=60) != 0:
        fail("benchmark helper tests failed")
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "msqbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT,
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
