#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the Atlas sources under ../src and
the benchmark program (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), runs the benchmark's self-tests, then runs one
measurement. Human-readable lines go first; the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}. Exits nonzero, without
a result, when the build or the program fails; exits 1 after printing the
result when an output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("pipeline-quickstart", "pipeline-crn-bg16")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build; returns the build directory or None on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return out


def selftest(out):
    test = os.path.join(out, "perfbench_test")
    if not os.path.exists(test):
        log(f"self-test binary {test} was not built")
        return False
    proc = subprocess.run([test, "--gtest_brief=1"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        log("self-tests failed")
        return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build()
    if out is None or not selftest(out):
        return 2

    cmd = [os.path.join(out, "atlas_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"measurement exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit code {proc.returncode})")
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 3

    expected = expected_metrics(args.trace == 1)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            log(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))},"
                f" extra {sorted(set(got) - set(expected))},"
                f" unit mismatch {sorted(n for n in got if n in expected and got[n] != expected[n])}")
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
