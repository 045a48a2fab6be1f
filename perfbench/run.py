#!/usr/bin/env python3
"""Build and run the hatrix end-to-end benchmark.

Builds the harness (perfbench/CMakeLists.txt, Release) from the source tree
this file sits in, then runs one workload:

    python3 perfbench/run.py --workload yukawa_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The harness prints a human-readable report; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics. The
sampled-residual tolerance of each workload is read from the `why` of its
entry in BENCHMARK.json ("residual tol <x>") and passed to the harness.

The build goes to .bench_build/perfbench under the root of the source tree;
captured library notes and span dumps go to its logs/ subdirectory.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value <= 600.0:
        raise argparse.ArgumentTypeError(f"not in (0, 600]: {text!r}")
    return value


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def workload_tolerance(name):
    """The residual tolerance BENCHMARK.json records for a workload."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    for w in spec.get("workloads", []):
        if w.get("name") == name:
            m = re.search(r"residual tol ([0-9][0-9.eE+-]*)", w.get("why", ""))
            if not m:
                fail(f"BENCHMARK.json gives no 'residual tol' for workload {name}")
            return m.group(1)
    fail(f"workload {name} is not in BENCHMARK.json")


def build(build_dir, targets):
    """Configure once, then build `targets`; all output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no hatrix source tree at {ROOT}; the harness builds the library from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(
                cmd, stdout=sys.stderr, stderr=sys.stderr,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed ({done.returncode}): {' '.join(cmd)}")


def run(cmd, cwd):
    """Run `cmd`, passing its stdout through; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the hatrix end-to-end benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=non_negative_int, default=1)
    parser.add_argument("--seconds", type=positive_float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-test instead of a workload")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")

    if args.self_test:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(run([os.path.join(build_dir, "perfbench_selftest")], build_dir))

    tol = workload_tolerance(args.workload)
    build(build_dir, ["perfbench"])
    sys.exit(run([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--residual-tol", tol,
        "--log-dir", os.path.join(build_dir, "logs"),
    ], ROOT))


if __name__ == "__main__":
    main()
