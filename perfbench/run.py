#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of `sdf` requests.

Run from the repository root:

    python3 perfbench/run.py --workload enum-heavy --seed 1 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, Release, into
.bench_build/perfbench) from the repository's sources, then runs one
workload in a fresh process.  The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; build output
goes to standard error.  --trace 1 runs the traced replay instead and
writes its spans to .bench_build/perfbench/trace-<workload>-<seed>.json.

Other modes:
    python3 perfbench/run.py --self-test        # benchmark self-test (ctest)
    python3 perfbench/run.py --make-reference   # reference.json to stdout
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
REQUIRED = ("perfbench/CMakeLists.txt", "src/core/sdf.hpp", "bench/bench_common.hpp")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    if not (args.workload or args.self_test or args.make_reference):
        fail("--workload is required")

    try:
        build(["perfbench", "perfbench_selftest"] if args.self_test else ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    binary = os.path.join(BUILD_DIR, "perfbench")
    if args.self_test:
        sys.exit(subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                                 "--output-on-failure"]).returncode)
    if args.make_reference:
        sys.exit(subprocess.run([binary, "--make-reference"]).returncode)

    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        command.append("--trace-out=" + os.path.join(
            BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed)))
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(result) != RESULT_KEYS or not result["correct"]:
        fail("malformed or incorrect result")


if __name__ == "__main__":
    main()
