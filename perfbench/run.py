#!/usr/bin/env python3
"""Build and run the Themis ARBITER benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the program sources under src/) in Release under
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild incrementally.
Build output goes to stderr. The benchmark's output goes to stdout, its last
line the JSON result, which this script checks against BENCHMARK.json: the
metric names and units must be exactly the end_to_end ones (--trace 0) or
the per_layer ones (--trace 1). Exits non-zero, without a result line, when
the build fails or the result does not match; exits 1 after printing the
result when one of the benchmark's output checks failed.
"""
import argparse
import json
import os
import subprocess
import sys

# A run must end within 180 s; stop a hung benchmark before that.
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}, \
        [w["name"] for w in spec["workloads"]]


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not a JSON result: %r" % line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %r (known: %s)" % (args.workload,
                                                 ", ".join(workloads)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))

    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark still running after %d s; stopped" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d and no result" % proc.returncode)
    check_result(lines[-1], expected)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
