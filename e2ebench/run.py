#!/usr/bin/env python3
"""End-to-end μSKU benchmark: build the driver from source, run one
workload, check its result line, and print it as the last stdout line.

Usage (from the repository root):
    python3 e2ebench/run.py --workload tune-web|fleet-race
                            --seed N --seconds S --trace 0|1

The driver is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only rebuild what changed.
Build output goes to stderr.  The exit status is the driver's: 1 when
an output check failed, and also 1 when the build fails or the result
line does not carry every metric BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tune-web", "fleet-race")


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "e2ebench")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    steps = ["cmake", "--build", build_dir, "--target", "usku_e2e",
             "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "usku_e2e")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"driver's last line is not JSON: {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    metrics = result["metrics"]
    for name, unit in declared_metrics(trace).items():
        if name not in metrics or metrics[name]["unit"] != unit:
            fail(f"metric {name} ({unit}) missing from the result")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        fail("--seed must be positive and --seconds above zero")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    work_dir = os.path.join(build_root, f"work-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--work-dir={work_dir}"],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not lines[-1].startswith("{"):
        fail(f"driver exited {proc.returncode} without a result")
    result = check_result(lines[-1], args.trace)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
