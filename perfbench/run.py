#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpch-drift --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which builds the engine
library from src/) into the directory named by CARGO_TARGET_DIR, or
.bench_build when unset; later runs only rebuild what changed. Build output
goes to stderr. Stdout carries the run's metadata, one line per metric,
and last the JSON result. The exit
status is non-zero when the build fails, an answer is wrong, or the result
line is missing.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)


def main(argv):
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_test")],
                              stdout=sys.stderr).returncode

    cmd = [os.path.join(build_dir, "perfbench"), *argv]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1], file=sys.stderr)
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
