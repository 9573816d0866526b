#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The SEER library and the seerbench binary
are built with CMake (Release) into $CARGO_TARGET_DIR/seerbench, or
.bench_build/seerbench when that is unset; build output goes to stderr.
The binary's report goes to stdout, its last line being the JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-sim", "fleet-stream", "fleet-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "seerbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Relative to the checkout root: the server's socket lives here, and a
    # unix socket path must stay short.
    out_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_dir, "seerbench")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if not build(build_dir):
            print("run.py: build failed", file=sys.stderr)
            return 1
        command = [os.path.join(build_dir, "seerbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out-dir", out_dir]
        # subprocess.run kills the child and waits for it on timeout.
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {' '.join(e.cmd)}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
