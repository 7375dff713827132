#!/usr/bin/env python3
"""Builds the host-speed benchmark from this source tree and runs it.

    python3 bench/perf/run.py --workload offload-step --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
bench/perf (and the library under test) into .bench_build/perf; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. --workload all runs every workload,
each in its own process, and prints one result line per workload. See
README.md for the workloads and metrics.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf")
BINARY = os.path.join(BUILD, "ssdtrain_perf")
WORKLOADS = ["offload-step", "keep-step", "cluster-pp4", "ckpt-crash",
             "figure-sweep"]
# A run ends well inside this; one that does not is stopped and fails.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds ssdtrain_perf; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "ssdtrain")):
        sys.exit("run.py: no simulator source tree at %s; run from a full "
                 "checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "ssdtrain_perf",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build failed: " + " ".join(step))


def run(workload, args):
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.json:
        command += ["--json", args.json]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short unit of work per window")
    parser.add_argument("--json", help="also write the result to this file "
                        "(one workload only)")
    args = parser.parse_args()
    if args.workload == "all" and args.json:
        parser.error("--json takes one workload")

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    failed = [w for w in workloads if run(w, args) != 0]
    if failed:
        sys.exit("run.py: failed: " + " ".join(failed))


if __name__ == "__main__":
    main()
