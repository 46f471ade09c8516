#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark is built with dune into
.bench_build/ and traced runs write their spans into .bench_out/.  The
last line of standard output is the benchmark's JSON result (one line
per workload with --workload all); build output goes to standard error.
The exit code is non-zero when the build fails, an instance fails a
check or the run overstays its time.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["sim-wide", "iter-large", "mc-domains", "msg-abd", "explore-par"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "--display", "quiet", "./perfbench/bench.exe",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    if not build():
        return 3
    if a.selftest:
        return run(["--selftest"])
    names = WORKLOADS if a.workload == "all" else [a.workload]
    return max(run(workload_args(a, name)) for name in names)


def workload_args(a, name):
    args = ["--workload", name, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(OUT_DIR, f"spans-{name}-{a.seed}.jsonl")]
    return args


def run(args):
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
