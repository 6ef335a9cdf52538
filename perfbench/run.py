#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Other options (e.g. --twin-fault SPEC) are passed to perfbench unchanged.

Run from the root of a checkout. The perfbench program and the simulator
library are built (Release) under .bench_build/perfbench; exports and trace
files go to .bench_build/out. Build output goes to standard error, so the
last line of standard output is perfbench's JSON result. Exits non-zero
without a result when the build fails (for example, when ../src is
missing).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "perfbench"


def build():
    """Configure until a build succeeds, then build incrementally; return
    True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not BINARY.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, passthrough = parser.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", str(OUT_DIR), *passthrough]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
