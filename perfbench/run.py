#!/usr/bin/env python3
"""Build and run the ujam benchmark.

    python3 perfbench/run.py --workload serve_cold|sweep_verify \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (and the ujam libraries and ujam-serve it drives) in
.bench_build/perfbench with an optimized build type; later runs reuse
the build. The last line of standard output is the result object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("serve_cold", "sweep_verify")


def build():
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs,
         "--target", "ujam_perfbench", "ujam-serve", "ujam-sweep"],
        check=True, stdout=sys.stderr)


def provenance():
    """Commit and dirty flag, or "unknown" outside a git checkout."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True,
            text=True, check=True).stdout.strip()
        return commit, "1" if dirty else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-inputs", action="store_true",
                        help="print the seed's request streams and "
                             "manifest instead of running")
    args = parser.parse_args()
    if not args.dump_inputs and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    binary = os.path.join(BUILD, "ujam_perfbench")
    if args.dump_inputs:
        return subprocess.run([binary, "--dump-inputs", "--seed",
                               str(args.seed)]).returncode
    commit, dirty = provenance()
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--serve-bin", os.path.join(BUILD, "ujam", "driver", "ujam-serve"),
        "--sweep-bin", os.path.join(BUILD, "ujam", "driver", "ujam-sweep"),
        "--work-dir", os.path.join(".bench_build", "perfbench-run",
                                   str(os.getpid())),
        "--commit", commit, "--dirty", dirty,
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
