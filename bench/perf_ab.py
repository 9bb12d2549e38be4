#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark (perfbench).

    python3 bench/perf_ab.py --parent REV --workload W --seed S --pairs N

Run from the repository root. The parent revision is checked out as a
detached git worktree under .bench_build/ (kept, so later runs reuse
its build). Each pair runs BENCHMARK.json's "command" (perfbench/run.py)
with

    --workload W --seed S --seconds T

where T is BENCHMARK.json's "run_seconds", once in that worktree and
once in the working tree, and the side that goes first alternates
from pair to pair. Both sides are built before the first pair. Only
perfbench's result line (the last line of its standard output) is
read.

For every end-to-end metric in BENCHMARK.json the report gives each
side's median and quartiles (to four significant digits), the
change/parent ratio of the medians, the pairs the change won (ties
count for neither side), the spread and a verdict. The metric's
"bound" times the parent's median is its allowance. The spread is the
wider side's interquartile range divided by the allowance: above 1,
the metric reads `unresolved` unless every change run beats every
parent run. The verdict is the first of these that holds:

    worse       the change's median is worse than the parent's by more
                than the allowance;
    unresolved  either side's interquartile range is wider than the
                allowance, and not every change run beats every parent
                run;
    gain        at least 10 pairs ran, the change won at least nine
                tenths of them, its median is better than the parent's
                by more than the parent's interquartile range, and the
                change failed no more operations than the parent;
    -           none of these: no regression past the bound, and no gain.

Each metric also gets a 95% percentile-bootstrap interval on the
change/parent ratio of medians: whole pairs are resampled with
replacement 2,000 times from a fixed seed, so the same runs always
print the same interval. The verdict does not use it.

If a run fails, the pairs completed before it are reported and the
script exits non-zero.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys


class RunFailed(Exception):
    pass


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def parent_worktree(rev):
    """Check rev out (detached) under .bench_build/, reusing a match."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(".bench_build", "ab-" + commit[:12])
    if os.path.isdir(path):
        if git("rev-parse", "HEAD", cwd=path) != commit:
            sys.exit(f"perf_ab: {path} is not at {commit}")
    else:
        git("worktree", "add", "--detach", path, commit)
    return commit, path


def build(command, cwd):
    """Build one side's benchmark; --dump-inputs builds, then runs none."""
    subprocess.run(command + ["--dump-inputs"], cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)


def run(command, seconds, cwd, workload, seed):
    """One benchmark run; returns its parsed result line."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds)],
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"perf_ab: run in {cwd} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def ratio_interval(p, c, resamples):
    """95% percentile-bootstrap interval on median(c) / median(p)."""
    ratios = []
    for picks in resamples:
        pm = statistics.median(p[i] for i in picks)
        if pm:
            ratios.append(statistics.median(c[i] for i in picks) / pm)
    if len(ratios) < 2:
        return float("nan"), float("nan")
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def sig4(value):
    """value to four significant digits, in fixed notation."""
    if not value or not math.isfinite(value):
        return f"{value:.3f}"
    decimals = max(0, 3 - math.floor(math.log10(abs(value))))
    return f"{value:.{decimals}f}"


def report(metrics, seconds, parent, change):
    pairs = len(parent)
    failed_parent = sum(r["failed"] for r in parent)
    failed_change = sum(r["failed"] for r in change)
    print(f"\n{pairs} pairs, {seconds} s runs; values are q1 / median / q3; "
          f"failed operations: parent {failed_parent}, "
          f"change {failed_change}")
    print(f"{'metric':<18} {'parent':>33} {'change':>33} {'ratio':>6} "
          f"{'95% interval':>16} {'wins':>6} {'spread':>6}  verdict")
    # Whole pairs, drawn once, so every metric sees the same resamples.
    rng = random.Random(1)
    resamples = [[rng.randrange(pairs) for _ in range(pairs)]
                 for _ in range(2000)]
    for metric in metrics:
        name = metric["name"]
        higher = metric["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        gap = (cm - pm) if higher else (pm - cm)
        allowance = metric["bound"] * abs(pm)
        spread = max(p3 - p1, c3 - c1)
        separated = min(c) > max(p) if higher else max(c) < min(p)
        if -gap > allowance:
            verdict = "worse"
        elif spread > allowance and not separated:
            verdict = "unresolved"
        elif (pairs >= 10 and wins * 10 >= pairs * 9 and gap > p3 - p1
              and failed_change <= failed_parent):
            verdict = "gain"
        else:
            verdict = "-"
        ratio = cm / pm if pm else float("nan")
        lo, hi = ratio_interval(p, c, resamples)
        quartets = " ".join(
            " / ".join(f"{sig4(v):>9}" for v in side)
            for side in ((p1, pm, p3), (c1, cm, c3)))
        spread_text = f"{spread / allowance:6.2f}" if allowance else \
            f"{'-':>6}"
        print(f"{name:<18} {quartets} {ratio:6.3f} "
              f"[{lo:6.3f}, {hi:6.3f}] {wins:>3}/{pairs:<3} "
              f"{spread_text}  {verdict}")


def main():
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="parent revision (commit, branch or tag)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    command = benchmark["command"]
    seconds = benchmark["run_seconds"]
    commit, parent_dir = parent_worktree(args.parent)
    sides = {"parent": parent_dir, "change": "."}
    for cwd in sides.values():
        build(command, cwd)

    results = {"parent": [], "change": []}
    print(f"parent {commit[:12]} in {parent_dir}; change: working tree")
    print(f"{'pair':>4} {'side':<7} {'attempted':>9} {'failed':>6}")
    failure = None
    try:
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else \
                ["change", "parent"]
            for side in order:
                result = run(command, seconds, sides[side], args.workload,
                             args.seed)
                results[side].append(result)
                print(f"{pair + 1:>4} {side:<7} {result['attempted']:>9} "
                      f"{result['failed']:>6}", flush=True)
    except RunFailed as error:
        failure = str(error)
    # A failed run leaves its pair incomplete; report the whole pairs.
    done = min(len(results["parent"]), len(results["change"]))
    if done:
        report(benchmark["end_to_end"], seconds, results["parent"][:done],
               results["change"][:done])
    if failure:
        sys.exit(failure)
    return 0


if __name__ == "__main__":
    sys.exit(main())
