#!/usr/bin/env python3
"""Spread and paired A/B comparison for the tsq end-to-end benchmark.

  # run-to-run spread of one checkout, ten seeds per workload
  python3 perfbench/compare.py spread --checkout . --runs 10

  # ten alternating pairs of a parent and a change checkout
  python3 perfbench/compare.py ab --parent ../tsq-parent --change . --pairs 10

Each run is the command in the checkout's BENCHMARK.json with
--workload, --seed, --seconds and --trace 0 appended; run i gets seed i,
counting from 1. The parent and the change of a pair get the same seed,
and which side runs first alternates from pair to pair. Both report the
end-to-end metrics only.

Verdicts of `ab`, per workload and end-to-end metric, with "better" and
"bound" taken from BENCHMARK.json:
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range;
  regression  the change's median is worse than the parent's by more
              than the bound;
  unresolved  either side's spread (interquartile range over median)
              exceeds the bound, unless every change run beats every
              parent run;
  no change   otherwise.
Exit code 1 when any metric regressed. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

FIRST_SEED = 1


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed):
    """One untraced run; returns (metrics dict name -> value, wall
    seconds)."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed "
                           f"{result['failed']} of {result['attempted']} ops")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    """Classifies one metric from paired runs (parent[i] vs change[i])."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    if direction == "lower":
        worse_by = (c_med - p_med) / abs(p_med)
        every_run_better = max(change) < min(parent)
    else:
        worse_by = (p_med - c_med) / abs(p_med)
        every_run_better = min(change) > max(parent)
    noisy = max(spread(parent), spread(change)) > bound
    if noisy and not every_run_better:
        return "unresolved", wins
    if (wins >= 0.9 * len(parent) and better(c_med, p_med, direction)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "gain", wins
    if worse_by > bound:
        return "regression", wins
    return "no change", wins


def workloads_of(bench, selected):
    names = [w["name"] for w in bench["workloads"]]
    if not selected:
        return names
    wanted = selected.split(",")
    unknown = [w for w in wanted if w not in names]
    if unknown:
        sys.exit(f"unknown workloads: {', '.join(unknown)}")
    return wanted


def cmd_spread(opts):
    bench = load_benchmark(opts.checkout)
    for workload in workloads_of(bench, opts.workloads):
        runs, walls = [], []
        for seed in range(FIRST_SEED, FIRST_SEED + opts.runs):
            values, wall = run_once(opts.checkout, bench, workload, seed)
            runs.append(values)
            walls.append(wall)
            print(f"  {workload} seed {seed}: {wall:.1f} s",
                  file=sys.stderr)
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s per run")
        print(f"  {'metric':34} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  status")
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = m["bound"]
            if s <= bound / 3:
                status = "steady"
            elif s <= bound:
                status = "within bound"
            else:
                status = "TOO NOISY"
            print(f"  {m['name']:34} {q1:12.5g} {med:12.5g} {q3:12.5g} "
                  f"{s:8.4f} {bound:>6}  {status}")
    return 0


def cmd_ab(opts):
    bench = load_benchmark(opts.change)
    regressed = False
    for workload in workloads_of(bench, opts.workloads):
        parent_runs, change_runs = [], []
        for i in range(opts.pairs):
            seed = FIRST_SEED + i
            order = [("parent", opts.parent), ("change", opts.change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                values, _ = run_once(checkout, bench, workload, seed)
                (parent_runs if side == "parent" else change_runs).append(
                    values)
            print(f"  {workload} pair {i + 1}/{opts.pairs} done",
                  file=sys.stderr)
        print(f"\n{workload}: {opts.pairs} pairs")
        print(f"  {'metric':20} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'wins':>6}  verdict")
        for m in bench["end_to_end"]:
            p = [r[m["name"]] for r in parent_runs]
            c = [r[m["name"]] for r in change_runs]
            v, wins = verdict(p, c, m["better"], m["bound"])
            regressed |= v == "regression"
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {m['name']:20} "
                  f"{pq[0]:10.4g}/{pq[1]:9.4g}/{pq[2]:9.4g} "
                  f"{cq[0]:10.4g}/{cq[1]:9.4g}/{cq[2]:9.4g} "
                  f"{wins:3d}/{opts.pairs:<2d}  {v}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spread", help="run-to-run spread of one checkout")
    sp.add_argument("--checkout", default=".")
    sp.add_argument("--runs", type=int, default=10)
    ab = sub.add_parser("ab", help="paired parent/change comparison")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--change", default=".")
    ab.add_argument("--pairs", type=int, default=10)
    for p in (sp, ab):
        p.add_argument("--workloads", help="comma-separated; default all")
    opts = parser.parse_args()
    return cmd_spread(opts) if opts.command == "spread" else cmd_ab(opts)


if __name__ == "__main__":
    sys.exit(main())
