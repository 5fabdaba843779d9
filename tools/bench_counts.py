#!/usr/bin/env python3
"""Checks the figure benches' deterministic counts against a golden file.

Usage:  bench_counts.py [--build-dir build] [--golden FILE] [--write]

Runs each figure/table bench binary of BENCHES from the build directory
with TSQ_BENCH_SMOKE=16 (in a temporary directory, so BENCH_*.json side
files land there) and keeps, per table row, only the columns that count
filter work: answers, candidates and node accesses (for approximate kNN,
candidates visited and pruned; for the subsequence index, trail pieces
and verified windows). Timings never enter. Those counts follow
from the seeded data and the filter alone, so they are identical on every
host, build type and kernel level; a change to any of them is a change to
what the filter does, and must show up as a reviewed diff of the golden
file (bench/golden_counts.txt).

Without --write: exit 0 when the counts equal the golden file, else print
a unified diff and exit 1. With --write: rewrite the golden file. No
dependencies beyond the standard library.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_GOLDEN = os.path.join(ROOT, "bench", "golden_counts.txt")
SMOKE_SCALE = "16"

BENCHES = (
    "bench_fig08_query_vs_length",
    "bench_fig09_query_vs_count",
    "bench_fig10_index_vs_scan_length",
    "bench_fig11_index_vs_scan_count",
    "bench_fig12_answer_set_size",
    "bench_table1_self_join",
    "bench_knn",
    "bench_approx",
    "bench_ablation",
    "bench_subsequence",
)

# A column is kept when its header names one of these counts (and is not
# the paper's quoted figure): answers, candidates, node accesses, kNN's
# visited and pruned entries, and the subsequence index's trail pieces and
# verified windows. The leading columns before the first count or timing
# column label the row.
COUNT_COLUMN_RE = re.compile(
    r"answers|candidates|nodes|visited|pruned|verified|pieces")
PAPER_COLUMN_RE = re.compile(r"paper")
TIMING_COLUMN_RE = re.compile(r"\bms\b|time|speedup|winner")
# Summary lines outside tables, e.g. "tree-match join: 0:00.004, 20
# answers (34 node accesses)".
SUMMARY_RE = re.compile(r"^\s*(.+?): \S+, (\d+) answers"
                        r"(?: \((\d+) node accesses\))?")
RULE_RE = re.compile(r"^\s*-{8,}\s*$")


def cells(line):
    """Splits a table line on the two-or-more-space column gaps."""
    return [c for c in re.split(r"\s{2,}", line.strip()) if c]


def extract(bench, text):
    """Returns the count lines of one bench's stdout."""
    out = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if i + 1 < len(lines) and RULE_RE.match(lines[i + 1]):
            header = cells(lines[i])
            keep = [j for j, name in enumerate(header)
                    if COUNT_COLUMN_RE.search(name)
                    and not PAPER_COLUMN_RE.search(name)]
            labels = 1
            while (labels < len(header) and
                   not COUNT_COLUMN_RE.search(header[labels]) and
                   not PAPER_COLUMN_RE.search(header[labels]) and
                   not TIMING_COLUMN_RE.search(header[labels])):
                labels += 1
            i += 2
            while i < len(lines) and lines[i].strip():
                row = cells(lines[i])
                if keep and len(row) == len(header):
                    fields = [f"{header[j]}={row[j]}"
                              for j in list(range(labels)) + keep]
                    out.append(" | ".join([bench] + fields))
                i += 1
            continue
        m = SUMMARY_RE.match(lines[i])
        if m:
            fields = [m.group(1), f"answers={m.group(2)}"]
            if m.group(3) is not None:
                fields.append(f"node accesses={m.group(3)}")
            out.append(" | ".join([bench] + fields))
        i += 1
    return out


def collect(build_dir):
    lines = []
    env = dict(os.environ, TSQ_BENCH_SMOKE=SMOKE_SCALE)
    with tempfile.TemporaryDirectory() as tmp:
        for bench in BENCHES:
            binary = os.path.join(os.path.abspath(build_dir), bench)
            proc = subprocess.run([binary], cwd=tmp, env=env, text=True,
                                  stdout=subprocess.PIPE, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"bench_counts: {bench} exited {proc.returncode}")
            counts = extract(bench, proc.stdout)
            if not counts:
                sys.exit(f"bench_counts: no count columns in {bench}'s "
                         "output")
            lines += counts
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    parser.add_argument("--golden", default=DEFAULT_GOLDEN)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden file instead of checking")
    args = parser.parse_args()

    lines = [line + "\n" for line in collect(args.build_dir)]
    if args.write:
        with open(args.golden, "w") as f:
            f.writelines(lines)
        print(f"bench_counts: wrote {len(lines)} rows to {args.golden}")
        return 0
    with open(args.golden) as f:
        golden = f.readlines()
    if lines == golden:
        print(f"bench_counts: {len(lines)} rows match {args.golden}")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        golden, lines, fromfile=args.golden, tofile="this build"))
    print("bench_counts: figure-bench counts differ from the golden file; "
          "if the filter change is intended, rerun with --write and "
          "commit the diff", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
