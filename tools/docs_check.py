#!/usr/bin/env python3
"""Documentation consistency checks, run by the CI docs-check job.

Four classes of failure:

1. Dead relative links: every markdown link in every tracked .md file
   whose target is a relative path must resolve to an existing file
   (anchors and external URLs are skipped; an anchor on a relative
   link is checked against the target file's headings).

2. Stale contract prose: the v4 delta-index PR removed the exclusive
   R*-tree fold-in from the ingest path. Header comment blocks and the
   README must not still describe the old contract. The patterns below
   are the phrases that described it; any hit is a failure with the
   offending file:line printed. Likewise the query API that was folded
   into Database::RunBatch and Database::SelfJoin (the single-query
   methods, their shared last-query stats and the sequential tree-match
   join), the per-thread-count engines and pools the one database pool
   replaced, the buffer-pool shards, the Guttman node splits, the wire
   protocol's extension flags with the subsequence query kind, the
   page file's own I/O counters, the second copies of the index and
   server counters (the pool's and tree's shared stats, the Reindex
   counter fold, tsqd's scrape-time mirror), the snapshot's delta cursor,
   the kNN first-leaf stop and the R*-tree's dynamic half (insertion,
   the R* split, forced reinsertion, deletion, their options, the
   incremental index builds and BufferPool::Delete) must not be named
   in the README, docs/ or src/ headers. Nor may they describe a merge
   that re-reads the relation: merges pack the published tree's points
   plus the delta's, and only BuildIndex scans the relation segments.

3. Required sections: load-bearing doc sections that later PRs link to
   (the kernel determinism contract, the wire-protocol versioning rule,
   the benchmark tables) must keep existing under their exact heading —
   renaming one silently breaks the cross-references and the contract
   of record.

4. Dead doc references in source comments: a `//` comment in a C++
   source or a `#` comment in a Python or CMake file that names a .md
   file which exists nowhere in the tree. A bare name matches a file of
   that name anywhere; a name with a directory must resolve from the
   repository root or from the commenting file's directory.

Exit status 0 = clean, 1 = problems found. No dependencies beyond the
standard library; run from anywhere inside the repository.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Markdown inline links [text](target) — good enough for our docs; code
# spans are stripped first so `[i](j)` in C++ snippets is not a link.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
FENCE_RE = re.compile(r"^(```|~~~)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")

# Phrases that describe the pre-v4 exclusive fold-in contract. Checked
# against README.md and every header under src/. Case-insensitive.
STALE_PATTERNS = [
    r"exclusive\s+R\*?-?tree\s+fold-?in",
    r"fold-?in\s+takes\s+the\s+writers",
    r"brief\s+exclusive\s+lock",
    r"index_mutex_",
    r"fold[s]?\s+new\s+points\s+into\s+the\s+live\s+(R\*?-?)?tree",
]

# Names of the removed query API, of the per-thread-count engines and
# pools, of the buffer-pool shards, of the Guttman split variants, of the
# wire protocol's extension flags and subsequence kind, of the page
# file's counters, of the shared pool/tree stats, the Reindex counter
# fold and tsqd's counter mirror, of the snapshot's delta cursor, and of
# the kNN first-leaf stop with its CLI flag, and of the R*-tree's
# insertion, split, forced reinsertion and deletion with their options
# and incremental callers (see check 2). Checked against
# README.md, docs/*.md and every header under src/. Case-sensitive, and
# anchored so SeqScanRangeQuery / IndexRangeQuery / Client::Knn pass.
STALE_API_PATTERNS = [
    r"last_stats",
    r"ParallelSelfJoin",
    r"\bScanRangeQuery",
    r"TreeMatchSelfJoin",
    r"\bRangeQuery\(",
    r"EnsureEngine",
    r"EnsureIngestPool",
    r"QueryEngineOptions",
    r"engine_threads",
    r"engine-threads",
    r"buffer_pool_shards",
    r"ShardIndex",
    r"SplitAlgorithm",
    r"SplitEntries",
    r"Guttman(Linear|Quadratic)Split",
    r"want_server_counters",
    r"has_server_counters",
    r"kSubsequence",
    r"subsequence_matches",
    r"BatchQuery::Subsequence",
    r"Client::Subsequence",
    r"kKnnOptionsFlag",
    r"kApproxStatsFlag",
    r"kStatsCountersFlag",
    r"kStageStatsFlag",
    r"kServerCountersFlag",
    r"PageFileStats",
    r"\bTraversalStats\b",
    r"BufferPoolStats",
    r"AddIndexCounters",
    r"retired_index_counters_",
    r"metrics_mutex_",
    r"TraversalTally",
    r"delta_begin",
    r"stop_after_first_leaf",
    r"--first-leaf",
    # R* insertion and deletion. Each name keeps one letter in a
    # character class, so that searching the tree for the deleted names
    # finds their uses and not this list.
    r"\bInsert[P]oint\b",
    r"InsertEntry[A]tLevel",
    r"Insert[R]ecurse",
    r"Choose[S]ubtree",
    r"RStar[S]plit",
    r"Split[N]ode",
    r"rtree/spli[t]\.h",
    r"Forced[R]einsert",
    r"forced_[r]einsert",
    r"reinsert_[f]raction",
    r"min_fill_[p]ercent",
    r"Delete[R]ecurse",
    r"ShrinkRoot[I]fNeeded",
    r"\bbulk_[l]oad\b",
    r"KIndex::[A]dd\b",
    r"Add[S]eries",
    r"SubsequenceIndex::[C]reate",
    r"BufferPool::[D]elete",
]

# Phrases of the merge that re-read every record (a merge now packs the
# published tree's leaf points plus the delta's; see check 2). Checked
# against README.md, docs/*.md and every header under src/.
# Case-insensitive.
STALE_MERGE_PATTERNS = [
    r"Reindex`?\s+segment\s+scans",
    r"rebuild\s+features\s+for\s+ids",
    r"parallel\s+segment\s+scans\s*\+\s*STR",
]

SKIP_DIRS = {".git", "build", "build-tsan", "third_party", ".github",
             ".bench_build"}

# A .md file name inside a comment (check 4).
MD_NAME_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
COMMENT_MARKERS = {".h": "//", ".cpp": "//", ".py": "#", ".txt": "#"}

# Doc sections other files cross-reference by heading. Path (relative
# to the repo root) -> exact headings that must exist in that file.
REQUIRED_SECTIONS = {
    "docs/ARCHITECTURE.md": [
        "Kernel layer & dispatch",
        "Invariants",
        "Lock inventory",
        "Observability",
    ],
    "docs/WIRE_PROTOCOL.md": [
        "Versioning",
        "Metrics exposition",
    ],
    "README.md": [
        "Kernels",
        "Approximate kNN",
        "Benchmarks",
        "Metrics",
    ],
}


def tracked_files(suffixes):
    out = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS and
                   not d.startswith("build")]
        for f in files:
            if any(f.endswith(s) for s in suffixes):
                out.append(os.path.join(root, f))
    return sorted(out)


def github_anchor(heading):
    """GitHub's heading -> anchor slug (ASCII approximation)."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md_path):
    anchors = set()
    in_fence = False
    with open(md_path, encoding="utf-8") as f:
        for line in f:
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if m:
                anchors.add(github_anchor(m.group(1)))
    return anchors


def check_links(md_files):
    problems = []
    for path in md_files:
        in_fence = False
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                stripped = CODE_SPAN_RE.sub("", line)
                for target in LINK_RE.findall(stripped):
                    if re.match(r"[a-z][a-z0-9+.-]*:", target):
                        continue  # external URL (http:, mailto:, ...)
                    base, _, anchor = target.partition("#")
                    if not base:
                        # Same-file anchor.
                        if anchor and github_anchor(anchor) not in \
                                anchors_of(path):
                            problems.append(
                                f"{path}:{lineno}: dead anchor "
                                f"'#{anchor}'")
                        continue
                    resolved = os.path.normpath(
                        os.path.join(os.path.dirname(path), base))
                    if not os.path.exists(resolved):
                        problems.append(
                            f"{path}:{lineno}: dead link '{target}' "
                            f"(resolved to {resolved})")
                    elif anchor and resolved.endswith(".md"):
                        if github_anchor(anchor) not in anchors_of(resolved):
                            problems.append(
                                f"{path}:{lineno}: dead anchor "
                                f"'{target}'")
    return problems


def check_stale_prose(files, regexes, what):
    problems = []
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        # Join continuation lines so a phrase split across a comment
        # block's line wrap still matches.
        joined = re.sub(r"\n//\s*", " ", text)
        joined = re.sub(r"\s+", " ", joined)
        for rx in regexes:
            if rx.search(joined):
                # Recover an approximate line for the report.
                lineno = 1
                for i, line in enumerate(text.splitlines(), 1):
                    if rx.search(line):
                        lineno = i
                        break
                problems.append(
                    f"{path}:{lineno}: stale {what} "
                    f"matches /{rx.pattern}/")
    return problems


def check_required_sections():
    problems = []
    for rel_path, headings in REQUIRED_SECTIONS.items():
        path = os.path.join(REPO, rel_path)
        if not os.path.exists(path):
            problems.append(f"{rel_path}: required doc file is missing")
            continue
        present = set()
        in_fence = False
        with open(path, encoding="utf-8") as f:
            for line in f:
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                m = HEADING_RE.match(line)
                if m:
                    present.add(m.group(1).strip())
        for heading in headings:
            if heading not in present:
                problems.append(
                    f"{rel_path}: required section '{heading}' is missing")
    return problems


def comment_text(path, line):
    """The comment part of a source line ('' when there is none)."""
    marker = COMMENT_MARKERS[os.path.splitext(path)[1]]
    _, found, comment = line.partition(marker)
    return comment if found else ""


def check_source_doc_refs(md_files):
    problems = []
    md_names = {os.path.basename(p) for p in md_files}
    sources = [p for p in tracked_files(list(COMMENT_MARKERS))
               if not p.endswith(".txt") or
               os.path.basename(p) == "CMakeLists.txt"]
    for path in sources:
        with open(path, encoding="utf-8", errors="replace") as f:
            for lineno, line in enumerate(f, 1):
                for name in MD_NAME_RE.findall(comment_text(path, line)):
                    if "/" not in name:
                        ok = name in md_names
                    else:
                        ok = any(os.path.exists(os.path.normpath(
                            os.path.join(base, name)))
                            for base in (REPO, os.path.dirname(path)))
                    if not ok:
                        problems.append(
                            f"{path}:{lineno}: comment cites '{name}', "
                            f"which is not in the tree")
    return problems


def main():
    md_files = tracked_files([".md"])
    headers = [p for p in tracked_files([".h"])
               if os.sep + "src" + os.sep in p]
    readme = os.path.join(REPO, "README.md")
    prose_files = headers + ([readme] if os.path.exists(readme) else [])
    docs = [p for p in md_files
            if os.path.dirname(p) == os.path.join(REPO, "docs")]

    problems = (check_links(md_files) +
                check_stale_prose(
                    prose_files,
                    [re.compile(p, re.IGNORECASE) for p in STALE_PATTERNS],
                    "pre-v4 contract prose") +
                check_stale_prose(
                    prose_files + docs,
                    [re.compile(p) for p in STALE_API_PATTERNS],
                    "removed API") +
                check_stale_prose(
                    prose_files + docs,
                    [re.compile(p, re.IGNORECASE)
                     for p in STALE_MERGE_PATTERNS],
                    "merge prose") +
                check_required_sections() + check_source_doc_refs(md_files))
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        for p in problems:
            print("  " + os.path.relpath(p, REPO) if p.startswith(REPO)
                  else "  " + p)
        return 1
    print(f"docs-check: OK ({len(md_files)} markdown files, "
          f"{len(prose_files)} prose-checked sources)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
