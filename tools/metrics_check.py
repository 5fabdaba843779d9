#!/usr/bin/env python3
"""Validates tsqd METRICS scrapes, run by the CI server-smoke step.

Usage:  metrics_check.py SCRAPE1 [SCRAPE2]

SCRAPE1/SCRAPE2 are files holding the text a `tsq_cli remote-metrics`
scrape printed (Prometheus text exposition). Checks, in order:

1. Well-formedness: every non-empty line is either `# TYPE family type`
   or `name{labels} value` with a parseable numeric value; every sample
   belongs to a family announced by a TYPE line.

2. Required families: the gauges and counters the dashboards and the
   bench-perf job key on must exist — the per-verb request counters and
   latency histograms, the server front-end counters, and the engine
   state gauges (series count, index epoch, degradation flag).

3. Histogram shape: every `_bucket` series is cumulative in `le` order,
   ends with an `le="+Inf"` bucket, and agrees with its `_count` sample;
   a `_sum` sample exists.

4. Monotonicity (with SCRAPE2): every counter sample of SCRAPE1 exists
   in SCRAPE2 with a value >= SCRAPE1's — counters never go backwards
   between two scrapes of the same server.

Exit status 0 = clean, 1 = problems found. No dependencies beyond the
standard library.
"""

import re
import sys

TYPE_RE = re.compile(r"^# TYPE ([A-Za-z_:][A-Za-z0-9_:]*) "
                     r"(counter|gauge|histogram)$")
SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)"
                       r"(?:\{([^}]*)\})? (-?[0-9.eE+]+|[+-]Inf|NaN)$")
LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="([^"]*)"')

# Families a tsqd scrape must always carry, with their announced type.
REQUIRED_FAMILIES = {
    "tsqd_requests_total": "counter",
    "tsqd_request_latency_us": "histogram",
    "tsqd_connections_accepted_total": "counter",
    "tsqd_connections_closed_total": "counter",
    "tsqd_frames_received_total": "counter",
    "tsqd_requests_executed_total": "counter",
    "tsqd_busy_rejected_total": "counter",
    "tsqd_protocol_errors_total": "counter",
    "tsqd_accept_backoffs_total": "counter",
    "tsq_series": "gauge",
    "tsq_index_epoch": "gauge",
    "tsq_delta_entries": "gauge",
    "tsq_degraded": "gauge",
    "tsq_query_stage_self_us": "histogram",
    "tsq_slow_queries_total": "counter",
}

# At least these per-verb label sets must exist on the request counter
# (the smoke drives ping, stats and metrics at minimum).
REQUIRED_VERBS = ["ping", "stats", "metrics"]


class Scrape:
    def __init__(self):
        self.types = {}    # family -> type
        self.samples = {}  # (name, labels-string) -> float
        self.order = []    # (name, labels-string) in file order


def base_family(name):
    """Strips the histogram sample suffixes back to the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse(path):
    scrape = Scrape()
    problems = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                m = TYPE_RE.match(line)
                if not m:
                    problems.append(f"{path}:{lineno}: malformed comment "
                                    f"line {line!r}")
                    continue
                family, kind = m.groups()
                if scrape.types.get(family, kind) != kind:
                    problems.append(f"{path}:{lineno}: family '{family}' "
                                    f"re-announced as {kind}")
                scrape.types[family] = kind
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                problems.append(f"{path}:{lineno}: malformed sample line "
                                f"{line!r}")
                continue
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            try:
                value = float(value)
            except ValueError:
                problems.append(f"{path}:{lineno}: unparseable value in "
                                f"{line!r}")
                continue
            family = base_family(name)
            if family not in scrape.types and name not in scrape.types:
                problems.append(f"{path}:{lineno}: sample '{name}' has no "
                                f"preceding # TYPE line")
            key = (name, labels)
            if key in scrape.samples:
                problems.append(f"{path}:{lineno}: duplicate sample "
                                f"{name}{{{labels}}}")
            scrape.samples[key] = value
            scrape.order.append(key)
    return scrape, problems


def check_required(path, scrape):
    problems = []
    for family, kind in REQUIRED_FAMILIES.items():
        got = scrape.types.get(family)
        if got is None:
            problems.append(f"{path}: required family '{family}' missing")
        elif got != kind:
            problems.append(f"{path}: family '{family}' is a {got}, "
                            f"expected {kind}")
    for verb in REQUIRED_VERBS:
        key = ("tsqd_requests_total", f'verb="{verb}"')
        if key not in scrape.samples:
            problems.append(f"{path}: no tsqd_requests_total sample for "
                            f"verb=\"{verb}\"")
    return problems


def histogram_series(scrape):
    """Groups _bucket samples: (family, labels-minus-le) -> [(le, value)]."""
    series = {}
    for (name, labels), value in scrape.samples.items():
        if not name.endswith("_bucket"):
            continue
        family = base_family(name)
        parts = dict(LABEL_RE.findall(labels))
        le = parts.pop("le", None)
        rest = ",".join(f'{k}="{v}"' for k, v in sorted(parts.items()))
        series.setdefault((family, rest), []).append((le, value))
    return series


def check_histograms(path, scrape):
    problems = []
    for (family, rest), buckets in sorted(histogram_series(scrape).items()):
        where = f"{path}: {family}{{{rest}}}"
        if any(le is None for le, _ in buckets):
            problems.append(f"{where}: _bucket sample without an le label")
            continue
        finite = sorted((float(le), v) for le, v in buckets if le != "+Inf")
        inf = [v for le, v in buckets if le == "+Inf"]
        if not inf:
            problems.append(f"{where}: no le=\"+Inf\" bucket")
            continue
        ordered = [v for _, v in finite] + inf
        for a, b in zip(ordered, ordered[1:]):
            if b < a:
                problems.append(f"{where}: buckets not cumulative "
                                f"({a} then {b})")
                break
        count = scrape.samples.get((family + "_count", rest))
        if count is None:
            problems.append(f"{where}: missing _count sample")
        elif count != inf[0]:
            problems.append(f"{where}: +Inf bucket {inf[0]} != _count "
                            f"{count}")
        if (family + "_sum", rest) not in scrape.samples:
            problems.append(f"{where}: missing _sum sample")
    return problems


def check_monotone(path1, scrape1, path2, scrape2):
    problems = []
    for (name, labels), before in scrape1.samples.items():
        family = base_family(name)
        kind = scrape2.types.get(family) or scrape2.types.get(name)
        if kind == "gauge" or name.endswith("_sum"):
            continue  # gauges move freely; _sum is float-summed
        after = scrape2.samples.get((name, labels))
        if after is None:
            problems.append(f"{path2}: sample {name}{{{labels}}} present "
                            f"in {path1} but missing from the later scrape")
        elif after < before:
            problems.append(f"{path2}: {name}{{{labels}}} went backwards "
                            f"({before} -> {after})")
    return problems


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    scrape1, problems = parse(argv[1])
    problems += check_required(argv[1], scrape1)
    problems += check_histograms(argv[1], scrape1)
    if len(argv) == 3:
        scrape2, more = parse(argv[2])
        problems += more
        problems += check_required(argv[2], scrape2)
        problems += check_histograms(argv[2], scrape2)
        problems += check_monotone(argv[1], scrape1, argv[2], scrape2)
    if problems:
        print(f"metrics-check: {len(problems)} problem(s)")
        for p in problems:
            print("  " + p)
        return 1
    scrapes = len(argv) - 1
    print(f"metrics-check: OK ({scrapes} scrape(s), "
          f"{len(scrape1.samples)} samples in the first)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
