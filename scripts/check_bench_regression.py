#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag per-benchmark regressions.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json \
        [--threshold 0.15] [--metric cpu_time_ns]

Both files must be schema_version 1 documents written by BenchJsonEmitter:

    {"schema_version": 1, "suite": "...", "records": [
        {"name": "...", "iterations": N, "real_time_ns": ...,
         "cpu_time_ns": ..., "items_per_second": ...}, ...]}

Records are matched by name. A record regresses when its metric grew by
more than `threshold` relative to the baseline (times: bigger is worse).
A baseline record missing from the current run also fails: otherwise a
dropped or filtered-out benchmark would silently leave the gate. New
benchmarks are reported but not compared. A change that renames or
removes a benchmark regenerates the checked-in baseline in the same
change (scripts/bench_smoke.sh), so the gate keeps covering it.

Exit status: 0 when no matched record regresses and no baseline record is
missing, 1 otherwise, 2 on bad input. CI runs this report-only
(continue-on-error) because shared runners are noisy; locally it is a
quick sanity diff between two runs.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA_VERSION = 1
TIME_METRICS = ("cpu_time_ns", "real_time_ns")
RATE_METRICS = ("items_per_second",)


class BenchFileError(Exception):
    """Raised when an input file is not a valid bench document."""


def load_records(path):
    """Returns {name: record} from a BenchJsonEmitter document."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BenchFileError(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise BenchFileError(f"{path}: top level is not an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BenchFileError(
            f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    records = doc.get("records")
    if not isinstance(records, list):
        raise BenchFileError(f"{path}: 'records' is not a list")
    by_name = {}
    for record in records:
        name = record.get("name")
        if not isinstance(name, str) or not name:
            raise BenchFileError(f"{path}: record without a name: {record!r}")
        by_name[name] = record
    return by_name


def relative_change(baseline, current, metric):
    """Signed relative change where positive always means 'got worse'."""
    if baseline <= 0:
        return 0.0
    change = (current - baseline) / baseline
    if metric in RATE_METRICS:
        change = -change  # lower throughput is worse
    return change


def compare(baseline, current, metric, threshold):
    """Returns (regressions, improvements, added, removed) name lists.

    `regressions` entries are (name, baseline_value, current_value,
    change) tuples; `improvements` likewise for changes beyond the
    threshold in the good direction.
    """
    regressions = []
    improvements = []
    for name in sorted(set(baseline) & set(current)):
        base_value = float(baseline[name].get(metric, 0.0))
        cur_value = float(current[name].get(metric, 0.0))
        change = relative_change(base_value, cur_value, metric)
        if change > threshold:
            regressions.append((name, base_value, cur_value, change))
        elif change < -threshold:
            improvements.append((name, base_value, cur_value, change))
    added = sorted(set(current) - set(baseline))
    removed = sorted(set(baseline) - set(current))
    return regressions, improvements, added, removed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files with a noise threshold."
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative change tolerated before flagging (default 0.15)",
    )
    parser.add_argument(
        "--metric",
        default="cpu_time_ns",
        choices=TIME_METRICS + RATE_METRICS,
        help="record field to compare (default cpu_time_ns)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")

    try:
        baseline = load_records(args.baseline)
        current = load_records(args.current)
    except BenchFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    regressions, improvements, added, removed = compare(
        baseline, current, args.metric, args.threshold
    )

    matched = len(set(baseline) & set(current))
    print(
        f"compared {matched} benchmark(s) on {args.metric} "
        f"(threshold {args.threshold:+.0%})"
    )
    for name, base_value, cur_value, change in regressions:
        print(
            f"  REGRESSION {name}: {base_value:.1f} -> {cur_value:.1f} "
            f"({change:+.1%})"
        )
    for name, base_value, cur_value, change in improvements:
        print(
            f"  improvement {name}: {base_value:.1f} -> {cur_value:.1f} "
            f"({change:+.1%})"
        )
    for name in added:
        print(f"  new benchmark (not compared): {name}")
    for name in removed:
        print(f"  MISSING from current run: {name}")

    if regressions:
        print(f"{len(regressions)} regression(s) found")
    if removed:
        print(f"{len(removed)} baseline record(s) missing from current run")
    if regressions or removed:
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
