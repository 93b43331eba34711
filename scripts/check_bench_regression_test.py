#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (threshold and schema logic).

Run directly or via ctest (registered as check_bench_regression_test).
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as cbr


def make_doc(records, schema_version=1, suite="micro_kernels"):
    return {
        "schema_version": schema_version,
        "suite": suite,
        "records": records,
    }


def make_record(name, cpu_ns, items_per_second=0.0):
    return {
        "name": name,
        "iterations": 100,
        "real_time_ns": cpu_ns * 1.05,
        "cpu_time_ns": cpu_ns,
        "items_per_second": items_per_second,
    }


class TempBenchFile:
    """Writes a doc to a temp file and cleans it up."""

    def __init__(self, doc):
        self.doc = doc
        self.path = None

    def __enter__(self):
        fd, self.path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            json.dump(self.doc, f)
        return self.path

    def __exit__(self, *exc):
        os.unlink(self.path)


class RelativeChangeTest(unittest.TestCase):
    def test_time_metric_growth_is_positive(self):
        self.assertAlmostEqual(
            cbr.relative_change(100.0, 120.0, "cpu_time_ns"), 0.2
        )

    def test_time_metric_shrink_is_negative(self):
        self.assertAlmostEqual(
            cbr.relative_change(100.0, 80.0, "cpu_time_ns"), -0.2
        )

    def test_rate_metric_is_inverted(self):
        # Throughput dropping by 20% is a +0.2 (worse) change.
        self.assertAlmostEqual(
            cbr.relative_change(100.0, 80.0, "items_per_second"), 0.2
        )

    def test_zero_baseline_never_flags(self):
        self.assertEqual(cbr.relative_change(0.0, 50.0, "cpu_time_ns"), 0.0)


class CompareTest(unittest.TestCase):
    def run_compare(self, base_ns, cur_ns, threshold):
        baseline = {"BM_X": make_record("BM_X", base_ns)}
        current = {"BM_X": make_record("BM_X", cur_ns)}
        return cbr.compare(baseline, current, "cpu_time_ns", threshold)

    def test_change_within_threshold_passes(self):
        regressions, improvements, _, _ = self.run_compare(100.0, 114.0, 0.15)
        self.assertEqual(regressions, [])
        self.assertEqual(improvements, [])

    def test_change_beyond_threshold_regresses(self):
        regressions, _, _, _ = self.run_compare(100.0, 116.0, 0.15)
        self.assertEqual(len(regressions), 1)
        name, base_value, cur_value, change = regressions[0]
        self.assertEqual(name, "BM_X")
        self.assertAlmostEqual(change, 0.16)

    def test_exactly_threshold_passes(self):
        # Strictly-greater comparison: the boundary itself is tolerated.
        regressions, _, _, _ = self.run_compare(100.0, 115.0, 0.15)
        self.assertEqual(regressions, [])

    def test_large_improvement_is_reported_not_failed(self):
        regressions, improvements, _, _ = self.run_compare(100.0, 50.0, 0.15)
        self.assertEqual(regressions, [])
        self.assertEqual(len(improvements), 1)

    def test_added_and_removed_are_tracked(self):
        baseline = {"BM_Old": make_record("BM_Old", 10.0)}
        current = {"BM_New": make_record("BM_New", 10.0)}
        regressions, _, added, removed = cbr.compare(
            baseline, current, "cpu_time_ns", 0.15
        )
        self.assertEqual(regressions, [])
        self.assertEqual(added, ["BM_New"])
        self.assertEqual(removed, ["BM_Old"])


class LoadRecordsTest(unittest.TestCase):
    def test_valid_file_loads(self):
        with TempBenchFile(make_doc([make_record("BM_A", 1.0)])) as path:
            records = cbr.load_records(path)
        self.assertIn("BM_A", records)

    def test_schema_mismatch_rejected(self):
        with TempBenchFile(make_doc([], schema_version=99)) as path:
            with self.assertRaises(cbr.BenchFileError):
                cbr.load_records(path)

    def test_nameless_record_rejected(self):
        with TempBenchFile(make_doc([{"iterations": 1}])) as path:
            with self.assertRaises(cbr.BenchFileError):
                cbr.load_records(path)

    def test_garbage_json_rejected(self):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            f.write("not json{")
        try:
            with self.assertRaises(cbr.BenchFileError):
                cbr.load_records(path)
        finally:
            os.unlink(path)


class MainExitCodeTest(unittest.TestCase):
    def test_no_regression_exits_zero(self):
        doc = make_doc([make_record("BM_A", 100.0)])
        with TempBenchFile(doc) as base, TempBenchFile(doc) as cur:
            self.assertEqual(cbr.main([base, cur]), 0)

    def test_regression_exits_one(self):
        base_doc = make_doc([make_record("BM_A", 100.0)])
        cur_doc = make_doc([make_record("BM_A", 200.0)])
        with TempBenchFile(base_doc) as base, TempBenchFile(cur_doc) as cur:
            self.assertEqual(cbr.main([base, cur]), 1)

    def test_loose_threshold_tolerates_regression(self):
        base_doc = make_doc([make_record("BM_A", 100.0)])
        cur_doc = make_doc([make_record("BM_A", 200.0)])
        with TempBenchFile(base_doc) as base, TempBenchFile(cur_doc) as cur:
            self.assertEqual(cbr.main([base, cur, "--threshold", "1.5"]), 0)

    def test_bad_file_exits_two(self):
        doc = make_doc([])
        with TempBenchFile(doc) as base:
            self.assertEqual(cbr.main([base, "/nonexistent.json"]), 2)

    def test_missing_baseline_record_exits_one(self):
        base_doc = make_doc(
            [make_record("BM_A", 100.0), make_record("BM_B", 100.0)]
        )
        cur_doc = make_doc([make_record("BM_A", 100.0)])
        with TempBenchFile(base_doc) as base, TempBenchFile(cur_doc) as cur:
            self.assertEqual(cbr.main([base, cur]), 1)

    def test_new_record_alone_exits_zero(self):
        base_doc = make_doc([make_record("BM_A", 100.0)])
        cur_doc = make_doc(
            [make_record("BM_A", 100.0), make_record("BM_New", 100.0)]
        )
        with TempBenchFile(base_doc) as base, TempBenchFile(cur_doc) as cur:
            self.assertEqual(cbr.main([base, cur]), 0)

    def test_rate_metric_regression(self):
        base_doc = make_doc([make_record("BM_A", 100.0, items_per_second=1e6)])
        cur_doc = make_doc([make_record("BM_A", 100.0, items_per_second=5e5)])
        with TempBenchFile(base_doc) as base, TempBenchFile(cur_doc) as cur:
            self.assertEqual(
                cbr.main([base, cur, "--metric", "items_per_second"]), 1
            )


if __name__ == "__main__":
    unittest.main()
