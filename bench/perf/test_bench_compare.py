#!/usr/bin/env python3
"""Verdict rules of bench_compare.py on synthetic results.

    python3 bench/perf/test_bench_compare.py
"""

import io
import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep the source tree clean under CTest
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def around(center, count=10, step=0.002):
    """count values tightly spread around center (relative step)."""
    return [center * (1 + step * (i - count / 2)) for i in range(count)]


class VerdictTest(unittest.TestCase):
    def test_gain_needs_wins_and_a_gap_wider_than_the_spread(self):
        parent = around(100.0)
        change = around(80.0)
        self.assertEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[0], "gain")

    def test_gain_respects_direction(self):
        parent = around(100.0)
        change = around(120.0)
        self.assertEqual(
            bench_compare.verdict(parent, change, "higher", 0.07)[0], "gain")
        self.assertEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[0],
            "regression")

    def test_fewer_than_ten_pairs_never_gain(self):
        parent = around(100.0, count=6)
        change = around(80.0, count=6)
        self.assertEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[0],
            "unchanged")

    def test_win_fraction_below_nine_tenths_is_no_gain(self):
        parent = around(100.0)
        change = [80.0] * 8 + [130.0, 130.0]
        result, wins = bench_compare.verdict(parent, change, "lower", 0.07)
        self.assertEqual(wins, 0.8)
        self.assertNotEqual(result, "gain")

    def test_ties_count_for_neither_side(self):
        parent = [100.0] * 10
        change = [100.0] * 9 + [90.0]
        self.assertAlmostEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[1], 0.1)

    def test_worse_beyond_the_bound_is_a_regression(self):
        parent = around(100.0)
        change = around(108.0)
        self.assertEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[0],
            "regression")

    def test_worse_within_the_bound_is_unchanged(self):
        parent = around(100.0)
        change = around(103.0)
        self.assertEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[0],
            "unchanged")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [80.0, 90.0, 100.0, 110.0, 120.0] * 2
        change = [85.0, 95.0, 100.0, 105.0, 118.0] * 2
        self.assertEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[0],
            "unresolved")

    def test_every_change_run_better_overrides_the_spread(self):
        parent = [100.0, 110.0, 120.0, 130.0, 140.0]
        change = [60.0, 70.0, 80.0, 90.0, 95.0]
        self.assertEqual(
            bench_compare.verdict(parent, change, "lower", 0.07)[0],
            "unchanged")

    def test_no_bound_gives_gain_regression_or_unresolved(self):
        parent = around(100.0)
        self.assertEqual(
            bench_compare.verdict(parent, around(70.0), "lower", None)[0],
            "gain")
        self.assertEqual(
            bench_compare.verdict(parent, around(130.0), "lower", None)[0],
            "regression")
        self.assertEqual(
            bench_compare.verdict(parent, around(100.5), "lower", None)[0],
            "unresolved")

    def test_counters_must_repeat_exactly(self):
        self.assertEqual(bench_compare.counter_verdict([3, 3], [3, 3]),
                         "identical")
        self.assertEqual(bench_compare.counter_verdict([3, 3], [3, 4]),
                         "differs")


class CompareTest(unittest.TestCase):
    @staticmethod
    def result(value, digest, failed=0):
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {
                    "steps_per_s": {"value": value, "unit": "1/s"},
                    "sim.digest": {"value": digest, "unit": "hash"}}}

    def test_flags_a_differing_digest_and_failed_runs(self):
        specs = {"steps_per_s": ("higher", 0.07), "sim.digest": ("lower", None)}
        parent = {"w.%d.json" % i: self.result(100.0, 7) for i in range(10)}
        change = {"w.%d.json" % i: self.result(100.0, 7) for i in range(10)}
        out = io.StringIO()
        self.assertEqual(bench_compare.compare(parent, change, specs, out), 0)
        self.assertIn("identical", out.getvalue())

        change["w.3.json"] = self.result(100.0, 8, failed=1)
        out = io.StringIO()
        self.assertEqual(bench_compare.compare(parent, change, specs, out), 2)
        self.assertIn("differs", out.getvalue())

    def test_summary_holds_medians_and_quartiles(self):
        runs = {"w.%d.json" % i: self.result(float(i), 7) for i in range(1, 6)}
        summary = bench_compare.summarize(runs, "label")
        entry = summary["workloads"]["w"]["steps_per_s"]
        self.assertEqual(entry["median"], 3.0)
        self.assertEqual(entry["runs"], 5)
        self.assertEqual(summary["failed"], 0)


if __name__ == "__main__":
    unittest.main()
