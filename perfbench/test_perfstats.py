#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic: the percentile rule, span self
times, open-loop lateness accounting and the result schema.

    python3 perfbench/test_perfstats.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import perfstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def span(span_id, parent, name, start, end, request=1):
    return [span_id, parent, request, name, start, end]


class PercentileRuleTest(unittest.TestCase):
    def test_ten_samples_beyond_the_reported_percentile(self):
        self.assertIsNone(perfstats.highest_supported_percentile(19))
        self.assertEqual(perfstats.highest_supported_percentile(20), 50.0)
        self.assertEqual(perfstats.highest_supported_percentile(99), 50.0)
        self.assertEqual(perfstats.highest_supported_percentile(100), 90.0)
        self.assertEqual(perfstats.highest_supported_percentile(999), 90.0)
        self.assertEqual(perfstats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(perfstats.highest_supported_percentile(10000), 99.9)

    def test_p90_of_100_leaves_exactly_ten_above(self):
        values = list(range(1, 101))
        p90 = perfstats.tail(values, 90.0)
        self.assertEqual(p90, 90)
        self.assertEqual(sum(1 for v in values if v > p90), 10)

    def test_unsupported_tail_is_refused(self):
        with self.assertRaises(perfstats.InsufficientSamples):
            perfstats.tail(list(range(99)), 90.0)
        with self.assertRaises(perfstats.InsufficientSamples):
            perfstats.tail([], 50.0)

    def test_nearest_rank_ignores_input_order(self):
        self.assertEqual(perfstats.nearest_rank([5, 1, 4, 2, 3], 50.0), 3)
        self.assertEqual(perfstats.nearest_rank([5, 1, 4, 2, 3], 100.0), 5)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        own = perfstats.self_times([span(1, 0, "a", 10, 25)])
        self.assertEqual(own[1], 15)

    def test_children_are_subtracted_once(self):
        spans = [
            span(1, 0, "cycle", 0, 100),
            span(2, 1, "select", 10, 40),
            span(3, 1, "assert", 50, 90),
            span(4, 3, "inner", 60, 70),
        ]
        own = perfstats.self_times(spans)
        self.assertEqual(own[1], 100 - 30 - 40)
        self.assertEqual(own[2], 30)
        self.assertEqual(own[3], 40 - 10)
        self.assertEqual(own[4], 10)
        self.assertEqual(sum(own.values()), 100)

    def test_overlapping_children_cover_their_union(self):
        spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 30, 60),
        ]
        self.assertEqual(perfstats.self_times(spans)[1], 100 - 50)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, "root", 0, 100), span(2, 1, "late", 90, 130)]
        self.assertEqual(perfstats.self_times(spans)[1], 90)

    def test_layer_medians_by_name(self):
        spans = [
            span(1, 0, "x", 0, 2_000_000),
            span(2, 0, "x", 0, 4_000_000),
            span(3, 0, "x", 0, 9_000_000),
        ]
        self.assertEqual(perfstats.layer_self_ms(spans), ({"x": 4.0}, {"x": 3}))


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # Due at 0 ms, sent 3 ms late, done 5 ms after it was sent.
        rows = [["assert", 0, 3_000_000, 8_000_000]]
        latency, late = perfstats.open_loop(rows, "assert")
        self.assertEqual(latency, [8.0])
        self.assertEqual(late, [3.0])

    def test_a_stall_delays_every_request_behind_it(self):
        # Requests due every 10 ms; the generator stalls 25 ms before the
        # first one and then sends each as soon as it can (1 ms service).
        rows = []
        for k in range(4):
            due = k * 10_000_000
            sent = max(due, 25_000_000 + k * 1_000_000)
            rows.append(["assert", due, sent, sent + 1_000_000])
        latency, late = perfstats.open_loop(rows, "assert")
        self.assertEqual(late, [25.0, 16.0, 7.0, 0.0])
        self.assertEqual(latency, [26.0, 17.0, 8.0, 1.0])

    def test_kinds_are_kept_apart(self):
        rows = [["assert", 0, 0, 1_000_000], ["snapshot", 0, 0, 2_000_000]]
        self.assertEqual(perfstats.open_loop(rows, "snapshot")[0], [2.0])

    def test_closed_loop_samples_when_no_requests(self):
        passdata = {"requests": [], "samples": {"open_ms": [1.5, 2.5]}}
        self.assertEqual(perfstats.latency_samples(passdata, "open"), [1.5, 2.5])


class SchemaTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    def good(self):
        return {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {n: {"value": 1.25, "unit": u}
                        for n, u in self.units.items()},
        }

    def test_well_formed_result(self):
        self.assertEqual(perfstats.validate_result(self.good(), self.units), [])

    def test_extra_or_missing_keys(self):
        result = self.good()
        result["meta"] = {}
        self.assertTrue(perfstats.validate_result(result, self.units))
        result = self.good()
        del result["failed"]
        self.assertTrue(perfstats.validate_result(result, self.units))

    def test_counts_must_be_whole_numbers(self):
        for key, value in (("attempted", 0), ("attempted", 1.5),
                           ("failed", True), ("failed", -1)):
            result = self.good()
            result[key] = value
            self.assertTrue(perfstats.validate_result(result, self.units),
                            (key, value))

    def test_every_metric_with_its_unit(self):
        result = self.good()
        del result["metrics"]["setup_s"]
        self.assertTrue(perfstats.validate_result(result, self.units))
        result = self.good()
        result["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(perfstats.validate_result(result, self.units))
        result = self.good()
        result["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(perfstats.validate_result(result, self.units))

    def test_benchmark_json_names_a_setup_metric(self):
        self.assertEqual(self.units.get("setup_s"), "s")


if __name__ == "__main__":
    unittest.main()
