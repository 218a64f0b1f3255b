#!/usr/bin/env python3
"""Self-tests for run.py's arithmetic and checks.

    python3 perfbench/test_run.py
"""

import copy
import json
import unittest

import run


def span(name, start, end, parent=-1, request=0):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "request": request}


class SelfTime(unittest.TestCase):
    def test_leaf_is_all_self(self):
        self.assertAlmostEqual(run.self_times([span("a", 0, 500)])[0], 5e-7)

    def test_children_are_subtracted(self):
        spans = [span("rep", 0, 1000), span("setup", 100, 300, 0),
                 span("run", 300, 900, 0), span("inner", 400, 500, 2)]
        own = run.self_times(spans)
        self.assertAlmostEqual(own[0], 200e-9)  # 1000 - 200 - 600
        self.assertAlmostEqual(own[1], 200e-9)
        self.assertAlmostEqual(own[2], 500e-9)  # 600 - 100
        self.assertAlmostEqual(own[3], 100e-9)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("p", 0, 100), span("a", 10, 60, 0),
                 span("b", 40, 80, 0), span("c", 90, 150, 0)]
        # Covered: [10, 80) and [90, 100) = 80 ns.
        self.assertAlmostEqual(run.self_times(spans)[0], 20e-9)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(9999), 99.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(1), 50.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([7], 99.9), 7)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)


def allreduce_raw(ok_members=32, failed=0):
    rep = {"warmup": False, "traced": False, "attempted": 32,
           "failed": failed,
           "host": {"sim_s": 0.03, "run_s": 0.1, "setup_s": 0.04,
                    "cases": 1, "case_wall_s": 0.15},
           "outputs": {"ok_members": ok_members, "error_members": 0,
                       "wrong_members": 0, "final_epoch": 1,
                       "sim_allreduce_round_us": 7000.0},
           "fingerprints": {"workload_fp": "aa", "cluster_fp": "bb"},
           "counters": {"sim.events": 10.0}, "probe": {},
           "case_s": [], "slice_s": [0.1], "msg_latency_ns": []}
    warm = dict(copy.deepcopy(rep), warmup=True)
    return {"workload": "allreduce_fabric16", "seed": 5,
            "peak_rss_mb": 100.0, "reps": [warm, rep], "parallel": [],
            "spans": []}


class Checks(unittest.TestCase):
    def test_clean_result_passes(self):
        self.assertEqual(run.check(allreduce_raw(), {"golden": {}}), [])

    def test_failed_members_count_and_fail(self):
        raw = allreduce_raw(ok_members=31, failed=1)
        for r in raw["reps"]:
            r["failed"] = 1
        problems = run.check(raw, {"golden": {}})
        self.assertTrue(any("31/32" in p for p in problems))
        self.assertTrue(any("2 of 64 operations failed" in p
                            for p in problems))
        self.assertAlmostEqual(run.failed_frac(64, 2), 1 / 32)
        self.assertEqual(run.failed_frac(0, 0), 0.0)

    def test_determinism_break_is_reported(self):
        raw = allreduce_raw()
        raw["reps"][1]["counters"]["sim.events"] = 11.0
        problems = run.check(raw, {"golden": {}})
        self.assertTrue(any(p.startswith("determinism break: counters")
                            for p in problems))

    def test_golden_mismatch_is_reported(self):
        raw = allreduce_raw()
        golden = run.golden_record(raw)
        ok = {"golden": {"allreduce_fabric16": {"5": golden}}}
        self.assertEqual(run.check(raw, ok), [])
        bad = copy.deepcopy(ok)
        bad["golden"]["allreduce_fabric16"]["5"]["fingerprints"][
            "workload_fp"] = "cc"
        self.assertTrue(any("golden" in p for p in run.check(raw, bad)))

    def test_end_to_end_uses_untraced_timed_repetitions(self):
        raw = allreduce_raw()
        raw["reps"][0]["slice_s"] = [1.0]  # warm-up: ignored
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m["sim_s_per_wall_s"], 0.3)
        self.assertAlmostEqual(m["cases_per_s"], 1 / 0.15)
        self.assertEqual(set(m), set(run.END_TO_END))


    def test_parallel_engine_must_match_sequential_engine(self):
        raw = allreduce_raw()
        raw["parallel"] = [copy.deepcopy(raw["reps"][1])]
        raw["parallel"][0]["counters"]["sim.cascades"] = 3.0
        self.assertEqual(run.check(raw, {"golden": {}}), [])
        raw["parallel"][0]["fingerprints"]["cluster_fp"] = "00"
        self.assertTrue(any("parallel engine fingerprints" in p
                            for p in run.check(raw, {"golden": {}})))

    def test_host_times_take_the_fast_state(self):
        raw = allreduce_raw()
        timed = raw["reps"][1]
        raw["reps"][1:] = [copy.deepcopy(timed) for _ in range(10)]
        for i, r in enumerate(raw["reps"][1:]):
            # Every repetition ran one of its two slices slowly; each
            # slice ran fast in some repetition.
            r["slice_s"] = [0.05, 0.1] if i % 2 else [0.1, 0.05]
            r["host"]["run_s"] = 0.15
            r["host"]["setup_s"] = 0.04 if i == 3 else 0.08
            r["host"]["case_wall_s"] = r["host"]["setup_s"] + 0.15
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m["sim_s_per_wall_s"], 0.3)
        self.assertAlmostEqual(m["setup_s"], 0.04)
        self.assertAlmostEqual(m["cases_per_s"], 1 / (0.04 + 0.1))


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
