"""Tests of the benchmark's own arithmetic and answer checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: the worker process is replaced by canned records.
"""
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def app_record(checksum=10.0, reference=10.0, error="", wall=1.0):
    sims = []
    for board in run.BOARDS:
        sims.append({"board": board, "ops": 1, "error": error,
                     "answer": {"checksum": checksum, "reference": reference, "rel_tol": 1e-12},
                     "counters": {"sim.elapsed_ps": 100 if board == "cni" else 150,
                                  "dsm.diffs_applied": 4}})
    return {"workload": "jacobi", "config": {"n": 4, "iterations": 2},
            "engine": {"sharded": False, "shards": 1}, "wall_s": wall,
            "setup_samples": [0.01, 0.02, 0.03], "sims": sims,
            "spans": [], "round_end_s": []}


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0]
        self.assertEqual(run.median(vals), 4.5)
        q = statistics.quantiles(vals, n=4)
        self.assertEqual(run.quartiles(vals), (q[0], q[2]))
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0))

    def test_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(19)), 50))
        self.assertEqual(run.percentile(list(range(20)), 50), 9)
        self.assertIsNone(run.percentile(list(range(99)), 90))
        self.assertEqual(run.percentile(list(range(100)), 90), 89)

    def test_self_time_is_span_minus_child_coverage(self):
        spans = [
            {"name": "root", "start": 0.0, "end": 10.0, "parent": -1},
            {"name": "a", "start": 1.0, "end": 3.0, "parent": 0},
            {"name": "b", "start": 2.0, "end": 5.0, "parent": 0},   # overlaps a
            {"name": "c", "start": 8.0, "end": 12.0, "parent": 0},  # runs past root
            {"name": "d", "start": 2.5, "end": 3.0, "parent": 2},   # grandchild
        ]
        got = run.self_times(spans)
        self.assertAlmostEqual(got[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(got[1], 2.0)
        self.assertAlmostEqual(got[2], 3.0 - 0.5)
        self.assertAlmostEqual(got[4], 0.5)

    def test_ratio_is_printed_with_its_base(self):
        value, line = run.ratio_line("x.ns_per_op", 2.0, 4e9, "ops executed", "ns", 1e9)
        self.assertAlmostEqual(value, 0.5)
        self.assertIn("base 4e+09", line)
        self.assertIn("base: ops executed", line)


class AnswerChecks(unittest.TestCase):
    def test_checksum_mismatch_is_a_failure_not_an_abort(self):
        attempted, failed, notes = run.judge(app_record(checksum=10.5))
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("checksum", notes[0])

    def test_checksum_within_tolerance_passes(self):
        self.assertEqual(run.judge(app_record(checksum=10.0 + 1e-12))[:2], (2, 0))

    def test_exception_and_missing_record_fail_their_operations(self):
        self.assertEqual(run.judge(app_record(error="cluster deadlock"))[:2], (2, 2))
        self.assertEqual(run.judge(None, fallback_ops=7)[:2], (7, 7))

    def test_wrong_reduce_values_are_counted(self):
        rec = {"sims": [{"board": "cni", "ops": 100, "error": "",
                         "answer": {"wrong": 3}, "counters": {}}]}
        self.assertEqual(run.judge(rec)[:2], (100, 3))

    def test_counter_mismatch_is_reported(self):
        a = {"cni": {"sim.events": 5, "nic.cells_sent": 1}}
        b = {"cni": {"sim.events": 6, "nic.cells_sent": 1}}
        lines = run.determinism_mismatches(a, b, "pass 1 vs pass 0")
        self.assertEqual(len(lines), 1)
        self.assertIn("sim.events: 5 != 6", lines[0])
        self.assertEqual(run.determinism_mismatches(a, a, "same"), [])


class MainLoop(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_main(self, records, trace=0, calib_s=run.CALIB_REF_S):
        feed = iter(records)

        def fake_pass(workload, seed, run_id, traced):
            return next(feed), 100.0, 0.0

        out = io.StringIO()
        with mock.patch.object(run, "build", return_value=True), \
                mock.patch.object(run, "run_pass", side_effect=fake_pass), \
                mock.patch.object(run, "calibrate", return_value=calib_s), \
                mock.patch.object(run, "BUILD", self.tmp.name), \
                contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "jacobi", "--seed", "1", "--seconds", "0",
                           "--trace", str(trace)])
        return rc, out.getvalue().splitlines()

    def test_forced_checksum_mismatch_is_counted_and_reported(self):
        rc, lines = self.run_main([app_record(checksum=11.0)])
        self.assertEqual(rc, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 2))
        self.assertEqual(result["metrics"]["pass_ratio"]["value"], 0.0)
        self.assertTrue(any(line.startswith("FAILED pass 0") for line in lines))

    def test_end_to_end_metrics_are_medians_with_units(self):
        rc, lines = self.run_main([app_record()])
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertEqual(result["metrics"]["setup_s"], {"value": 0.02, "unit": "s"})
        self.assertEqual(result["metrics"]["peak_rss_mb"]["value"], 100.0)

    def test_host_times_are_scaled_to_the_reference_speed(self):
        # A host that runs the kernel twice as slowly halves wall_s and setup_s.
        rc, lines = self.run_main([app_record(wall=3.0)], calib_s=2 * run.CALIB_REF_S)
        m = json.loads(lines[-1])["metrics"]
        self.assertAlmostEqual(m["wall_s"]["value"], 1.5)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.01)
        self.assertEqual(m["peak_rss_mb"]["value"], 100.0)
        self.assertTrue(any(line.startswith("host speed scale = 0.5") for line in lines))

    def test_failed_host_speed_kernel_fails_the_run(self):
        self.assertEqual(self.run_main([app_record()], calib_s=None)[0], 1)

    def test_traced_run_reports_every_per_layer_metric(self):
        rec = app_record()
        rec["spans"] = [
            {"name": "workload", "start": 0.0, "end": 1.5, "parent": -1, "run": 1},
            {"name": "apps.run_cni", "start": 0.0, "end": 0.5, "parent": 0, "run": 1},
            {"name": "apps.run_standard", "start": 0.5, "end": 1.0, "parent": 0, "run": 1},
        ]
        rc, lines = self.run_main([app_record(), rec], trace=1)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.per_layer_units()))
        m = result["metrics"]
        self.assertAlmostEqual(m["bench.self_s"]["value"], 0.5)
        self.assertAlmostEqual(m["apps.cni_vs_standard"]["value"], 1.5)
        # 1 s of runs over 2 boards x 2 iterations x (4-2)^2 points.
        self.assertAlmostEqual(m["apps.jacobi_ns_per_point"]["value"], 1e9 / 16)
        self.assertTrue(any(line.startswith("absent: sim.ns_per_event") for line in lines))

    def test_counter_drift_between_passes_marks_the_run_incorrect(self):
        drift = app_record()
        drift["sims"][0]["counters"]["sim.elapsed_ps"] = 101
        rc, lines = self.run_main([app_record(), drift], trace=1)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertTrue(any(line.startswith("DETERMINISM MISMATCH") for line in lines))

    def test_counter_drift_between_runs_marks_the_later_run_incorrect(self):
        self.assertTrue(json.loads(self.run_main([app_record()])[1][-1])["correct"])
        drift = app_record()
        drift["sims"][1]["counters"]["dsm.diffs_applied"] = 5
        rc, lines = self.run_main([drift])
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertTrue(any("vs stored run" in line for line in lines))


if __name__ == "__main__":
    unittest.main()
