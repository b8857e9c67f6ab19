#!/usr/bin/env python3
"""Self-test of validate_report.py's trace checks, on hand-made traces.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_report as vr  # noqa: E402


def trace(*events):
    return {
        "displayTimeUnit": "ns",
        "traceEvents": list(events),
        "otherData": {"schema": "cni-chrome-trace", "build": "x"},
    }


META = {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "p"}}
SPAN = {"ph": "X", "pid": 0, "tid": 1, "name": "nic.rx_frame", "ts": 1.0, "dur": 0.5}
INSTANT = {"ph": "i", "pid": 0, "tid": 1, "name": "pathfinder.classify", "ts": 1.5, "s": "t"}


class TracePhases(unittest.TestCase):
    def test_the_phases_the_writer_emits_pass(self):
        self.assertEqual(vr.validate_trace(trace(META, SPAN, INSTANT)), [])

    def test_a_counter_record_is_a_violation(self):
        # No simulator site emits a counter ("C") record, so one in a trace
        # means the writer and this validator disagree.
        counter = {"ph": "C", "pid": 0, "tid": 1, "name": "adc.enqueue_tx", "ts": 2.0,
                   "args": {"value": 9}}
        errors = vr.validate_trace(trace(META, SPAN, counter))
        self.assertEqual(len(errors), 1)
        self.assertIn("unexpected phase 'C'", errors[0])

    def test_a_span_needs_its_duration(self):
        span = dict(SPAN)
        del span["dur"]
        self.assertEqual(vr.validate_trace(trace(span)), ["traceEvents[0]: span without 'dur'"])


if __name__ == "__main__":
    unittest.main()
