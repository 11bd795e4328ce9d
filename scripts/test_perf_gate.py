#!/usr/bin/env python3
"""Unit tests of perf_gate.decide over fixed benchmark lines.

    python3 scripts/test_perf_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_gate import decide  # noqa: E402

BOUND = 0.25


def line(pps, correct=True, failed=0):
    """The last JSON line of one perfbench run, reduced to what decide reads."""
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {"pps": {"value": pps, "unit": "pkt/s"}}}


def runs(*pps):
    return [line(v) for v in pps]


class DecideTest(unittest.TestCase):
    def test_pass_within_bound(self):
        status, _ = decide(runs(100, 101, 99, 100, 102),
                           runs(80, 81, 79, 80, 82), BOUND)
        self.assertEqual(status, "pass")

    def test_regression_beyond_bound_fails(self):
        status, _ = decide(runs(100, 101, 99, 100, 102),
                           runs(70, 71, 69, 70, 72), BOUND)
        self.assertEqual(status, "fail")

    def test_base_spread_wider_than_bound_is_unresolved(self):
        status, _ = decide(runs(50, 100, 150, 60, 140),
                           runs(40, 41, 39, 40, 42), BOUND)
        self.assertEqual(status, "unresolved")

    def test_incorrect_output_fails(self):
        head = runs(100, 101, 99, 100, 102)
        head[3] = line(100, correct=False)
        status, _ = decide(runs(100, 101, 99, 100, 102), head, BOUND)
        self.assertEqual(status, "fail")

    def test_failed_operations_fail(self):
        base = runs(100, 101, 99, 100, 102)
        base[0] = line(100, failed=3)
        status, _ = decide(base, runs(100, 101, 99, 100, 102), BOUND)
        self.assertEqual(status, "fail")


if __name__ == "__main__":
    unittest.main()
