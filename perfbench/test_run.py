"""Tests of the benchmark's statistics and failure counting.

    python3 perfbench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_picks_the_smallest_value_covering_the_share(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 50), 50)
        self.assertEqual(run.nearest_rank(values, 99), 99)
        self.assertEqual(run.nearest_rank(values, 100), 100)
        self.assertEqual(run.nearest_rank([7.0], 99), 7.0)

    def test_ignores_input_order(self):
        self.assertEqual(run.nearest_rank([5, 1, 4, 2, 3], 60), 3)

    def test_tail_keeps_ten_samples_beyond_it(self):
        self.assertEqual(run.tail_pct(1000), 99)
        self.assertEqual(run.tail_pct(100_000), 99)
        for n in (20, 29, 100, 999):
            pct = run.tail_pct(n)
            self.assertLess(pct, 99)
            ordered = list(range(n))
            beyond = sum(1 for v in ordered if v > run.nearest_rank(ordered, pct))
            self.assertGreaterEqual(beyond, run.TAIL_BEYOND, n)
        self.assertEqual(run.tail_pct(5), 50)


class Failures(unittest.TestCase):
    def test_counts_failed_operations(self):
        self.assertEqual(run.failures(4, 2), 2)
        self.assertEqual(run.failures(3, 0), 0)

    def test_a_broken_workload_property_fails_the_whole_run(self):
        self.assertEqual(run.failures(5, 0, ["3 response-cache hits"]), 5)
        self.assertEqual(run.failures(5, 1, []), 1)


class BatchWalls(unittest.TestCase):
    def test_splits_completions_into_batches(self):
        done = [i * 0.001 for i in range(1, 2 * run.BATCH + 1)]
        walls = run.batch_walls(done)
        self.assertEqual(len(walls), 2)
        self.assertAlmostEqual(walls[0], run.BATCH * 0.001)
        self.assertAlmostEqual(walls[1], run.BATCH * 0.001)

    def test_short_windows_report_their_length(self):
        self.assertEqual(run.batch_walls([0.5, 0.2]), [0.5])


if __name__ == "__main__":
    unittest.main()
