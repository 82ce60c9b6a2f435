"""Unit tests for the benchmark's statistics, on fixed synthetic samples.

    python3 -m unittest discover -s hdbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7, 1, 5, 3, 9, 11, 2, 8, 6, 4]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        # Exclusive method on 1..11 style data: 2.75, 5.5, 8.25.
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        values = [90, 95, 100, 105, 110]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 100)
        self.assertEqual(stats.spread([5, 5, 5, 5]), 0)


class Percentiles(unittest.TestCase):
    def test_linear_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 90.1)
        self.assertEqual(stats.percentile([10, 20], 50), 15)

    def test_tail_choice_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(39), 50)
        self.assertEqual(stats.tail_percentile(40), 75)
        self.assertEqual(stats.tail_percentile(99), 75)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_tail_reports_percentile_value_and_count(self):
        values = list(range(1, 101))
        p, value, n = stats.tail(values)
        self.assertEqual((p, n), (90, 100))
        self.assertAlmostEqual(value, 90.1)

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(stats.tail([3, 9, 4]), (100.0, 9, 3))


class PhaseAttribution(unittest.TestCase):
    def test_remainder_and_coverage(self):
        unattributed, coverage = stats.attribute_round(100.0,
                                                       [20, 50, 20, 6])
        self.assertAlmostEqual(unattributed, 4.0)
        self.assertAlmostEqual(coverage, 0.96)

    def test_full_coverage(self):
        self.assertEqual(stats.attribute_round(10, [1, 2, 3, 4]), (0, 1.0))

    def test_phases_longer_than_the_round_are_an_error(self):
        with self.assertRaises(ValueError):
            stats.attribute_round(10, [5, 6, 0, 0])
        with self.assertRaises(ValueError):
            stats.attribute_round(0, [0, 0, 0, 0])


class EngineCoverage(unittest.TestCase):
    def test_round_zero_is_left_out(self):
        phases = [[1, 1, 1, 1], [10, 20, 30, 35], [5, 5, 5, 5]]
        engine = [500, 100, 25]
        self.assertAlmostEqual(stats.engine_coverage([(phases, engine)]),
                               (95 + 20) / 125)

    def test_work_outside_the_hooks_lowers_the_share(self):
        phases = [[0, 0, 0, 0], [25, 25, 25, 25]]
        self.assertEqual(stats.engine_coverage([(phases, [1, 100])]), 1.0)
        self.assertEqual(stats.engine_coverage([(phases, [1, 125])]), 0.8)

    def test_pairs_are_pooled(self):
        phases = [[0, 0, 0, 0], [25, 25, 25, 25]]
        pairs = [(phases, [9, 80]), (phases, [9, 120])]
        self.assertEqual(stats.engine_coverage(pairs), 1.0)

    def test_round_counts_must_agree(self):
        with self.assertRaises(ValueError):
            stats.engine_coverage([([[1, 1, 1, 1]] * 3, [4, 4])])
        with self.assertRaises(ValueError):
            stats.engine_coverage([([[1, 1, 1, 1]], [4])])
        with self.assertRaises(ValueError):
            stats.engine_coverage([])


class BoundComparison(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertTrue(stats.within_bound(100, 110, 0.1, "lower"))
        self.assertFalse(stats.within_bound(100, 110.5, 0.1, "lower"))
        self.assertTrue(stats.within_bound(100, 50, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertTrue(stats.within_bound(100, 90, 0.1, "higher"))
        self.assertFalse(stats.within_bound(100, 89.5, 0.1, "higher"))
        self.assertTrue(stats.within_bound(100, 200, 0.1, "higher"))

    def test_unknown_direction_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.within_bound(1, 1, 0.1, "sideways")


if __name__ == "__main__":
    unittest.main()
