#!/usr/bin/env python3
"""Self-tests of the benchmark's percentile discipline and output checks.

    python3 perfbench/tests.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import discipline  # noqa: E402
import verify  # noqa: E402


class PercentileDiscipline(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        p = discipline.percentile(list(range(1000)), 99)
        self.assertEqual((p.value, p.n, p.beyond), (989, 1000, 10))
        with self.assertRaises(discipline.RefusedPercentile):
            discipline.percentile(list(range(999)), 99)

    def test_median_needs_twenty_samples(self):
        self.assertEqual(discipline.percentile(list(range(20)), 50).beyond, 10)
        with self.assertRaises(discipline.RefusedPercentile):
            discipline.percentile(list(range(19)), 50)

    def test_per_run_percentiles_of_a_batch_are_refused(self):
        # 52 run durations support no p99: the rule the batch must keep.
        with self.assertRaises(discipline.RefusedPercentile):
            discipline.percentile([float(i) for i in range(52)], 99)

    def test_nearest_rank_ignores_input_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(discipline.percentile(values, 50).value, 3.0)

    def test_description_carries_counts(self):
        text = discipline.percentile([0.001] * 2000, 99).describe(1e3, "ms")
        self.assertEqual(text, "p99 1 ms (n=2000, 20 beyond)")

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(discipline.spread([10.0] * 9 + [10.5]), 0.0)
        self.assertGreater(discipline.spread([9.0, 10.0, 11.0, 12.0]), 0.1)


DECISION = (b'{"type":"decision","t":8760,"policy":"coca","levels":[4,0],'
            b'"loads":[224.66437695597418,0.0],"servers_on":100,'
            b'"total_cost":38.53847307773979,"brown_energy":160.44008028478984,'
            b'"telemetry":{"deficit_kwh":0.0,"frame_pos":0,"v":100.0}}')


class OutputChecks(unittest.TestCase):
    def test_identical_and_last_ulp_decisions_match(self):
        self.assertTrue(verify.decision_matches(DECISION, DECISION))
        nudged = DECISION.replace(b"38.53847307773979", b"38.53847307773980")
        self.assertTrue(verify.decision_matches(nudged, DECISION))

    def test_levels_and_counts_must_match_exactly(self):
        for old, new in ((b"[4,0]", b"[3,0]"), (b'"servers_on":100', b'"servers_on":99'),
                         (b'"t":8760', b'"t":8761')):
            self.assertFalse(verify.decision_matches(DECISION.replace(old, new), DECISION))

    def test_floats_beyond_tolerance_fail(self):
        off = DECISION.replace(b"160.44008028478984", b"160.44008")
        self.assertFalse(verify.decision_matches(off, DECISION))

    def test_missing_or_mistyped_fields_fail_without_raising(self):
        no_loads = DECISION.replace(b'"loads":[224.66437695597418,0.0],', b"")
        self.assertFalse(verify.decision_matches(no_loads, DECISION))
        for old, new in ((b'"total_cost":38.53847307773979', b'"total_cost":"38.5"'),
                         (b'"loads":[224.66437695597418,0.0]', b'"loads":224.66'),
                         (b'{"deficit_kwh":0.0,"frame_pos":0,"v":100.0}', b'{"v":100.0}'),
                         (b'{"deficit_kwh":0.0,"frame_pos":0,"v":100.0}', b"[0]")):
            self.assertFalse(verify.decision_matches(DECISION.replace(old, new), DECISION))

    def test_count_correct_keys_by_slot(self):
        blob = DECISION + b"\n" + b'{"type":"end","slots":8761}\n'
        reference = verify.decision_lines(DECISION + b"\n")
        self.assertEqual(list(reference), [8760])
        self.assertEqual(verify.count_correct(blob, reference), 1)
        self.assertEqual(verify.count_correct(b"", reference), 0)
        garbled = DECISION.replace(b'"t":8760', b'"t":"x"') + b"\n"
        self.assertEqual(verify.count_correct(garbled, reference), 0)

    def test_csv_tolerance_and_headers(self):
        ref = "V,coca\n2.578708057439543,42.50459873891523\n"
        self.assertEqual(verify.compare_csv(ref, ref), [])
        self.assertEqual(verify.compare_csv(ref.replace("523", "524"), ref), [])
        self.assertTrue(verify.compare_csv(ref.replace("42.50", "42.51"), ref))
        self.assertTrue(verify.compare_csv(ref.replace("coca", "opt"), ref))
        self.assertTrue(verify.compare_csv(ref + "1,2\n", ref))


if __name__ == "__main__":
    unittest.main()
