"""Tests of perfbench's pure helpers (benchlib).

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchlib.estimators import summarize, trimmed_mean  # noqa: E402
from benchlib.rows import check_rows, row_problems  # noqa: E402
from benchlib.selftime import (  # noqa: E402
    covered, layer_self_times, self_times)


class EstimatorTest(unittest.TestCase):
    def test_trimmed_mean_drops_a_tenth_at_each_end(self):
        self.assertAlmostEqual(trimmed_mean([1.0, 2.0, 3.0, 6.0]), 3.0)
        samples = [1.0] + [2.0] * 8 + [50.0]  # one lucky, one stalled batch
        self.assertAlmostEqual(trimmed_mean(samples), 2.0)
        self.assertAlmostEqual(trimmed_mean(samples, share=0.0), 6.7)
        samples = [1.0] + [2.0] * 18 + [50.0, 60.0]  # two stalled of 21
        self.assertAlmostEqual(trimmed_mean(samples), 2.0)

    def test_trimmed_mean_drops_one_at_each_end_from_five_samples(self):
        # A campaign run holds five or six passes: int(6 * 0.1) is 0, yet a
        # stalled pass must still be dropped.
        self.assertAlmostEqual(trimmed_mean([7.0, 6.9, 7.1, 7.0, 9.9, 6.0]),
                               7.0)
        self.assertAlmostEqual(trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]), 3.0)

    def test_empty_samples_are_an_error(self):
        with self.assertRaises(ValueError):
            trimmed_mean([])

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, med, q3 = statistics.quantiles(values, n=4)
        s = summarize(values)
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]),
                         (q1, med, q3, 10))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / med)


def ev(name, ts, dur, id_, parent):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"id": id_, "parent": parent}}


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(covered([(0, 4), (2, 6), (8, 12)], 1, 10), 7)
        self.assertEqual(covered([], 0, 10), 0)

    def test_self_time_subtracts_children_only(self):
        events = [
            ev("replay.cell", 0, 100, 0, -1),
            ev("targets.realize", 10, 5, 1, 0),
            ev("sim.run_one", 20, 60, 2, 0),
            # A grandchild is charged to its parent, not to replay.cell.
            ev("core.opgen", 30, 10, 3, 2),
        ]
        self.assertEqual(self_times(events), {
            "replay.cell": 35, "targets.realize": 5, "sim.run_one": 50,
            "core.opgen": 10})
        self.assertEqual(layer_self_times(events), {
            "replay": 35, "targets": 5, "sim": 50, "core": 10})

    def test_self_times_sum_to_root_durations(self):
        events = [ev("a.x", 0, 50, 0, -1), ev("b.y", 5, 20, 1, 0),
                  ev("b.y", 30, 10, 2, 0), ev("c.z", 100, 7, 3, -1)]
        self.assertEqual(sum(self_times(events).values()), 57)


HEADER = ("scenario,time_cap,strategy,spec,k,D,placement,targets,trials,"
          "success,mean_time")


def rows(*lines):
    return "\n".join((HEADER,) + lines) + "\n"


ROW_A = "s,0,known-k(k=1),known-k,1,16,ring,single,8,1.0000,1800.5"
ROW_B = "s,0,spiral,spiral,1,16,ring,single,8,1.0000,512.0"


class RowCheckTest(unittest.TestCase):
    def test_clean_rows_pass(self):
        text = rows(ROW_A, ROW_B)
        self.assertEqual(check_rows(text, {"merged": text, "warm": text},
                                    pinned=text), (2, 0, []))

    def test_each_failed_row_counts_once(self):
        bad_pin = rows(ROW_A, ROW_B.replace("512.0", "513.0"))
        bad_warm = rows(ROW_A.replace("1800.5", "1800.6"), ROW_B)
        attempted, failed, messages = check_rows(
            rows(ROW_A, ROW_B), {"warm": bad_warm}, pinned=bad_pin)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("warm row differs", messages[0])
        self.assertIn("pinned", messages[1])

    def test_missing_and_surplus_rows_fail(self):
        self.assertEqual(check_rows(rows(ROW_A, ROW_B),
                                    {"merged": rows(ROW_A)})[:2], (2, 1))
        self.assertEqual(check_rows(rows(ROW_A),
                                    {"merged": rows(ROW_A, ROW_B)})[:2],
                         (2, 1))

    def test_uncapped_paper_algorithm_must_succeed(self):
        row = dict(zip(HEADER.split(","), ROW_A.split(",")))
        self.assertEqual(row_problems(row), [])
        row["success"] = "0.9900"
        self.assertEqual(len(row_problems(row)), 1)
        row["time_cap"] = "3000"  # capped cells may miss
        self.assertEqual(row_problems(row), [])
        row.update(time_cap="0", spec="random-walk")  # not a paper algorithm
        self.assertEqual(row_problems(row), [])

    def test_mean_time_below_distance_fails(self):
        row = dict(zip(HEADER.split(","), ROW_B.split(",")))
        row["mean_time"] = "15.5"
        self.assertEqual(len(row_problems(row)), 1)
        row["mean_time"] = "16"
        self.assertEqual(row_problems(row), [])

    def test_plane_cells_may_finish_one_sight_radius_early(self):
        row = dict(zip(HEADER.split(","), ROW_B.split(",")))
        row.update(spec="plane-known-k", time_cap="100000", mean_time="15")
        self.assertEqual(row_problems(row), [])
        row["mean_time"] = "14.9"
        self.assertEqual(len(row_problems(row)), 1)


if __name__ == "__main__":
    unittest.main()
