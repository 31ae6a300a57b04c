"""Tests of the compare verdict rule, the paired run order and the
result line (python3 perfbench/run.py selftest)."""

import io
import unittest

import compare
import run


class Verdict(unittest.TestCase):
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def test_same_runs_are_no_worse(self):
        self.assertEqual(compare.verdict(self.parent, list(self.parent), "lower", 0.1),
                         "no worse")

    def test_clear_gain_is_improved(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "improved")
        faster = [x * 1.25 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, faster, "higher", 0.1), "improved")

    def test_gain_needs_nine_of_ten_pairs(self):
        change = [x * 0.8 for x in self.parent]
        change[0] = change[1] = 200  # two pairs lost: 8/10
        self.assertNotEqual(compare.verdict(self.parent, change, "lower", 0.5), "improved")

    def test_gain_needs_more_than_parent_iqr(self):
        # every pair won, but by less than the parent's own spread
        change = [x - 0.5 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "no worse")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(compare.wins([1, 2, 3], [1, 1, 4], "lower"), 1)
        self.assertEqual(compare.wins([1, 2, 3], [1, 1, 4], "higher"), 1)

    def test_worse_than_bound_is_regressed(self):
        change = [x * 1.3 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "regressed")
        slower = [x * 0.7 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, slower, "higher", 0.1), "regressed")

    def test_within_bound_is_no_worse(self):
        change = [x * 1.05 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "no worse")

    def test_wide_parent_is_unresolved(self):
        wide = [50, 150, 60, 140, 100, 70, 130, 80, 120, 90]
        self.assertGreater(compare.spread(wide), 0.1)
        self.assertEqual(compare.verdict(wide, list(wide), "lower", 0.1), "unresolved")

    def test_wide_but_every_run_better_is_not_unresolved(self):
        wide = [50, 150, 60, 140, 100, 70, 130, 80, 120, 90]
        change = [x / 4 for x in wide]
        self.assertEqual(compare.verdict(wide, change, "lower", 0.1), "improved")

    def test_fewer_than_ten_pairs_are_unresolved(self):
        self.assertEqual(compare.verdict([1.0], [1.0], "lower", 0.1), "unresolved")
        self.assertEqual(compare.verdict(self.parent[:9], [x * 2 for x in self.parent[:9]],
                                         "lower", 0.1), "unresolved")

    def test_quartiles_match_statistics(self):
        q1, med, q3 = compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))


class Report(unittest.TestCase):
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "x_ms", "unit": "ms", "better": "lower"}],
    }

    @staticmethod
    def rec(seed, value, trace=False, name="p50_ms"):
        return {"workload": "w", "seed": seed, "trace": trace,
                "result": {"metrics": {name: {"value": value, "unit": "ms"}}}}

    def test_report_pairs_by_seed_and_prints_layers(self):
        parent = [self.rec(s, 10 + s % 2) for s in range(10)]
        change = [self.rec(s, 20 + s % 2) for s in reversed(range(10))]
        parent.append(self.rec(0, 4.0, True, "x_ms"))
        change.append(self.rec(0, 5.0, True, "x_ms"))
        out = io.StringIO()
        verdicts = compare.report(parent, change, self.bench, out)
        self.assertEqual(verdicts, [("w", "p50_ms", "regressed")])
        self.assertIn("x_ms", out.getvalue())
        self.assertIn("+25.0%", out.getvalue())


class Collect(unittest.TestCase):
    def test_each_side_goes_first_in_half_the_pairs(self):
        sides = [("parent", "a"), ("change", "b")]
        for wi in range(3):
            firsts = [run.pair_order(sides, wi, seed)[0][0] for seed in range(1, 11)]
            self.assertEqual(firsts.count("parent"), 5)
            self.assertEqual(firsts.count("change"), 5)


class ResultLine(unittest.TestCase):
    bench = {
        "end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "a_ms", "unit": "ms", "better": "lower"},
                      {"name": "b", "unit": "count", "better": "lower"}],
    }

    @staticmethod
    def raw(metrics):
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    def test_units_come_from_the_benchmark(self):
        line = run.result_line(self.raw({"p50_ms": 1.5}), self.bench, 0)
        self.assertEqual(line["metrics"], {"p50_ms": {"value": 1.5, "unit": "ms"}})
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (True, 3, 0))

    def test_unreached_layer_reads_zero(self):
        line = run.result_line(self.raw({"a_ms": 2.0}), self.bench, 1)
        self.assertEqual(line["metrics"]["b"], {"value": 0.0, "unit": "count"})

    def test_missing_end_to_end_metric_fails(self):
        with self.assertRaises(SystemExit):
            run.result_line(self.raw({}), self.bench, 0)

    def test_unknown_metric_fails(self):
        with self.assertRaises(SystemExit):
            run.result_line(self.raw({"p50_ms": 1.0, "typo_ms": 2.0}), self.bench, 0)


if __name__ == "__main__":
    unittest.main()
