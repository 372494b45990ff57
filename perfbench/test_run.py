"""Tests of the benchmark's check path and trace analysis.

Run from the repository root:  python3 -m unittest perfbench/test_run.py
They need no build: they feed run.py's functions hand-made records.
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def design_op(**outputs):
    base = {
        "budget": 900,
        "links": 87,
        "towers": 889,
        "stretch": 1.0322893024815645,
        "cost_per_gb": 0.3841610261870358,
        "feasible_hops": 138408,
    }
    base.update(outputs)
    return {"op": "design", "wall_s": 20.0, "outputs": base, "stats": {}, "error": ""}


def span(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid}


class CheckPath(unittest.TestCase):
    def test_golden_values_match_the_cli(self):
        golden = run.load_golden("design-us", 0)
        self.assertEqual(run.assess([design_op()], golden), (1, 0, []))

    def test_wrong_golden_value_is_a_failed_op(self):
        golden = {"design": {"links": 88}}
        attempted, failed, messages = run.assess([design_op(), design_op()], golden)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("links = 87, golden 88", messages[0])

    def test_golden_comparison_is_bit_for_bit(self):
        golden = {"design": {"stretch": math.nextafter(1.0322893024815645, 2.0)}}
        self.assertEqual(run.assess([design_op()], golden)[1], 1)

    def test_golden_values_apply_only_at_the_default_seed(self):
        self.assertIsNone(run.load_golden("design-us", 5))
        self.assertEqual(run.assess([design_op(links=90)], run.load_golden("design-us", 5))[1], 0)

    def test_broken_invariants_fail_at_any_seed(self):
        bad = [
            design_op(stretch=0.99),
            design_op(towers=901),
            design_op(cost_per_gb=float("inf")),
            {"op": "sim", "wall_s": 1.0, "error": "", "stats": {},
             "outputs": {"sent": 10, "delivered": 9, "dropped": 0, "mean_delay_ms": 7.0, "loss_rate": 1.5}},
        ]
        attempted, failed, _ = run.assess(bad, None)
        self.assertEqual((attempted, failed), (4, 4))

    def test_exception_and_malformed_outputs_are_failed_ops(self):
        ops = [
            {"op": "year", "wall_s": 0.1, "outputs": {}, "stats": {}, "error": "Invalid_argument(\"x\")"},
            {"op": "year", "wall_s": 0.1, "outputs": {"median_best": 1.0}, "stats": {}, "error": ""},
            design_op(),
        ]
        attempted, failed, messages = run.assess(ops, None)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertTrue(messages[0].startswith("year: raised"))

    def test_frontier_invariants(self):
        csv = run.load_golden("operate-us", 0)["scenarios"]["frontier_csv"]
        op = {"op": "scenarios", "wall_s": 1.0, "stats": {}, "error": "", "outputs": {"frontier_csv": csv}}
        self.assertEqual(run.assess([op], None)[1], 0)
        broken = dict(op, outputs={"frontier_csv": csv.replace("1.000000", "1.200000", 1)})
        self.assertEqual(run.assess([broken], None)[1], 1)


class SelfTimes(unittest.TestCase):
    # A traced pass: the root span, two bench calls with program spans
    # inside them, one program span of an unmapped name, and sibling
    # spans that abut within the trace's 0.1 us rounding.
    EVENTS = [
        span("bench.run", 0.0, 1000.0),
        span("bench.towers.hops_build", 10.0, 400.0),
        span("hops.build", 10.1, 399.8),
        span("hops.tower_los", 20.0, 300.0),
        span("bench.graph.all_links", 410.0, 500.0),
        span("hops.all_links", 410.0, 499.9),
        span("ch.build", 420.0, 450.0),
        span("mystery.phase", 880.0, 20.0),
        span("bench.design.heuristic", 909.9, 80.0),
        span("greedy.design", 910.0, 70.0),
        {"name": "hops.los_tests", "ph": "C", "ts": 1000.0, "pid": 1, "tid": 0, "args": {"value": 5}},
    ]

    def test_self_times_sum_to_the_traced_wall_time(self):
        selfs = run.self_times(self.EVENTS)
        root = next(e for e in self.EVENTS if e["name"] == "bench.run")
        self.assertAlmostEqual(sum(selfs.values()), root["dur"] / 1e6, places=12)

    def test_self_time_is_attributed_to_layers(self):
        selfs = run.self_times(self.EVENTS)
        # hops.* is the towers layer's Hops module, and the unmapped
        # span inside hops.all_links counts as towers too.
        self.assertAlmostEqual(selfs["towers"], (400.0 + 29.9 + 20.0) * 1e-6, places=12)
        self.assertAlmostEqual(selfs["graph"], (0.1 + 450.0) * 1e-6, places=12)
        self.assertAlmostEqual(selfs["design"], 80.0e-6, places=12)
        self.assertAlmostEqual(selfs["bench"], 20.0e-6, places=12)

    def test_threads_nest_separately(self):
        events = [span("bench.run", 0.0, 100.0, tid=0), span("sim.run", 50.0, 100.0, tid=1)]
        selfs = run.self_times(events)
        self.assertAlmostEqual(selfs["bench"], 100e-6, places=12)
        self.assertAlmostEqual(selfs["sim"], 100e-6, places=12)


if __name__ == "__main__":
    unittest.main()
