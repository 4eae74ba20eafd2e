"""Self-tests of the benchmark on synthetic input; no workload is run.

    python3 -m unittest discover -s perfbench
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import (Recorder, aggregate, percentile_or_zero, self_times,  # noqa: E402
                   tail_percentile)
from workloads import (PROFILE_SEEDS, WORKLOADS, commands, key,  # noqa: E402
                       load_reference, units)


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [("cli.main", 0.0, 10.0, -1),
                 ("bounds.verify", 1.0, 4.0, 0),
                 ("complexity.profile", 2.0, 3.0, 1)]
        self.assertEqual(self_times(spans), [7.0, 2.0, 1.0])

    def test_back_to_back_children(self):
        spans = [("stats.exhaustive_count", 0.0, 10.0, -1),
                 ("complexity.complexity_at_most", 1.0, 3.0, 0),
                 ("complexity.complexity_at_most", 3.0, 6.0, 0)]
        self.assertEqual(self_times(spans), [5.0, 2.0, 3.0])

    def test_overlapping_children_counted_once(self):
        spans = [("a.f", 0.0, 10.0, -1), ("b.g", 1.0, 5.0, 0), ("b.h", 4.0, 6.0, 0)]
        self.assertEqual(self_times(spans)[0], 5.0)

    def test_layer_busy_counts_nested_calls_once(self):
        # profile(moc) calls profile(nk): one busy interval, two calls
        spans = [("bounds.verify", 0.0, 10.0, -1),
                 ("complexity.profile", 1.0, 9.0, 0),
                 ("complexity.profile", 2.0, 8.0, 1),
                 ("complexity.linear_profile", 9.0, 9.5, 0)]
        agg = aggregate(spans)
        prof = agg["functions"]["complexity.profile"]
        self.assertEqual(prof["calls"], 2)
        self.assertEqual(prof["busy_s"], 8.0)
        self.assertEqual(agg["layers"]["complexity"]["busy_s"], 8.5)
        self.assertEqual(agg["layers"]["complexity"]["self_s"], 2.0 + 6.0 + 0.5)
        self.assertEqual(agg["layers"]["bounds"]["self_s"], 1.5)

    def test_recorder_parents_and_exceptions(self):
        ticks = iter(range(100))
        rec = Recorder(clock=lambda: float(next(ticks)))

        def inner():
            raise ValueError("boom")

        traced_inner = rec.wrap("complexity.inner", inner)

        def outer():
            try:
                traced_inner()
            except ValueError:
                pass
            return 42

        self.assertEqual(rec.wrap("cli.outer", outer)(), 42)
        self.assertEqual(rec.spans, [["cli.outer", 0.0, 3.0, -1],
                                     ["complexity.inner", 1.0, 2.0, 0]])


class Percentiles(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 0.50)
        self.assertEqual(tail_percentile(99), 0.50)
        self.assertEqual(tail_percentile(100), 0.90)
        self.assertEqual(tail_percentile(999), 0.90)
        self.assertEqual(tail_percentile(1000), 0.99)
        self.assertEqual(tail_percentile(10_000), 0.999)

    def test_percentile_needs_ten_beyond(self):
        vals = list(range(1, 101))
        self.assertEqual(percentile_or_zero(vals, 0.90), 90)
        self.assertEqual(percentile_or_zero(vals[:99], 0.90), 0.0)
        self.assertEqual(percentile_or_zero([], 0.99), 0.0)


def _rep(cmds, seconds, rows, setup=0.5, rss=40.0):
    return {"setup_s": setup, "rss_mb": rss, "probe_s": 0.03,
            "commands": [{"rc": 0, "sha256": "x", "s": s, "rows": r}
                         for s, r in zip(seconds, rows)]}


class FakeRunner:
    """Stands in for run.Runner: returns canned child results."""

    def __init__(self, reps):
        self.reps = iter(reps)
        self.setups = 0

    def child(self, mode, fields, cmds=None):
        if mode == "setup":
            self.setups += 1
            return {"setup_s": 9.0}
        return next(self.reps)


class Rates(unittest.TestCase):
    def test_units(self):
        self.assertEqual(units(["count", "--q", "3", "--k", "1", "--n", "9", "--m", "3"], 1),
                         3 ** 9)
        self.assertEqual(units(["profile", "--q", "3", "--samples", "100"], 6), 100)
        self.assertEqual(units(["verify", "--q", "29"], 135), 135)

    def test_rep_rates_per_command_kind(self):
        cmds = commands(WORKLOADS["experiments"], 0)
        m = run.rep_metrics(cmds, _rep(cmds, [2.0, 1.0, 4.0], [1, 1, 6]))
        self.assertEqual(m["wall_s"], 7.0)
        self.assertEqual(m["seqs_per_s"], (2 ** 17 + 3 ** 9) / 3.0)
        self.assertEqual(m["samples_per_s"], 100 / 4.0)

    def test_measure_reports_medians(self):
        wl = WORKLOADS["sweep"]
        cmds = commands(wl, 0)
        reps = [_rep(cmds, [1.0, 1.0], [135, 384], setup=0.1),
                _rep(cmds, [2.0, 2.0], [135, 384], setup=0.3),
                _rep(cmds, [3.0, 1.0], [135, 384], setup=0.2)]
        fake = FakeRunner(reps)
        summary, raw = run.measure(fake, wl, cmds, seconds=0)
        self.assertEqual(raw["reps"], 3)
        self.assertEqual(fake.setups, run.SETUP_SAMPLES - run.MIN_REPS)
        self.assertEqual(summary["wall_s"], 4.0)
        self.assertEqual(summary["checks_per_s"], 519 / 4.0)
        self.assertEqual(summary["setup_s"], 0.3)  # median of 9, 9, .1, .3, .2
        self.assertEqual(raw["setup_samples"], [9.0, 9.0, 0.1, 0.3, 0.2])


class Reference(unittest.TestCase):
    def test_every_seed_has_a_pinned_output(self):
        ref = load_reference()
        for wl in WORKLOADS.values():
            for seed in range(2 * PROFILE_SEEDS):
                for argv in commands(wl, seed):
                    self.assertIn(key(argv), ref)

    def test_mismatch_counts_as_failed(self):
        cmds = commands(WORKLOADS["sweep"], 0)
        ref = load_reference()
        runner = run.Runner(ref, deadline=0.0)
        good = [dict(ref[key(c)], s=1.0) for c in cmds]
        bad = [dict(good[0], sha256="0" * 64), dict(good[1], rc=1)]
        runner.check(cmds, good)
        runner.check(cmds, bad)
        self.assertEqual((runner.attempted, runner.failed), (4, 2))


if __name__ == "__main__":
    unittest.main()
