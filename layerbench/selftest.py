"""Self-tests of the benchmark's own arithmetic (no workload runs).

    python3 layerbench/selftest.py

Covers the percentile rule, the per-epoch median, the probe
normalisation, self-time accounting of nested and recursive spans,
attempted/failed counting, and the correctness rules (pinned guard
fingerprints, every traced entry point found).
"""

from __future__ import annotations

import importlib
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import correctness, end_to_end  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    OpCounter,
    beyond,
    epoch_median,
    normalise,
    percentile,
    probe_rate,
    spread,
    tail_percentile,
)
from tracer import LAYERS, LayerTracer, report  # noqa: E402


class FakeTimer:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50.0), 50)
        self.assertEqual(percentile(values, 90.0), 90)
        self.assertEqual(percentile(values, 100.0), 100)
        self.assertEqual(percentile([7], 99.0), 7)

    def test_reported_only_with_ten_beyond(self):
        # 100 samples: 10 lie beyond the p90, 1 beyond the p99.
        values = list(range(100))
        self.assertEqual(beyond(100, 90.0), MIN_BEYOND)
        self.assertEqual(tail_percentile(values, 90.0), 89)
        self.assertIsNone(tail_percentile(values, 99.0))
        self.assertIsNone(tail_percentile(values[:99], 90.0))
        self.assertEqual(tail_percentile(list(range(1000)), 99.0), 989)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            percentile([], 50.0)
        with self.assertRaises(ValueError):
            percentile([1], 0.0)


class EpochMedian(unittest.TestCase):
    def test_statistic_per_epoch_then_median(self):
        # Pooling these samples would give a median of 100; per epoch
        # the medians are 1, 2 and 100, so the reported value is 2.
        epochs = [[1, 1, 1], [2, 2, 2], [100] * 6]
        per_epoch = [percentile(samples, 50.0) for samples in epochs]
        self.assertEqual(epoch_median(per_epoch), 2)

    def test_abstaining_epochs_are_skipped(self):
        epochs = [list(range(100)), list(range(10)), list(range(200, 300))]
        per_epoch = [tail_percentile(samples, 90.0) for samples in epochs]
        self.assertEqual(per_epoch[1], None)
        self.assertEqual(epoch_median(per_epoch), (89 + 289) / 2)
        self.assertIsNone(epoch_median([None, None]))


class Normalisation(unittest.TestCase):
    def test_times_scale_with_probe_rate(self):
        # A host running at half the nominal speed reads twice as long.
        self.assertAlmostEqual(normalise(20.0, 50.0, 100.0, "time"), 10.0)
        self.assertAlmostEqual(normalise(20.0, 100.0, 100.0, "time"), 20.0)

    def test_rates_scale_inversely(self):
        self.assertAlmostEqual(normalise(500.0, 50.0, 100.0, "rate"), 1000.0)

    def test_probe_rate_is_geometric_mean(self):
        self.assertAlmostEqual(probe_rate(50.0, 200.0), 100.0)
        with self.assertRaises(ValueError):
            probe_rate(0.0, 1.0)
        with self.assertRaises(ValueError):
            normalise(1.0, 1.0, 1.0, "speed")

    def test_spread(self):
        self.assertAlmostEqual(spread([10.0] * 10), 0.0)
        self.assertAlmostEqual(spread([1.0, 2.0, 3.0, 4.0, 5.0]), (4.5 - 1.5) / 3.0)

    def test_end_to_end_metrics(self):
        measured = {
            "epochs": [
                {"host_ns": 1_000_000_000, "completed": 100, "p50": 2_000, "p90": 4_000},
                {"host_ns": 2_000_000_000, "completed": 100, "p50": 3_000, "p90": None},
                {"host_ns": 500_000_000, "completed": 100, "p50": 1_000, "p90": 6_000},
            ],
            "peak_rss_mb": 12.5,
        }
        e2e = end_to_end(measured, setup_ns=2e9, rate=1.0, nominal=2.0)
        self.assertEqual(e2e["raw"]["sim_rps"], 100.0)
        self.assertEqual(e2e["raw"]["req_p50_us"], 2.0)
        self.assertEqual(e2e["raw"]["req_p90_us"], 5.0)
        metrics = e2e["metrics"]
        self.assertEqual(metrics["sim_rps"]["value"], 200.0)
        self.assertEqual(metrics["req_p50_us"]["value"], 1.0)
        self.assertEqual(metrics["setup_s"]["value"], 1.0)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 12.5)


class SelfTime(unittest.TestCase):
    def setUp(self):
        self.clock = FakeTimer()
        self.tracer = LayerTracer(timer=self.clock)

    def advance(self, ns):
        self.clock.now += ns

    def test_nested_spans(self):
        tracer = self.tracer

        def inner():
            self.advance(30)

        inner = tracer.wrap("codec", "inner", inner)

        def outer():
            self.advance(10)
            inner()
            self.advance(5)
            inner()

        tracer.wrap("rmi", "outer", outer)()
        totals = tracer.layer_totals()
        self.assertEqual(totals["rmi"], (1, 15))
        self.assertEqual(totals["codec"], (2, 60))

    def test_layer_calling_itself(self):
        tracer = self.tracer

        def recurse(depth):
            self.advance(7)
            if depth:
                wrapped(depth - 1)

        wrapped = tracer.wrap("charge", "recurse", recurse)
        wrapped(3)
        # Four spans, each 7 ns of its own work: no double counting.
        self.assertEqual(tracer.layer_totals()["charge"], (4, 28))

    def test_exception_still_closes_span(self):
        tracer = self.tracer
        seen = []

        def boom():
            self.advance(3)
            raise KeyError("x")

        def hook(tr, args, result, exc):
            seen.append(type(exc).__name__)

        wrapped = tracer.wrap("app", "boom", boom, hook)
        with self.assertRaises(KeyError):
            tracer.wrap("rmi", "outer", lambda: wrapped())()
        self.assertEqual(tracer.layer_totals()["app"], (1, 3))
        self.assertEqual(tracer.layer_totals()["rmi"], (1, 0))
        self.assertEqual(seen, ["KeyError"])

    def test_report_shares_and_unattributed(self):
        tracer = self.tracer
        tracer.wrap("scheduler", "step", lambda: self.advance(40))()
        metrics = report(tracer, window_ns=100)
        self.assertAlmostEqual(metrics["scheduler.share"], 0.4)
        self.assertAlmostEqual(metrics["unattributed.share"], 0.6)
        for layer in LAYERS:
            self.assertIn(f"{layer}.calls", metrics)

    def test_reset_between_phases(self):
        tracer = self.tracer
        wrapped = tracer.wrap("gc", "scan", lambda: self.advance(5))
        wrapped()
        tracer.reset()
        wrapped()
        self.assertEqual(tracer.layer_totals()["gc"], (1, 5))


class FailureCounting(unittest.TestCase):
    def test_counter(self):
        ops = OpCounter()
        ops.ok()
        ops.fail()
        ops.ok()
        self.assertEqual((ops.attempted, ops.failed), (3, 1))

    def test_error_in_a_request_fails_only_that_op(self):
        from repro.errors import RegistryError
        from workloads import BankContended

        class FlakyAccount:
            balance = 0
            updates = 0

            def update_balance(self, amount):
                self.updates += 1
                if self.updates == 2:
                    raise RegistryError("mirror released")
                self.balance += amount

            def get_balance(self):
                return self.balance

        workload = BankContended(seed=1)
        workload.accounts = [FlakyAccount()]
        workload.expected = [0]
        body = workload._body([0], random.Random(1))
        for _ in range(3):
            next(body)
        ops = workload.clock.ops
        self.assertEqual((ops.attempted, ops.failed), (3, 1))
        self.assertEqual(workload.clock.completed, 3)
        self.assertEqual(workload.mismatches, [])


class Correctness(unittest.TestCase):
    def test_correctness_rules(self):
        run = {"guard": "g", "fingerprint": "f", "mismatches": []}
        self.assertEqual(correctness([run, dict(run)], [run], "g"), [])
        other_guard = dict(run, guard="h")
        self.assertTrue(correctness([run, other_guard], [run], "g"))
        traced = dict(run, fingerprint="x")
        self.assertTrue(correctness([run, traced], [run, traced], "g"))
        broken = dict(run, mismatches=["decrypt != plaintext"])
        self.assertEqual(
            correctness([broken], [broken], "g"), ["output check: decrypt != plaintext"]
        )

    def test_guard_must_match_the_pinned_fingerprint(self):
        run = {"guard": "g", "fingerprint": "f", "mismatches": []}
        self.assertEqual(len(correctness([run, dict(run)], [run], "pinned")), 1)

    def test_untraced_entry_point_is_a_problem(self):
        run = {"guard": "g", "fingerprint": "f", "mismatches": []}
        traced = dict(run, missing=["repro.batching.coalescer:CallCoalescer._flush"])
        self.assertEqual(
            correctness([run, traced], [run, traced], "g"),
            ["entry point not traced: repro.batching.coalescer:CallCoalescer._flush"],
        )

    def test_every_entry_point_is_found(self):
        import tracer

        layer_tracer = tracer.LayerTracer()
        saved = {}
        for _, module_name, qualname, _, _ in tracer.ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for name in path:
                owner = getattr(owner, name)
            if attr in vars(owner):
                saved[(owner, attr)] = vars(owner)[attr]
        try:
            self.assertEqual(tracer.install(layer_tracer), [])
        finally:
            for (owner, attr), original in saved.items():
                setattr(owner, attr, original)

    def test_pinned_guards_cover_every_workload(self):
        from run import WORKLOADS, pinned_guard

        for workload in WORKLOADS:
            self.assertRegex(pinned_guard(workload), "^[0-9a-f]{64}$")


if __name__ == "__main__":
    unittest.main()
