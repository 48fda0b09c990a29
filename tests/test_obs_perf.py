"""SLO watchdog and exporter edge cases.

Covers the SLO watchdog (:mod:`repro.obs.slo`) and the exporter edge
cases: empty run, post-wrap Chrome export, schema round-trips.
"""

import json

import pytest

from repro.costs.platform import Platform
from repro.obs import export as obs_export
from repro.obs.recorder import RunRecorder, recording
from repro.obs.slo import (
    SloRule,
    SloWatchdog,
    default_rulebook,
    resolve_metric,
    validate_slo,
    write_slo,
    load_slo,
)


# -- SLO rules -------------------------------------------------------------------


def _threshold_rule(threshold=5.0, metric="test.gauge", **kw):
    return SloRule(
        name=kw.pop("name", "gauge-high"),
        kind="threshold",
        metric=metric,
        threshold=threshold,
        **kw,
    )


class TestSloRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            SloRule(name="x", kind="nope", metric="m", threshold=1.0)
        with pytest.raises(ValueError):
            SloRule(name="x", kind="burn_rate", metric="m", threshold=1.0)
        with pytest.raises(ValueError):
            SloRule(
                name="x", kind="rate", metric="m", threshold=1.0, window_ns=0
            )
        with pytest.raises(ValueError):
            _threshold_rule(comparison="!=")

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            SloWatchdog([_threshold_rule(), _threshold_rule()])

    def test_resolve_metric_patterns_sum(self):
        platform = Platform()
        metrics = platform.enable_observability().metrics
        metrics.counter("charge.ns.recovery.reinit").inc(10)
        metrics.counter("charge.ns.recovery.restore").inc(5)
        assert resolve_metric(metrics, "charge.ns.recovery.*") == 15
        assert resolve_metric(metrics, "charge.ns.recovery.reinit") == 10
        assert resolve_metric(metrics, "charge.ns.absent.*") is None
        assert resolve_metric(metrics, "absent") is None

    def test_threshold_alert_is_edge_triggered_with_rearm(self):
        platform = Platform()
        watchdog = SloWatchdog([_threshold_rule()], evaluate_every_ns=1.0)
        watchdog.attach(platform, label="t")
        obs = platform.obs
        gauge = obs.metrics.gauge("test.gauge")

        def tick():
            platform.charge_ns("work", 5.0)

        tick()  # gauge at 0: ok
        gauge.set(10.0)
        tick()  # breached: one alert
        tick()  # still breached: no new alert
        assert len(watchdog.alerts) == 1
        gauge.set(1.0)
        tick()  # back under: re-arms
        gauge.set(10.0)
        tick()  # second episode: second alert
        assert len(watchdog.alerts) == 2
        alert = watchdog.alerts[0]
        assert alert.rule == "gauge-high"
        assert alert.value == 10.0
        assert alert.at_ns > 0
        assert alert.session == "t"

    def test_alert_visible_in_span_stream(self):
        platform = Platform()
        watchdog = SloWatchdog([_threshold_rule()], evaluate_every_ns=1.0)
        watchdog.attach(platform)
        platform.obs.metrics.gauge("test.gauge").set(10.0)
        platform.charge_ns("work", 5.0)
        instants = [
            e for e in platform.obs.tracer.events() if e.kind == "instant"
        ]
        assert any(e.name == "slo.alert" for e in instants)
        (alert_event,) = [e for e in instants if e.name == "slo.alert"]
        assert alert_event.attrs["rule"] == "gauge-high"
        assert alert_event.attrs["threshold"] == 5.0

    def test_rate_rule_per_virtual_second(self):
        rule = SloRule(
            name="fast",
            kind="rate",
            metric="test.events",
            threshold=1_000_000.0,  # 1M/s
            window_ns=1_000.0,
        )
        platform = Platform()
        watchdog = SloWatchdog([rule], evaluate_every_ns=1.0)
        watchdog.attach(platform)
        counter = platform.obs.metrics.counter("test.events")
        # 10 events over 100 virtual ns = 1e8/s >> threshold.
        for _ in range(10):
            counter.inc()
            platform.charge_ns("work", 10.0)
        assert any(a.rule == "fast" for a in watchdog.alerts)
        assert watchdog.verdicts()["fast"]["status"] == "breached"

    def test_rate_rule_quiet_below_threshold(self):
        rule = SloRule(
            name="slow",
            kind="rate",
            metric="test.events",
            threshold=1e12,
            window_ns=1_000.0,
        )
        platform = Platform()
        watchdog = SloWatchdog([rule], evaluate_every_ns=1.0)
        watchdog.attach(platform)
        counter = platform.obs.metrics.counter("test.events")
        for _ in range(10):
            counter.inc()
            platform.charge_ns("work", 10.0)
        assert watchdog.alerts == []
        assert watchdog.verdicts()["slow"]["status"] == "ok"

    def test_burn_rate_share_of_denominator(self):
        rule = SloRule(
            name="fallback-share",
            kind="burn_rate",
            metric="pool.fallbacks",
            denominator=("pool.fallbacks", "pool.hits"),
            threshold=0.5,
            window_ns=10_000.0,
        )
        platform = Platform()
        watchdog = SloWatchdog([rule], evaluate_every_ns=1.0)
        watchdog.attach(platform)
        fallbacks = platform.obs.metrics.counter("pool.fallbacks")
        hits = platform.obs.metrics.counter("pool.hits")
        # Healthy phase: 1 fallback per 9 hits -> share 0.1, quiet.
        for _ in range(5):
            hits.inc(9)
            fallbacks.inc(1)
            platform.charge_ns("work", 10.0)
        assert watchdog.alerts == []
        # Saturated phase: fallbacks dominate the window -> fires.
        for _ in range(10):
            fallbacks.inc(9)
            hits.inc(1)
            platform.charge_ns("work", 10.0)
        assert any(a.rule == "fallback-share" for a in watchdog.alerts)

    def test_missing_metric_abstains(self):
        platform = Platform()
        watchdog = SloWatchdog(
            [_threshold_rule(metric="never.emitted")], evaluate_every_ns=1.0
        )
        watchdog.attach(platform)
        platform.charge_ns("work", 5.0)
        watchdog.evaluate_now()
        assert watchdog.alerts == []
        verdict = watchdog.verdicts()["gauge-high"]
        assert verdict["status"] == "ok"
        assert verdict["worst"] is None

    def test_report_schema_round_trip(self, tmp_path):
        platform = Platform()
        watchdog = SloWatchdog([_threshold_rule()], evaluate_every_ns=1.0)
        watchdog.attach(platform)
        platform.obs.metrics.gauge("test.gauge").set(10.0)
        platform.charge_ns("work", 5.0)
        doc = watchdog.report()
        validate_slo(doc)
        path = tmp_path / "slo.json"
        write_slo(str(path), doc)
        loaded = load_slo(str(path))
        assert loaded["verdicts"]["gauge-high"]["status"] == "breached"
        assert loaded["alerts"][0]["rule"] == "gauge-high"

    def test_validate_slo_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_slo([])
        with pytest.raises(ValueError):
            validate_slo({"schema": "nope"})
        with pytest.raises(ValueError):
            validate_slo(
                {
                    "schema": "repro.obs/slo@1",
                    "rules": [],
                    "alerts": [
                        {"rule": "ghost", "value": 1, "threshold": 0,
                         "at_ns": 0, "severity": "info"}
                    ],
                    "verdicts": {},
                }
            )

    def test_default_rulebook_names(self):
        names = {rule.name for rule in default_rulebook()}
        assert names == {
            "pool-fallback-burn",
            "epc-residency",
            "crossing-rate",
            "recovery-budget",
            "admission-queue",
            "shed-burn",
            "migration-budget",
        }

    def test_admission_queue_rule_edge_triggers_and_rearms(self):
        platform = Platform()
        rules = default_rulebook(admission_queue_depth=4.0)
        watchdog = SloWatchdog(rules, evaluate_every_ns=1.0)
        watchdog.attach(platform, label="traffic")
        depth = platform.obs.metrics.gauge("traffic.admission.queue_depth")

        def tick():
            platform.charge_ns("work", 5.0)

        tick()  # no backlog yet: quiet
        depth.set(6.0)
        tick()  # backlog above threshold: one alert
        tick()  # latched: still one
        queue_alerts = [
            a for a in watchdog.alerts if a.rule == "admission-queue"
        ]
        assert len(queue_alerts) == 1
        assert queue_alerts[0].value == 6.0
        assert queue_alerts[0].severity == "warning"
        depth.set(0.0)
        tick()  # drained: re-arms
        depth.set(9.0)
        tick()  # second backlog episode: second alert
        assert (
            len([a for a in watchdog.alerts if a.rule == "admission-queue"])
            == 2
        )

    def test_shed_burn_rule_fires_on_shed_share(self):
        platform = Platform()
        rules = default_rulebook(shed_share=0.05, window_ns=100.0)
        watchdog = SloWatchdog(rules, evaluate_every_ns=1.0)
        watchdog.attach(platform)
        offered = platform.obs.metrics.counter("traffic.offered")
        shed = platform.obs.metrics.counter("traffic.shed_total")
        # Healthy phase: nothing shed -> quiet.
        for _ in range(5):
            offered.inc(10)
            platform.charge_ns("work", 10.0)
        assert not any(a.rule == "shed-burn" for a in watchdog.alerts)
        # Overload phase: half the offered load shed inside the window.
        for _ in range(10):
            offered.inc(10)
            shed.inc(5)
            platform.charge_ns("work", 10.0)
        burn = [a for a in watchdog.alerts if a.rule == "shed-burn"]
        assert burn and burn[0].severity == "critical"

    def test_migration_budget_rule_sums_charge_pattern(self):
        platform = Platform()
        rules = default_rulebook(migration_budget_ns=50_000.0)
        watchdog = SloWatchdog(rules, evaluate_every_ns=1.0)
        watchdog.attach(platform)
        metrics = platform.obs.metrics
        # Under budget across two migration categories: quiet.
        metrics.counter("charge.ns.migration.transfer").inc(20_000.0)
        metrics.counter("charge.ns.migration.attest").inc(20_000.0)
        platform.charge_ns("work", 5.0)
        assert not any(
            a.rule == "migration-budget" for a in watchdog.alerts
        )
        # One more retry's worth of backoff tips the summed budget.
        metrics.counter("charge.ns.migration.backoff").inc(15_000.0)
        platform.charge_ns("work", 5.0)
        budget_alerts = [
            a for a in watchdog.alerts if a.rule == "migration-budget"
        ]
        assert len(budget_alerts) == 1
        assert budget_alerts[0].value == 55_000.0

    def test_summary_lines_mark_breaches(self):
        platform = Platform()
        watchdog = SloWatchdog([_threshold_rule()], evaluate_every_ns=1.0)
        watchdog.attach(platform)
        platform.obs.metrics.gauge("test.gauge").set(10.0)
        platform.charge_ns("work", 5.0)
        text = "\n".join(watchdog.summary_lines())
        assert "BREACHED" in text and "gauge-high" in text

    def test_watchdog_never_shifts_virtual_time(self):
        """The watchdog observes charges; it must not add any."""
        from repro.experiments.scaling_exp import run_scale

        plain = run_scale("securekeeper", sessions=2, shards=2, workers=1)
        recorder = RunRecorder(slo=SloWatchdog(default_rulebook()))
        with recording(recorder):
            watched = run_scale("securekeeper", sessions=2, shards=2, workers=1)
        assert watched.ledger == plain.ledger
        assert watched.now_s == plain.now_s
        assert watched.trace_digest == plain.trace_digest


# -- exporter edge cases ---------------------------------------------------------


class TestExporterEdgeCases:
    def test_empty_run_summary_and_exports(self, tmp_path):
        """A recorder that saw no observable work still produces
        well-formed outputs everywhere."""
        recorder = RunRecorder()
        with recording(recorder):
            pass
        assert "(no spans recorded)" in recorder.summary()
        doc = recorder.chrome_trace()
        obs_export.validate_chrome_trace(doc)
        assert recorder.write_jsonl(str(tmp_path / "e.jsonl")) == 0
        metrics_doc = recorder.metrics_document()
        assert metrics_doc["metrics"] == {}
        assert metrics_doc["crosscheck_mismatches"] == []

    def test_empty_summary_with_slo_still_renders_verdicts(self):
        recorder = RunRecorder(slo=SloWatchdog(default_rulebook()))
        with recording(recorder):
            pass
        text = recorder.summary()
        assert "(no spans recorded)" in text
        assert "SLO verdicts" in text

    def test_chrome_trace_after_ring_wrap(self, tmp_path):
        platform = Platform()
        obs = platform.enable_observability(ring_capacity=4, label="wrap")
        for i in range(20):
            with obs.tracer.span(f"s{i}"):
                platform.charge_ns("w", 10.0)
        assert obs.tracer.dropped == 16
        doc = obs_export.chrome_trace([("wrap", obs)])
        obs_export.validate_chrome_trace(doc)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # Only the surviving window exports; newest spans win.
        assert [e["name"] for e in complete] == ["s16", "s17", "s18", "s19"]
        path = tmp_path / "wrapped.json"
        obs_export.write_chrome_trace(str(path), doc)
        assert obs_export.load_chrome_trace(str(path)) == doc

    def test_summary_table_reports_drops_after_wrap(self):
        platform = Platform()
        obs = platform.enable_observability(ring_capacity=2)
        for i in range(5):
            obs.tracer.instant(f"e{i}")
        text = obs_export.summary_table([("t", obs)])
        assert "dropped 3 events" in text
