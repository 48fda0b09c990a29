"""Observability layer: tracer, metrics, exporters, recorder, artifacts."""

import json
import re

import pytest

from repro.costs.ledger import CostLedger, LedgerEntryView
from repro.costs.platform import Platform, fresh_platform
from repro.obs import artifacts as obs_artifacts
from repro.obs import export as obs_export
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.recorder import RunRecorder, recording
from repro.obs.tracer import NULL_TRACER, SpanTracer


# -- span tracer ----------------------------------------------------------------


class TestSpanTracer:
    def test_nesting_and_virtual_timestamps(self):
        platform = Platform()
        obs = platform.enable_observability()
        tracer = obs.tracer

        with tracer.span("outer", attrs={"who": "test"}) as outer:
            platform.charge_ns("work.a", 100.0)
            with tracer.span("inner") as inner:
                platform.charge_ns("work.b", 50.0)
            platform.charge_ns("work.c", 25.0)

        spans = {s.name: s for s in tracer.finished_spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        # Timestamps are virtual nanoseconds from the platform clock.
        assert spans["outer"].start_ns == 0.0
        assert spans["outer"].end_ns == 175.0
        assert spans["inner"].start_ns == 100.0
        assert spans["inner"].end_ns == 150.0
        assert spans["inner"].duration_ns == 50.0
        # Completion order: inner closes before outer.
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["inner", "outer"]

    def test_instant_events_carry_parent(self):
        platform = Platform()
        tracer = platform.enable_observability().tracer
        with tracer.span("parent") as parent:
            marker = tracer.instant("tick", attrs={"n": 1})
        assert marker.parent_id == parent.span_id
        assert marker.kind == "instant"
        assert marker.duration_ns == 0.0

    def test_ring_buffer_drops_oldest_and_counts(self):
        platform = Platform()
        tracer = SpanTracer(platform.clock, capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [e.name for e in tracer.events()] == ["e6", "e7", "e8", "e9"]
        assert tracer.sequence == 10

    def test_ring_wrap_with_mixed_spans_and_instants(self):
        """Satellite audit: wrap drops oldest regardless of kind, the
        sequence counter keeps counting, and nothing drops before the
        ring is actually full."""
        platform = Platform()
        tracer = SpanTracer(platform.clock, capacity=3)
        with tracer.span("a"):
            platform.charge_ns("w", 1.0)
        tracer.instant("m1")
        tracer.instant("m2")
        assert tracer.dropped == 0  # exactly full, nothing dropped yet
        with tracer.span("b"):
            platform.charge_ns("w", 1.0)
        assert tracer.dropped == 1  # the oldest ("a") fell off
        assert [e.name for e in tracer.events()] == ["m1", "m2", "b"]
        assert tracer.sequence == 4
        # finished_spans filters instants from the surviving window.
        assert [s.name for s in tracer.finished_spans()] == ["b"]

    def test_listener_sees_all_events_despite_ring(self):
        platform = Platform()
        tracer = SpanTracer(platform.clock, capacity=2)
        seen = []
        tracer.add_listener(lambda s: seen.append(s.name))
        for i in range(5):
            tracer.instant(f"e{i}")
        assert seen == [f"e{i}" for i in range(5)]

    def test_null_tracer_is_default_and_inert(self):
        platform = Platform()
        assert platform.obs is None
        assert platform.tracer is NULL_TRACER
        with platform.tracer.span("anything", attrs={"x": 1}) as span:
            span.set_attr("y", 2)
        assert platform.tracer.events() == []

    def test_span_records_exception_attr(self):
        platform = Platform()
        tracer = platform.enable_observability().tracer
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (span,) = tracer.finished_spans()
        assert span.attrs["error"] == "ValueError"
        assert span.closed


# -- metrics ---------------------------------------------------------------------


class TestMetrics:
    def test_histogram_percentiles_uniform(self):
        hist = Histogram("t")
        for v in range(1, 1001):
            hist.observe(v)
        assert hist.count == 1000
        assert hist.sum == 500500
        assert hist.min == 1 and hist.max == 1000
        # Linear interpolation within power-of-two buckets keeps the
        # estimate well inside the bucket-width error bound.
        assert abs(hist.percentile(50) - 500) / 500 < 0.10
        assert abs(hist.percentile(95) - 950) / 950 < 0.10
        assert abs(hist.percentile(99) - 990) / 990 < 0.10
        # Extremes are exact (clamped to observed min/max).
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 1000

    def test_histogram_bucket_bounds(self):
        assert Histogram.bucket_index(1) == 0
        assert Histogram.bucket_index(2.0) == 1
        assert Histogram.bucket_index(1023.9) == 9
        assert Histogram.bucket_bounds(3) == (8.0, 16.0)

    def test_histogram_boundary_at_exact_powers_of_two(self):
        """Satellite audit: values just *below* an exact power of two.

        ``floor(log2(v))`` computed through ``math.log2`` rounds
        ``nextafter(2**k, 0)`` up to ``k`` for large ``k``, landing the
        value one bucket too high; the frexp-based index must not.
        """
        import math

        for k in (1, 10, 30, 52, 60):
            exact = 2.0 ** k
            below = math.nextafter(exact, 0.0)
            assert Histogram.bucket_index(exact) == k
            assert Histogram.bucket_index(below) == k - 1, (
                f"nextafter(2**{k}, 0) must land in bucket {k - 1}"
            )
            lo, hi = Histogram.bucket_bounds(Histogram.bucket_index(below))
            assert lo <= below < hi
        # Fractional values (the underflow region handles < 1 in
        # observe(), but the index itself must still be exact).
        assert Histogram.bucket_index(0.5) == -1
        assert Histogram.bucket_index(0.75) == -1

    def test_histogram_observe_boundary_counts(self):
        import math

        hist = Histogram("edge")
        hist.observe(2.0 ** 30)
        hist.observe(math.nextafter(2.0 ** 30, 0.0))
        snap = hist.to_dict()
        assert snap["buckets"] == {"29": 1, "30": 1}
        assert hist.percentile(100) == 2.0 ** 30

    def test_histogram_underflow_and_merge(self):
        a, b = Histogram("a"), Histogram("b")
        a.observe(0.25)
        a.observe(8)
        b.observe(64)
        a.merge(b)
        assert a.count == 3
        assert a.max == 64
        assert a.percentile(100) == 64
        snap = a.to_dict()
        assert snap["underflow"] == 1

    def test_registry_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        b.gauge("g").set(7)
        a.merge(b)
        assert a.counter("n").value == 7
        assert a.gauge("g").value == 7

    def test_charge_mirror_matches_ledger(self):
        platform = Platform()
        obs = platform.enable_observability()
        platform.charge_ns("a.b.c", 10.0)
        platform.charge_ns("a.b.c", 5.0)
        platform.charge_ns("d", 1.0)
        assert obs.crosscheck(platform.ledger.snapshot()) == []
        assert obs.metrics.counter("charge.count.a.b.c").value == 2
        assert obs.metrics.counter("charge.ns.a.b.c").value == 15.0


# -- exporters -------------------------------------------------------------------


class TestExporters:
    def _traced_platform(self):
        platform = Platform()
        obs = platform.enable_observability(label="t")
        with obs.tracer.span("outer"):
            platform.charge_ns("x.y", 2000.0)
            with obs.tracer.span("inner", attrs={"k": "v"}):
                platform.charge_ns("x.z", 1000.0)
            obs.tracer.instant("mark")
        return platform, obs

    def test_chrome_trace_round_trip(self, tmp_path):
        platform, obs = self._traced_platform()
        doc = obs_export.chrome_trace([("t", obs)])
        path = tmp_path / "trace.json"
        obs_export.write_chrome_trace(str(path), doc)
        loaded = obs_export.load_chrome_trace(str(path))
        events = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in events}
        # ns -> µs conversion.
        assert by_name["inner"]["ts"] == pytest.approx(2.0)
        assert by_name["inner"]["dur"] == pytest.approx(1.0)
        assert by_name["outer"]["dur"] == pytest.approx(3.0)
        # Parent containment (what makes the Perfetto stacks correct).
        inner, outer = by_name["inner"], by_name["outer"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        instants = [e for e in loaded["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["mark"]

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            obs_export.validate_chrome_trace([])
        with pytest.raises(ValueError):
            obs_export.validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            obs_export.validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "ts": 0, "dur": -1}]}
            )

    def test_jsonl_dump_parses(self, tmp_path):
        _, obs = self._traced_platform()
        path = tmp_path / "events.jsonl"
        lines = obs_export.write_jsonl(str(path), [("t", obs)])
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == lines == 3
        assert {p["name"] for p in parsed} == {"outer", "inner", "mark"}
        assert all(p["session"] == "t" for p in parsed)

    def test_summary_table_renders(self):
        _, obs = self._traced_platform()
        text = obs_export.summary_table([("t", obs)])
        assert "outer" in text and "inner" in text
        assert "instant events: 1" in text


# -- ledger entry view (satellite fix) -------------------------------------------


class TestLedgerEntryView:
    def test_unknown_category_returns_zero_view(self):
        ledger = CostLedger()
        view = ledger.entry("never.charged")
        assert view == LedgerEntryView()
        assert view.count == 0 and view.total_ns == 0.0

    def test_view_is_immutable(self):
        ledger = CostLedger()
        ledger.charge("a", 5.0)
        view = ledger.entry("a")
        with pytest.raises(AttributeError):
            view.count = 99
        # Mutation attempts cannot corrupt the ledger.
        assert ledger.entry("a").count == 1

    def test_view_is_a_copy_not_a_live_reference(self):
        ledger = CostLedger()
        ledger.charge("a", 5.0)
        view = ledger.entry("a")
        ledger.charge("a", 5.0)
        assert view.total_ns == 5.0
        assert ledger.entry("a").total_ns == 10.0
        assert ledger.entry("a").mean_ns == 5.0


# -- recorder + experiment integration -------------------------------------------


class TestRecorderIntegration:
    def test_fig4_tracer_ledger_and_stats_agree(self):
        from repro.experiments.fig4_rmi import run_fig4a

        with recording() as recorder:
            run_fig4a(counts=(100,), payload_size=20)
        assert recorder.sessions  # platforms were attached automatically
        # Metrics mirror the ledger exactly, per session and merged.
        assert recorder.crosscheck() == []
        metrics = recorder.merged_metrics()
        ledger = recorder.merged_ledger_snapshot()
        ecalls_by_ledger = sum(
            entry[0]
            for category, entry in ledger.items()
            if category.startswith("transition.ecall.")
        )
        assert metrics.counter("sgx.ecalls").value == ecalls_by_ledger
        # Tracer span totals equal the ledger's transition time.
        span_ns = 0.0
        ledger_ns = sum(
            entry[1]
            for category, entry in ledger.items()
            if category.startswith("transition.ecall.")
            or category.startswith("transition.ocall.")
        )
        for _, platform, obs in recorder.sessions:
            for span in obs.tracer.finished_spans():
                if span.name in ("sgx.ecall", "sgx.ocall"):
                    # Transition spans also cover the relayed body; the
                    # charge alone is what the ledger sees, so compare
                    # via the charge mirror instead for exactness.
                    span_ns += span.duration_ns
        assert span_ns >= ledger_ns > 0.0
        mirrored_ns = sum(
            metrics.counter(f"charge.ns.{category}").value
            for category in ledger
            if category.startswith("transition.")
        )
        ledger_transition_ns = sum(
            entry[1] for category, entry in ledger.items()
            if category.startswith("transition.")
        )
        assert mirrored_ns == pytest.approx(ledger_transition_ns, abs=1e-6)

    def test_transition_stats_match_metrics(self):
        from repro.core import Partitioner, PartitionOptions
        from repro.experiments.micro import MICRO_CLASSES, TrustedCell

        with recording() as recorder:
            options = PartitionOptions(name="obs_stats")
            app = Partitioner(options).partition(list(MICRO_CLASSES))
            with app.start() as session:
                cell = TrustedCell(1)
                for i in range(20):
                    cell.set_value(i)
                stats = session.transition_stats
                metrics = recorder.merged_metrics()
                assert metrics.counter("sgx.ecalls").value == stats.ecalls
                assert metrics.counter("sgx.ocalls").value == stats.ocalls

    def test_default_output_unchanged_by_observability(self):
        from repro.experiments.fig3_proxy_creation import run_fig3

        plain = run_fig3(counts=(300, 600)).format()
        with recording():
            recorded = run_fig3(counts=(300, 600)).format()
        plain_again = run_fig3(counts=(300, 600)).format()
        assert plain == plain_again  # determinism baseline
        assert recorded == plain  # observability never shifts virtual time

    def test_recorder_exclusive_activation(self):
        with recording():
            with pytest.raises(RuntimeError):
                with recording():
                    pass  # pragma: no cover

    def test_no_platform_attachment_without_recorder(self):
        platform = fresh_platform()
        assert platform.obs is None


# -- profiler on the span stream --------------------------------------------------


class TestProfilerSpanStream:
    def _layer(self):
        from repro.sgx.enclave import EnclaveConfig
        from repro.sgx.sdk import SgxSdk
        from repro.sgx.transitions import TransitionLayer

        platform = fresh_platform()
        sdk = SgxSdk(platform)
        signed = sdk.sign("obs-prof", b"code", config=EnclaveConfig())
        enclave = sdk.create_enclave(signed)
        return platform, TransitionLayer(platform, enclave)

    def test_direct_layer_calls_are_profiled(self):
        from repro.sgx.profiler import TransitionProfiler

        platform, layer = self._layer()
        profiler = TransitionProfiler(layer)
        layer.ecall("direct_routine", lambda: None, payload_bytes=32)
        profiler.ecall("wrapped_routine", lambda: None, payload_bytes=8)
        profiles = {(p.kind, p.name): p for p in profiler.profiles()}
        assert profiles[("ecall", "direct_routine")].calls == 1
        assert profiles[("ecall", "wrapped_routine")].payload_bytes == 8

    def test_profiles_survive_ring_buffer_wrap(self):
        from repro.sgx.profiler import TransitionProfiler

        platform, layer = self._layer()
        platform.enable_observability(ring_capacity=4)
        profiler = TransitionProfiler(layer)
        for i in range(50):
            profiler.ecall("hot", lambda: None)
        assert profiler.profiles()[0].calls == 50
        assert platform.obs.tracer.dropped > 0

    def test_other_enclaves_are_ignored(self):
        from repro.sgx.enclave import EnclaveConfig
        from repro.sgx.profiler import TransitionProfiler
        from repro.sgx.sdk import SgxSdk
        from repro.sgx.transitions import TransitionLayer

        platform, layer = self._layer()
        profiler = TransitionProfiler(layer)
        sdk = SgxSdk(platform)
        other = sdk.create_enclave(sdk.sign("other", b"x", config=EnclaveConfig()))
        other_layer = TransitionLayer(platform, other)
        other_layer.ecall("foreign", lambda: None)
        assert profiler.profiles() == []

    def test_close_stops_consuming(self):
        from repro.sgx.profiler import TransitionProfiler

        platform, layer = self._layer()
        profiler = TransitionProfiler(layer)
        profiler.ecall("before", lambda: None)
        profiler.close()
        layer.ecall("after", lambda: None)
        names = {p.name for p in profiler.profiles()}
        assert names == {"before"}


# -- epc page observer -------------------------------------------------------------


class TestEpcObserver:
    def test_page_events_stream_into_obs(self):
        from repro.obs.hooks import install_epc_observer
        from repro.sgx.epc import EpcPageCache

        platform = Platform()
        obs = platform.enable_observability()
        cache = EpcPageCache(capacity_bytes=2 * 4096)
        install_epc_observer(cache, obs)
        cache.touch(1, 0)
        cache.touch(1, 1)
        cache.touch(1, 2)  # evicts page 0
        assert obs.metrics.counter("epc.cache.faults").value == 3
        assert obs.metrics.counter("epc.cache.evicts").value == 1
        kinds = [e.name for e in obs.tracer.events()]
        assert kinds.count("epc.fault") == 3
        assert kinds.count("epc.evict") == 1

    def test_driver_metrics_on_fault(self):
        from repro.sgx.driver import SgxDriver

        platform = fresh_platform()
        obs = platform.enable_observability()
        driver = SgxDriver(platform)
        driver.access(1, 0, 10 * platform.spec.page_bytes)
        assert obs.metrics.counter("epc.faults").value == 10
        assert any(e.name == "epc.page_fault" for e in obs.tracer.events())


# -- occupancy gauges -------------------------------------------------------------


class TestOccupancyGauges:
    """Heap and EPC residency sampled into gauges (ROADMAP item)."""

    def test_heap_gauges_track_live_and_used_bytes(self):
        from repro.runtime.context import ExecutionContext, Location
        from repro.runtime.heap import SimHeap

        platform = fresh_platform()
        obs = platform.enable_observability()
        ctx = ExecutionContext(platform, Location.ENCLAVE)
        heap = SimHeap(ctx, max_bytes=1 << 20, name="enclave")
        a = heap.alloc(1000)
        heap.alloc(2000)
        live = obs.metrics.gauge("heap.enclave.live_bytes")
        used = obs.metrics.gauge("heap.enclave.used_bytes")
        assert live.value == 3000
        heap.free(a)
        assert live.value == 2000
        assert used.value == 3000  # dead bytes linger until collection
        heap.collect()
        assert used.value == 2000
        assert live.max_seen == 3000  # watermark: peak occupancy
        assert used.max_seen == 3000

    def test_epc_gauges_track_residency(self):
        from repro.sgx.driver import SgxDriver

        platform = fresh_platform()
        obs = platform.enable_observability()
        driver = SgxDriver(platform)
        driver.access(1, 0, 5 * platform.spec.page_bytes)
        pages = obs.metrics.gauge("epc.resident_pages")
        assert pages.value == 5
        assert (
            obs.metrics.gauge("epc.resident_bytes").value
            == 5 * platform.spec.page_bytes
        )
        released = driver.release_enclave(1)
        assert released == 5
        assert pages.value == 0
        assert pages.max_seen == 5  # peak EPC residency survives release

    def test_gauges_absent_without_observability(self):
        from repro.runtime.context import ExecutionContext, Location
        from repro.runtime.heap import SimHeap
        from repro.sgx.driver import SgxDriver

        platform = fresh_platform()
        ctx = ExecutionContext(platform, Location.HOST)
        SimHeap(ctx, max_bytes=1 << 20, name="plain").alloc(64)
        SgxDriver(platform).access(1, 0, platform.spec.page_bytes)
        assert platform.obs is None  # no registry was ever created


# -- artifacts --------------------------------------------------------------------


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        from repro.experiments.common import ExperimentTable

        table = ExperimentTable(title="t", x_label="x", y_label="y")
        series = table.new_series("s1")
        series.add(1, 2.0)
        series.add(2, 4.0)
        ledger = CostLedger()
        ledger.charge("cat.a", 7.0)
        doc = obs_artifacts.run_artifact(
            "unit",
            tables=[table],
            ledger=ledger.snapshot(),
            metrics=MetricsRegistry().snapshot(),
        )
        path = tmp_path / "unit.json"
        obs_artifacts.write_artifact(str(path), doc)
        loaded = obs_artifacts.load_artifact(str(path))
        assert loaded["tables"][0]["series"][0]["points"] == [[1, 2.0], [2, 4.0]]
        assert loaded["ledger"]["cat.a"] == {"count": 1, "total_ns": 7.0}

    def test_validation_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            obs_artifacts.validate_artifact({"schema": "nope", "name": "x"})
        with pytest.raises(ValueError):
            obs_artifacts.validate_artifact(
                {
                    "schema": obs_artifacts.SCHEMA,
                    "name": "x",
                    "tables": [{"series": [{"name": "s", "points": [[1, 2, 3]]}]}],
                }
            )


# -- CLI --------------------------------------------------------------------------


class TestCliObservability:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro import cli

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        events_path = tmp_path / "events.jsonl"

        assert cli.main(["fig4a", "--scale", "small"]) == 0
        plain = capsys.readouterr().out

        assert (
            cli.main(
                [
                    "fig4a",
                    "--scale",
                    "small",
                    "--trace",
                    str(trace_path),
                    "--metrics",
                    str(metrics_path),
                    "--events",
                    str(events_path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        # The experiment table on stdout is byte-identical with tracing on.
        assert captured.out == plain

        doc = obs_export.load_chrome_trace(str(trace_path))
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"rmi.invoke", "sgx.ecall", "sgx.ocall", "proxy.call"} <= names
        metrics_doc = json.loads(metrics_path.read_text())
        assert metrics_doc["crosscheck_mismatches"] == []
        ecalls = metrics_doc["metrics"]["sgx.ecalls"]["value"]
        ledger_ecalls = sum(
            entry["count"]
            for category, entry in metrics_doc["ledger"].items()
            if category.startswith("transition.ecall.")
        )
        assert ecalls == ledger_ecalls > 0
        assert events_path.stat().st_size > 0

    def test_obs_summary_flag(self, capsys):
        from repro import cli

        assert cli.main(["fig3", "--scale", "small", "--obs-summary"]) == 0
        out = capsys.readouterr().out
        assert "rmi.new" in out
        assert "span" in out
        # The default SLO rulebook watches every --obs-summary run.
        assert "SLO verdicts" in out
        assert "pool-fallback-burn" in out

    def test_scale_and_chaos_obs_flag_parity(self, tmp_path, capsys):
        """Satellite: --trace/--obs-summary work on scale and chaos the
        same way they do on the figure experiments, verdicts included."""
        from repro import cli

        trace_path = tmp_path / "scale_trace.json"
        assert (
            cli.main(
                [
                    "scale",
                    "--scale",
                    "small",
                    "--trace",
                    str(trace_path),
                    "--obs-summary",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SLO verdicts" in out
        # The saturated-pool sweep points breach the burn-rate rule.
        assert re.search(r"^\s+pool-fallback-burn\s+BREACHED", out, re.M), out
        doc = obs_export.load_chrome_trace(str(trace_path))
        names = {e["name"] for e in doc["traceEvents"]}
        assert "sgx.ecall" in names
        # The alert is visible in the span stream, not only the summary.
        alerted = {
            e["args"]["rule"]
            for e in doc["traceEvents"]
            if e["name"] == "slo.alert"
        }
        assert "pool-fallback-burn" in alerted, alerted

        assert cli.main(["chaos", "--scale", "small", "--obs-summary"]) == 0
        out = capsys.readouterr().out
        assert "SLO verdicts" in out
        # The chaos runs charge recovery time, so the budget rule is live
        # (watching, even if within budget).
        assert "recovery-budget" in out
