"""Unified observability layer: spans, metrics, and run artifacts.

``repro.obs`` is the instrumentation plane of the reproduction. Every
cost-attribution claim the figures make (transition dominance,
in-enclave GC penalty, the EPC paging cliff) can be inspected through
three coordinated views:

- :mod:`repro.obs.tracer` — a virtual-time span tracer: nested spans
  whose timestamps come from the :class:`~repro.costs.clock.VirtualClock`,
  kept in a bounded ring buffer;
- :mod:`repro.obs.metrics` — named counters, gauges and log-bucketed
  histograms that mirror (and cross-check) the :class:`CostLedger`;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  Perfetto / ``chrome://tracing``), JSONL event dumps, and human
  summary tables;
- :mod:`repro.obs.recorder` — a run-scoped collector that attaches
  observability to every :class:`~repro.costs.platform.Platform`
  created while it is active (how the CLI's ``--trace`` works);
- :mod:`repro.obs.artifacts` — machine-readable JSON artifacts for
  experiment tables and benchmark results;
- :mod:`repro.obs.slo` — declarative SLO rules (threshold / rate /
  burn-rate) evaluated against the live metrics in virtual time,
  emitting typed alerts into the span stream.

Everything here observes the *virtual* clock. How long the simulator
itself takes on the wall clock is measured from outside the package by
``layerbench/`` (see ``layerbench/README.md``).

Observability is **off by default**: an unconfigured platform carries a
no-op tracer and its virtual-time output is bit-identical to a build
without this package.
"""

from repro.obs.core import Observability
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import RunRecorder, active_recorder, recording
from repro.obs.slo import Alert, SloRule, SloWatchdog, default_rulebook
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "Alert",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "RunRecorder",
    "SloRule",
    "SloWatchdog",
    "Span",
    "SpanTracer",
    "active_recorder",
    "default_rulebook",
    "recording",
]
