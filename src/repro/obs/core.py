"""Observability facade: one tracer + one metrics registry per platform.

An :class:`Observability` instance is attached to a
:class:`~repro.costs.platform.Platform` by
``platform.enable_observability()``. It owns the platform's span tracer
and metrics registry and subscribes to the platform's charge-observer
hook so every ledger charge is mirrored into metrics — which makes the
ledger/metrics cross-check exact by construction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import DEFAULT_RING_CAPACITY, SpanTracer

#: Charge categories whose per-charge latency is worth a histogram,
#: keyed by the first two dotted components ("transition.ecall", ...).
_HISTOGRAM_COMPONENTS = 2


class Observability:
    """Tracer + metrics bundle bound to one platform's virtual clock."""

    def __init__(
        self,
        clock: Any,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        label: str = "",
    ) -> None:
        self.tracer = SpanTracer(clock, capacity=ring_capacity)
        self.metrics = MetricsRegistry()
        self.label = label

    # -- Platform.charge observer -------------------------------------------

    def on_charge(self, category: str, ns: float, now_ns: float) -> None:
        """Mirror one ledger charge into the metrics registry.

        Installed as a platform charge observer. Never advances the
        clock or touches the ledger; with observability enabled the
        virtual-time figures are still identical.
        """
        metrics = self.metrics
        metrics.counter(f"charge.count.{category}").inc()
        metrics.counter(f"charge.ns.{category}").inc(ns)
        head = ".".join(category.split(".")[:_HISTOGRAM_COMPONENTS])
        metrics.histogram(f"charge_ns.{head}").observe(ns)

    # -- ledger agreement ----------------------------------------------------

    def crosscheck(
        self, snapshot: Mapping[str, Tuple[int, float]], tolerance_ns: float = 1e-6
    ) -> List[str]:
        """Compare mirrored charge metrics against a ledger snapshot.

        Returns human-readable mismatch descriptions (empty = exact
        agreement). ``snapshot`` is ``CostLedger.snapshot()`` or the
        recorder's merged equivalent.
        """
        problems: List[str] = []
        for category, (count, total_ns) in snapshot.items():
            count_metric = self.metrics.get(f"charge.count.{category}")
            ns_metric = self.metrics.get(f"charge.ns.{category}")
            seen_count = count_metric.value if count_metric is not None else 0
            seen_ns = ns_metric.value if ns_metric is not None else 0.0
            if seen_count != count:
                problems.append(
                    f"{category}: ledger count {count} != metrics {seen_count:g}"
                )
            if abs(seen_ns - total_ns) > tolerance_ns:
                problems.append(
                    f"{category}: ledger {total_ns}ns != metrics {seen_ns}ns"
                )
        return problems

    # -- export views --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "metrics": self.metrics.snapshot(),
            "events": len(self.tracer),
            "dropped_events": self.tracer.dropped,
        }

    def __repr__(self) -> str:
        return (
            f"Observability(label={self.label!r}, events={len(self.tracer)}, "
            f"metrics={len(self.metrics)})"
        )
