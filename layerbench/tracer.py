"""Outside-in layer tracer: wall time charged to named layers.

The program is not edited. Instead, the benchmark wraps each layer's
public entry points (the table in :data:`ENTRY_POINTS`) with a timing
shim, in the traced process only; untraced measuring processes never
import this module, so their wrappers do not exist.

Each wrapped call is a span. A span's *self time* is its duration minus
the time covered by its direct child spans, so nested spans — including
a layer that calls itself, such as ``charge_cycles`` calling
``charge_ns`` — are never counted twice, and the self times of all
layers plus the unattributed remainder add up to the traced window.

Hooks on a few entry points read their arguments or results to count
layer-specific work (bytes encoded, EPC hits, shed requests...).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every layer the benchmark reports, in report order.
LAYERS = (
    "proxy",
    "rmi",
    "transition",
    "sharding",
    "workers",
    "scheduler",
    "codec",
    "charge",
    "obs",
    "epc",
    "coalescer",
    "arena",
    "gc",
    "admission",
    "autoscale",
    "sealing",
    "partitioner",
    "app",
    "harness",
)

#: Ratios and counts reported beside the per-layer calls/self_ms/share,
#: with their units.
EXTRA_METRICS = (
    ("unattributed.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("transition.crossings", "count"),
    ("workers.fallback_share", "ratio"),
    ("scheduler.us_per_spawn", "us"),
    ("scheduler.us_per_step", "us"),
    ("codec.bytes", "bytes"),
    ("codec.ns_per_byte", "ns"),
    ("epc.touches", "count"),
    ("epc.hit_ratio", "ratio"),
    ("coalescer.calls_per_flush", "ratio"),
    ("arena.staged_bytes", "bytes"),
    ("gc.released", "count"),
    ("admission.shed_share", "ratio"),
    ("autoscale.keys_moved", "count"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.share"] = "ratio"
    units.update(EXTRA_METRICS)
    return units


Hook = Callable[["LayerTracer", Tuple[Any, ...], Any, Optional[BaseException]], None]


class LayerTracer:
    """Span stack plus per-(layer, entry) self time, calls and counters."""

    def __init__(self, timer: Callable[[], int] = perf_counter_ns) -> None:
        self.timer = timer
        #: Open spans, innermost last: [child ns, layer].
        self._stack: List[List[Any]] = []
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        self.counts: Dict[str, int] = {}

    def reset(self) -> None:
        """Start a new phase: zero every total (no span may be open).
        Cleared in place, because the wrappers hold these dicts."""
        if self._stack:
            raise RuntimeError("cannot reset with open spans")
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def parent_layer(self) -> Optional[str]:
        """Layer of the innermost open span (the caller of a closed one)."""
        return self._stack[-1][1] if self._stack else None

    def wrap(
        self,
        layer: str,
        entry: str,
        func: Callable[..., Any],
        hook: Optional[Hook] = None,
        copy_meta: bool = True,
    ) -> Callable[..., Any]:
        """``func`` timed as a span of ``layer``; ``hook`` sees each
        call's arguments and result (or exception) after the span.
        ``copy_meta=False`` skips copying the function's metadata, for
        short-lived callables wrapped once per call.

        The span bookkeeping is inlined: the wrapper runs on every
        charge and crossing, and its own cost lands in the parent span.
        """
        key = (layer, entry)
        stack = self._stack
        push = stack.append
        pop = stack.pop
        timer = self.timer
        self_ns = self.self_ns
        calls = self.calls
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0, layer]
            push(frame)
            started = timer()
            result = failure = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                failure = exc
                raise
            finally:
                elapsed = timer() - started
                pop()
                self_ns[key] = self_ns.get(key, 0) + elapsed - frame[0]
                calls[key] = calls.get(key, 0) + 1
                if stack:
                    stack[-1][0] += elapsed
                if hook is not None:
                    hook(tracer, args, result, failure)

        if copy_meta:
            functools.update_wrapper(traced, func)
        return traced

    # -- reports ------------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (calls, self ns), every layer present."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for (layer, _), ns in self.self_ns.items():
            totals[layer][1] += ns
        for (layer, _), calls in self.calls.items():
            totals[layer][0] += calls
        return {layer: (calls, ns) for layer, (calls, ns) in totals.items()}

    def entry(self, layer: str, entry: str) -> Tuple[int, int]:
        key = (layer, entry)
        return self.calls.get(key, 0), self.self_ns.get(key, 0)


# -- hooks ----------------------------------------------------------------------------


def _codec_bytes(arg_index: Optional[int]) -> Hook:
    """Count encoded/decoded bytes at the outermost codec span only, so a
    codec that delegates to the wire format is not counted twice."""

    def hook(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
        if exc is not None or tracer.parent_layer() == "codec":
            return
        data = result if arg_index is None else args[arg_index]
        tracer.count("codec.bytes", len(data))

    return hook


def _worker_lease(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    tracer.count("workers.attempts")
    if result is None and exc is None:
        tracer.count("workers.fallbacks")


def _epc_touch(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("epc.touches")
        if not result[0]:
            tracer.count("epc.hits")


def _coalescer_flush(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    if exc is None and result:
        tracer.count("coalescer.flushes")
        tracer.count("coalescer.flushed_calls", result)


def _arena_stage(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("arena.staged_bytes", result.length)


def _gc_scan(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("gc.released", result)


def _admission_offer(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    tracer.count("admission.offered")
    if exc is not None:
        tracer.count("admission.shed")


def _admission_promote(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("admission.shed", len(result[1]))


def _keys_moved(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("autoscale.keys_moved", result["keys_moved"])


#: (layer, module, qualified name, mode, hook). Modes: ``call`` times
#: the call; ``returns`` also times the callable it returns (a relay
#: body runs later, inside the crossing); ``factory`` times only the
#: returned callable (the generated proxy forwarders).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Optional[Hook]], ...] = (
    ("proxy", "repro.core.proxy", "_forwarding_method", "factory", None),
    ("rmi", "repro.core.rmi", "RmiRuntime.invoke", "call", None),
    ("rmi", "repro.core.rmi", "RmiRuntime.instantiate", "call", None),
    ("rmi", "repro.core.rmi", "RmiRuntime.relay_body", "returns", None),
    ("rmi", "repro.core.rmi", "RmiRuntime.cross_batched", "call", None),
    ("rmi", "repro.core.rmi", "RmiRuntime.release_remote", "call", None),
    ("rmi", "repro.core.multi_isolate", "MultiIsolateRuntime.release_remote", "call", None),
    ("transition", "repro.sgx.transitions", "TransitionLayer.ecall", "call", None),
    ("transition", "repro.sgx.transitions", "TransitionLayer.ocall", "call", None),
    ("sharding", "repro.concurrency.sharding", "ShardedRuntime.relay_body", "returns", None),
    ("sharding", "repro.concurrency.sharding", "ShardedEnclaveGroup.create_pinned", "call", None),
    ("workers", "repro.concurrency.workers", "ContendedTransitionLayer.ecall", "call", None),
    ("workers", "repro.concurrency.workers", "ContendedTransitionLayer.ocall", "call", None),
    ("workers", "repro.concurrency.workers", "ContendedWorkerPool.try_acquire", "call", _worker_lease),
    ("scheduler", "repro.concurrency.scheduler", "SessionScheduler.spawn", "call", None),
    ("scheduler", "repro.concurrency.scheduler", "SessionScheduler.step", "call", None),
    ("codec", "repro.core.serialization", "SerializationCodec.serialize", "call", _codec_bytes(None)),
    ("codec", "repro.core.serialization", "SerializationCodec.deserialize", "call", _codec_bytes(1)),
    ("codec", "repro.core.serialization", "WireSerializationCodec.serialize", "call", _codec_bytes(None)),
    ("codec", "repro.core.serialization", "WireSerializationCodec.deserialize", "call", _codec_bytes(1)),
    ("codec", "repro.core.wire", "dumps", "call", _codec_bytes(None)),
    ("codec", "repro.core.wire", "loads", "call", _codec_bytes(0)),
    ("charge", "repro.costs.platform", "Platform.charge_ns", "call", None),
    ("charge", "repro.costs.platform", "Platform.charge_cycles", "call", None),
    ("obs", "repro.obs.core", "Observability.on_charge", "call", None),
    ("obs", "repro.obs.tracer", "SpanTracer.start_span", "call", None),
    ("obs", "repro.obs.tracer", "SpanTracer.end_span", "call", None),
    ("obs", "repro.obs.tracer", "SpanTracer.instant", "call", None),
    # The watchdog evaluates through the per-platform watch that
    # SloWatchdog.attach returns; these are its two evaluation paths.
    ("obs", "repro.obs.slo", "_Watch.evaluate", "call", None),
    ("obs", "repro.obs.slo", "_Watch._on_charge", "call", None),
    ("epc", "repro.sgx.epc", "EpcPageCache.touch", "call", _epc_touch),
    ("epc", "repro.sgx.epc", "EpcPageCache.touch_range", "call", None),
    ("epc", "repro.sgx.epc", "EpcPageCache.evict_enclave", "call", None),
    ("epc", "repro.sgx.epc", "EpcPageCache.resident_pages", "call", None),
    ("epc", "repro.sgx.driver", "SgxDriver.access", "call", None),
    ("coalescer", "repro.batching.coalescer", "CallCoalescer.offer", "call", None),
    # flush() and barrier() both drain through _flush, which returns the
    # number of calls carried by the crossing.
    ("coalescer", "repro.batching.coalescer", "CallCoalescer._flush", "call", _coalescer_flush),
    ("arena", "repro.core.arena", "SharedBufferArena.stage", "call", _arena_stage),
    ("arena", "repro.core.arena", "SharedBufferArena.view", "call", None),
    ("arena", "repro.core.arena", "SharedBufferArena.release", "call", None),
    ("gc", "repro.core.app", "MontsalvatSession.tick_gc", "call", None),
    ("gc", "repro.core.gc_helper", "GcHelper.scan_once", "call", _gc_scan),
    ("admission", "repro.traffic.admission", "AdmissionController.offer", "call", _admission_offer),
    ("admission", "repro.traffic.admission", "AdmissionController.release", "call", _admission_promote),
    ("admission", "repro.traffic.admission", "AdmissionController.drain", "call", _admission_promote),
    ("autoscale", "repro.autoscale.controller", "HysteresisAutoscaler.evaluate", "call", None),
    ("autoscale", "repro.autoscale.migration", "ShardMigrator.scale_up", "call", _keys_moved),
    ("autoscale", "repro.autoscale.migration", "ShardMigrator.scale_down", "call", _keys_moved),
    ("sealing", "repro.sgx.sealing", "SealingService.seal", "call", None),
    ("sealing", "repro.sgx.sealing", "SealingService.unseal", "call", None),
    ("partitioner", "repro.core.partitioner", "Partitioner.partition", "call", None),
    ("partitioner", "repro.graal.builder", "NativeImageBuilder.build", "call", None),
    ("harness", "repro.traffic.harness", "OpenLoopHarness.run", "call", None),
)


def _patch(tracer: LayerTracer, layer: str, entry: str, owner: Any, attr: str,
           mode: str, hook: Optional[Hook]) -> None:
    original = vars(owner)[attr]
    if mode == "call":
        patched = tracer.wrap(layer, entry, original, hook)
    elif mode == "returns":
        timed = tracer.wrap(layer, entry, original, hook)

        @functools.wraps(original)
        def patched(*args: Any, **kwargs: Any) -> Any:
            body = timed(*args, **kwargs)
            return tracer.wrap(layer, entry + ".body", body, copy_meta=False)

    elif mode == "factory":

        @functools.wraps(original)
        def patched(*args: Any, **kwargs: Any) -> Any:
            return tracer.wrap(layer, entry, original(*args, **kwargs), hook)

    else:
        raise ValueError(f"unknown mode {mode!r}")
    setattr(owner, attr, patched)


def install(tracer: LayerTracer) -> List[str]:
    """Wrap every entry point of :data:`ENTRY_POINTS`; returns the ones
    not found (``run.py`` reports them as a problem, because a layer
    whose entry point was renamed would read as idle)."""
    missing = []
    for layer, module_name, qualname, mode, hook in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}:{qualname}")
            continue
        _patch(tracer, layer, qualname, owner, attr, mode, hook)
    return missing


def install_app(tracer: LayerTracer, classes: Tuple[type, ...]) -> None:
    """Wrap the public methods of the application classes (the ``app``
    layer: what runs on the mirror inside a relay). Done after the
    partitioner has read the classes' source."""
    seen = set()
    for cls in classes:
        for klass in cls.__mro__:
            if klass is object or klass in seen:
                continue
            seen.add(klass)
            for name, member in list(vars(klass).items()):
                if name.startswith("_") or not callable(member):
                    continue
                if isinstance(member, (staticmethod, classmethod, type)):
                    continue
                setattr(klass, name, tracer.wrap("app", f"{klass.__name__}.{name}", member))


def report(tracer: LayerTracer, window_ns: int) -> Dict[str, float]:
    """Per-layer metrics of one phase whose wall time was ``window_ns``."""
    metrics: Dict[str, float] = {}
    attributed = 0
    for layer, (calls, ns) in tracer.layer_totals().items():
        attributed += ns
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_ms"] = ns / 1e6
        metrics[f"{layer}.share"] = ns / window_ns
    counts = tracer.counts
    metrics["unattributed.share"] = (window_ns - attributed) / window_ns
    metrics["transition.crossings"] = sum(
        tracer.entry("transition", f"TransitionLayer.{kind}")[0]
        for kind in ("ecall", "ocall")
    )
    attempts = counts.get("workers.attempts", 0)
    metrics["workers.fallback_share"] = (
        counts.get("workers.fallbacks", 0) / attempts if attempts else 0.0
    )
    for entry, name in (("SessionScheduler.spawn", "us_per_spawn"),
                        ("SessionScheduler.step", "us_per_step")):
        calls, ns = tracer.entry("scheduler", entry)
        metrics[f"scheduler.{name}"] = ns / calls / 1e3 if calls else 0.0
    codec_bytes = counts.get("codec.bytes", 0)
    metrics["codec.bytes"] = codec_bytes
    metrics["codec.ns_per_byte"] = (
        tracer.layer_totals()["codec"][1] / codec_bytes if codec_bytes else 0.0
    )
    touches = counts.get("epc.touches", 0)
    metrics["epc.touches"] = touches
    metrics["epc.hit_ratio"] = counts.get("epc.hits", 0) / touches if touches else 0.0
    flushes = counts.get("coalescer.flushes", 0)
    metrics["coalescer.calls_per_flush"] = (
        counts.get("coalescer.flushed_calls", 0) / flushes if flushes else 0.0
    )
    metrics["arena.staged_bytes"] = counts.get("arena.staged_bytes", 0)
    metrics["gc.released"] = counts.get("gc.released", 0)
    offered = counts.get("admission.offered", 0)
    metrics["admission.shed_share"] = (
        counts.get("admission.shed", 0) / offered if offered else 0.0
    )
    metrics["autoscale.keys_moved"] = counts.get("autoscale.keys_moved", 0)
    return metrics
