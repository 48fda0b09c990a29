"""One measuring process: set up a workload, run its timed epochs, and
print the raw results as one JSON line (``run.py`` starts these).

``--mode setup`` stops right before the first timed op (a set-up
sample); ``--mode measure`` runs the timed phase untraced; ``--mode
traced`` installs the layer tracer before anything else and reports
per-layer totals. ``--t0`` is the parent's CLOCK_MONOTONIC reading just
before it started this process, so set-up time includes interpreter
start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from array import array
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stats import percentile, tail_percentile  # noqa: E402


def _epoch_summary(epoch) -> dict:
    samples = epoch.request_ns
    return {
        "host_ns": epoch.host_ns,
        "completed": epoch.completed,
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "p90": tail_percentile(samples, 90.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args(argv)

    tracer = None
    missing = []
    if args.mode == "traced":
        import tracer as layer_tracer

        tracer = layer_tracer.LayerTracer()
        missing = layer_tracer.install(tracer)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    if tracer is not None:
        layer_tracer.install_app(tracer, workload.classes)
    guard = workload.guard()
    workload.start()
    setup_ns = time.monotonic_ns() - args.t0
    result = {"setup_ns": setup_ns, "guard": guard}
    if args.mode == "setup":
        workload.finish()
        print(json.dumps(result))
        return 0

    setup_layers = None
    if tracer is not None:
        setup_layers = layer_tracer.report(tracer, setup_ns)
        tracer.reset()
    epochs = []
    every = array("q")
    window_started = perf_counter_ns()
    for _ in range(max(1, round(args.seconds * workload.epochs_per_second))):
        epoch = workload.epoch()
        every.extend(epoch.request_ns)
        epochs.append(_epoch_summary(epoch))
    window_ns = perf_counter_ns() - window_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layers = layer_tracer.report(tracer, window_ns)
        # The partitioner runs during set-up only: report it there.
        for name in ("calls", "self_ms", "share"):
            layers[f"partitioner.{name}"] = setup_layers[f"partitioner.{name}"]
        result["layers"] = layers
        result["missing"] = missing
    outputs = workload.finish()
    result.update(
        epochs=epochs,
        p99=tail_percentile(every, 99.0),
        samples=len(every),
        attempted=workload.clock.ops.attempted,
        failed=workload.clock.ops.failed,
        mismatches=workload.mismatches,
        fingerprint=outputs.pop("fingerprint"),
        outputs=outputs,
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
