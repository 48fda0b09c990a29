"""Command-line interface: regenerate any paper figure/table.

Usage::

    python -m repro list
    python -m repro fig3 [--scale small|paper]
    python -m repro table1
    python -m repro ablations
    python -m repro fig4a --trace trace.json --metrics metrics.json

``--scale small`` (the default) runs a quick, scaled-down sweep;
``--scale paper`` uses the paper's parameter ranges.

Observability flags (any of them activates a
:class:`~repro.obs.recorder.RunRecorder` spanning the whole run):

- ``--trace PATH``    Chrome trace_event JSON (open in Perfetto)
- ``--events PATH``   raw span stream as JSONL
- ``--metrics PATH``  merged metrics + ledger snapshot + cross-check
- ``--obs-summary``   print a per-span-name summary table after the run

The flags apply uniformly to every subcommand — figures, ``scale``,
``chaos``, all of them. When any is given, the default SLO rulebook
(:func:`repro.obs.slo.default_rulebook`) watches the run and its
verdicts are included in every ``--obs-summary`` output.

Without these flags no tracer is attached and the experiment output is
byte-identical to a build without the observability layer.

The subcommands in :data:`DELEGATES` bring their own argparse and are
handed the rest of the command line before the experiment parser runs.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, Dict, Tuple

from repro.experiments import fig3_proxy_creation, fig4_rmi, fig5_gc
from repro.experiments import fig6_synthetic, fig7_paldb, fig9_graphchi
from repro.experiments import ablations, fig12_specjvm
from repro.experiments import epc_paging, mapreduce_exp, securekeeper_exp, startup
from repro.experiments import batching_exp, fault_recovery, scaling_exp


def _fig3(scale: str) -> None:
    counts = (2_000, 6_000, 10_000) if scale == "small" else fig3_proxy_creation.DEFAULT_COUNTS
    print(fig3_proxy_creation.run_fig3(counts=counts).format())


def _fig4a(scale: str) -> None:
    counts = (2_000, 6_000) if scale == "small" else (10_000, 50_000, 100_000)
    print(fig4_rmi.run_fig4a(counts=counts).format())


def _fig4b(scale: str) -> None:
    if scale == "small":
        table = fig4_rmi.run_fig4b(list_sizes=(10_000, 50_000), invocations=1_000)
    else:
        table = fig4_rmi.run_fig4b()
    print(table.format())


def _fig4b_arena(scale: str) -> None:
    if scale == "small":
        table = fig4_rmi.run_fig4b_arena(list_sizes=(1_000, 4_000), invocations=128)
    else:
        table = fig4_rmi.run_fig4b_arena()
    print(table.format(y_format="{:.5f}"))


def _fig7_arena(scale: str) -> None:
    counts = (1_000, 3_000) if scale == "small" else fig7_paldb.DEFAULT_ARENA_KEY_COUNTS
    print(fig7_paldb.run_fig7_arena(key_counts=counts).format(y_format="{:.4f}"))


def _fig5a(scale: str) -> None:
    counts = (50_000, 150_000) if scale == "small" else fig5_gc.DEFAULT_COUNTS
    print(fig5_gc.run_fig5a(counts=counts).format())


def _fig5b(scale: str) -> None:
    if scale == "small":
        table = fig5_gc.run_fig5b(duration_s=16.0, create_phase_s=8.0, batch=300)
    else:
        table = fig5_gc.run_fig5b()
    print(table.format(y_format="{:.0f}"))


def _fig6(scale: str) -> None:
    if scale == "small":
        table = fig6_synthetic.run_fig6(percentages=(0, 25, 50, 75, 100), n_classes=30)
    else:
        table = fig6_synthetic.run_fig6()
    print(table.format(y_format="{:.4f}"))


def _fig7(scale: str) -> None:
    counts = (5_000, 15_000) if scale == "small" else fig7_paldb.DEFAULT_KEY_COUNTS
    print(fig7_paldb.run_fig7(key_counts=counts).format(y_format="{:.3f}"))


def _fig9(scale: str) -> None:
    graphs = (
        ((2_000, 8_000),) if scale == "small" else fig9_graphchi.DEFAULT_GRAPHS
    )
    shards = (1, 3) if scale == "small" else fig9_graphchi.DEFAULT_SHARDS
    for table in fig9_graphchi.run_fig9(graphs=graphs, shard_counts=shards).values():
        print(table.format(y_format="{:.3f}"))
        print()


def _fig10(scale: str) -> None:
    counts = (5_000, 15_000) if scale == "small" else (20_000, 60_000, 100_000)
    print(fig7_paldb.run_fig10(key_counts=counts).format(y_format="{:.3f}"))


def _fig11(scale: str) -> None:
    if scale == "small":
        table = fig9_graphchi.run_fig11(
            n_vertices=5_000, n_edges=20_000, shard_counts=(1, 3)
        )
    else:
        table = fig9_graphchi.run_fig11()
    print(table.format(y_format="{:.3f}"))


def _fig12(scale: str) -> None:
    print(fig12_specjvm.run_fig12().format(y_format="{:.2f}"))


def _table1(scale: str) -> None:
    ratios = fig12_specjvm.run_table1()
    print("Table 1 — latency gain of SGX-NI over SCONE+JVM")
    for kernel, ratio in ratios.items():
        paper = fig12_specjvm.PAPER_TABLE1[kernel]
        print(f"  {kernel:<12} {ratio:5.2f}x   (paper: {paper:.2f}x)")


def _ablations(scale: str) -> None:
    ablations.main()


def _epc(scale: str) -> None:
    print(epc_paging.run_epc_paging().format(y_format="{:.4f}"))


def _startup(scale: str) -> None:
    startup.main()


def _securekeeper(scale: str) -> None:
    counts = (300, 600) if scale == "small" else securekeeper_exp.DEFAULT_ENTRY_COUNTS
    print(securekeeper_exp.run_securekeeper(entry_counts=counts).format(y_format="{:.4f}"))


def _mapreduce(scale: str) -> None:
    counts = (200, 400) if scale == "small" else mapreduce_exp.DEFAULT_LINE_COUNTS
    print(mapreduce_exp.run_mapreduce(line_counts=counts).format(y_format="{:.4f}"))


def _chaos(scale: str) -> None:
    import os

    if scale == "small":
        report = fault_recovery.run_chaos(
            fault_rates=(0.0, 0.05),
            checkpoint_intervals_ns=(0.0, 2_000_000.0),
            n_accounts=4,
            rounds=12,
            n_entries=10,
        )
    else:
        report = fault_recovery.run_chaos()
    print(report.format())
    os.makedirs("results", exist_ok=True)
    path = os.path.join("results", "fault_recovery.json")
    report.write_artifact(path)
    print(f"artifact: {path}", file=sys.stderr)


def _batch(scale: str) -> None:
    import os

    if scale == "small":
        report = batching_exp.run_batching(
            batch_sizes=(None, 1, 4, 16),
            durability_sizes=(None, 1, 4, 8),
        )
    else:
        report = batching_exp.run_batching()
    print(report.format())
    os.makedirs("results", exist_ok=True)
    path = os.path.join("results", "batching.json")
    report.write_artifact(path)
    print(f"artifact: {path}", file=sys.stderr)


def _scale(scale: str) -> None:
    import os

    if scale == "small":
        report = scaling_exp.run_scaling(
            session_counts=(1, 2, 4, 8),
            shard_counts=(1, 2),
            rounds=8,
            entries=6,
        )
    else:
        report = scaling_exp.run_scaling()
    print(report.format())
    os.makedirs("results", exist_ok=True)
    path = os.path.join("results", "scaling.json")
    report.write_artifact(path)
    print(f"artifact: {path}", file=sys.stderr)


COMMANDS: Dict[str, Callable[[str], None]] = {
    "batch": _batch,
    "chaos": _chaos,
    "epc": _epc,
    "startup": _startup,
    "securekeeper": _securekeeper,
    "mapreduce": _mapreduce,
    "scale": _scale,
    "fig3": _fig3,
    "fig4a": _fig4a,
    "fig4b": _fig4b,
    "fig4b_arena": _fig4b_arena,
    "fig7_arena": _fig7_arena,
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "table1": _table1,
    "ablations": _ablations,
}


#: Subcommands with their own argparse: name -> (module whose
#: ``main(argv)`` runs it, one-line summary for the epilog). The module
#: is imported only when its subcommand is run.
DELEGATES: Dict[str, Tuple[str, str]] = {
    "lint": (
        "repro.analysis.cli",
        "static partition linter over the bundled apps (see docs/ANALYSIS.md)",
    ),
    "secv": (
        "repro.experiments.secv_exp",
        "class- vs value-granular partitioning ablation (see docs/ANALYSIS.md)",
    ),
    "traffic": (
        "repro.experiments.traffic_exp",
        "open-loop load + admission control + elastic shard autoscaler "
        "with sealed live migration (see docs/CONCURRENCY.md)",
    ),
    "offload": (
        "repro.experiments.offload_exp",
        "accelerator DMA offload vs in-enclave execution (see docs/PERF.md)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Montsalvat reproduction: regenerate paper figures/tables",
        epilog="additional subcommands: "
        + "; ".join(
            f"'repro {name}' — {summary}"
            for name, (_, summary) in DELEGATES.items()
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["list", "all"],
        help="which figure/table to regenerate ('list' to enumerate)",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="parameter scale (default: small, quick sweep)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON file (Perfetto-loadable)",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="write the raw span stream as JSONL",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write merged metrics + ledger snapshot JSON",
    )
    parser.add_argument(
        "--obs-summary",
        action="store_true",
        help="print a per-span summary table after the experiment",
    )
    return parser


def _run(args) -> None:
    if args.experiment == "list":
        for name in sorted(COMMANDS):
            print(name)
        return
    if args.experiment == "all":
        for name in sorted(COMMANDS):
            print(f"==== {name} ====")
            COMMANDS[name](args.scale)
            print()
        return
    COMMANDS[args.experiment](args.scale)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in DELEGATES:
        module, _ = DELEGATES[argv[0]]
        return importlib.import_module(module).main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    wants_obs = args.trace or args.events or args.metrics or args.obs_summary
    if not wants_obs:
        _run(args)
        return 0

    from repro.obs.recorder import RunRecorder, recording
    from repro.obs.slo import SloWatchdog, default_rulebook

    recorder = RunRecorder(slo=SloWatchdog(default_rulebook()))
    with recording(recorder):
        _run(args)
    if args.trace:
        recorder.write_chrome_trace(args.trace)
        print(f"trace: {args.trace}", file=sys.stderr)
    if args.events:
        lines = recorder.write_jsonl(args.events)
        print(f"events: {args.events} ({lines} lines)", file=sys.stderr)
    if args.metrics:
        recorder.write_metrics(args.metrics)
        print(f"metrics: {args.metrics}", file=sys.stderr)
    if args.obs_summary:
        print()
        print(recorder.summary())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
