"""Accelerator-offload ablation: DMA out of the enclave vs in-enclave.

SPECjvm-style kernels pay three enclave taxes when they run inside:
the MEE on every cache miss, EPC paging once the working set overflows,
and the native image's serial GC on every allocated byte. A
PCIe-attached accelerator pays none of them — but it charges a toll at
the door: the working set must be staged into pinned untrusted pages,
MAC-protected, DMA-shipped, and the results shipped back and verified
(:class:`~repro.sgx.dma.DmaChannel` prices that data path under
``sgx.dma.*``).

Whether the toll is worth paying depends on how well the kernel maps
onto the device, captured per kernel as an *acceleration ratio*: device
execution time relative to the kernel's unshielded native cost (compute
plus allocation management). Dense data-parallel FFT flies (0.22);
irregular-access SparseMatMult still wins (0.6); the allocation-heavy,
serially RNG-driven Monte_Carlo port maps terribly (2.4) — so the
ablation's expected shape is a **winner flip**: fft and sparse leave
the enclave, monte_carlo stays.

The artifact also records an arena-noop identity check: attaching a
:class:`~repro.core.arena.SharedBufferArena` to a run that never stages
a value (the bank app's batchable arguments are all primitives) must
leave the ledger byte-identical — the fast path prices nothing until
something is actually staged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.bank import Account, BANK_CLASSES
from repro.apps.specjvm import KERNELS
from repro.apps.specjvm.kernels import _BUMP_ALLOC_BYTE_CYCLES, Kernel
from repro.batching import BatchPolicy, attach_batching
from repro.core import Partitioner, PartitionOptions
from repro.core.annotations import ambient_context
from repro.core.arena import attach_arena
from repro.experiments.common import ExperimentTable, canonical_digest
from repro.obs.artifacts import run_artifact, write_artifact
from repro.sgx.dma import DmaChannel

#: The three kernels of the ablation, in report order.
OFFLOAD_KERNELS: Tuple[str, ...] = ("fft", "sparse", "monte_carlo")

#: Device execution time relative to unshielded native execution.
#: Below 1.0 the device computes faster than the CPU; above it the
#: kernel shape defeats the accelerator (Monte_Carlo's serial RNG
#: dependency chain and allocation churn do not vectorise).
ACCEL_RATIOS: Dict[str, float] = {
    "fft": 0.22,
    "sparse": 0.6,
    "monte_carlo": 2.4,
}

#: Result bytes shipped back, as a fraction of the working set (the
#: kernels reduce: a spectrum, a vector, an estimate — not the input).
RESULT_FRACTION = 0.125


def native_equivalent_cycles(kernel: Kernel, gc_rate: float) -> float:
    """What the kernel costs unshielded: compute + allocation management.

    This is the baseline the acceleration ratio scales — the device has
    no MEE and no EPC, but it still executes the arithmetic and still
    manages the kernel's allocation churn (in device memory).
    """
    fp = kernel.footprint
    return fp.cpu_cycles + fp.alloc_bytes * (_BUMP_ALLOC_BYTE_CYCLES + gc_rate)


@dataclass
class KernelVerdict:
    """One kernel's in-enclave vs offloaded comparison."""

    kernel: str
    accel_ratio: float
    in_enclave_s: float
    offload_s: float
    dma_bytes: int
    checksums_match: bool

    @property
    def winner(self) -> str:
        return "offload" if self.offload_s < self.in_enclave_s else "in-enclave"

    @property
    def speedup(self) -> float:
        """In-enclave time over offload time (>1 means offload wins)."""
        return self.in_enclave_s / self.offload_s if self.offload_s else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "accel_ratio": self.accel_ratio,
            "in_enclave_s": self.in_enclave_s,
            "offload_s": self.offload_s,
            "dma_bytes": self.dma_bytes,
            "winner": self.winner,
            "speedup": round(self.speedup, 4),
            "checksums_match": self.checksums_match,
        }


@dataclass
class OffloadReport:
    """Full offload ablation output."""

    table: ExperimentTable
    verdicts: List[KernelVerdict] = field(default_factory=list)
    arena_noop_identical: bool = False

    @property
    def winners(self) -> Dict[str, str]:
        return {v.kernel: v.winner for v in self.verdicts}

    def format(self) -> str:
        parts = [self.table.format(y_format="{:.3f}"), ""]
        for verdict in self.verdicts:
            parts.append(
                f"{verdict.kernel:<12} {verdict.winner:<11} "
                f"({verdict.speedup:.2f}x offload speedup, ratio "
                f"{verdict.accel_ratio:.2f}, "
                f"{verdict.dma_bytes / 1e6:.1f} MB over DMA)"
            )
        noop = "identical" if self.arena_noop_identical else "DIVERGED"
        parts.append(f"arena attached-but-unused vs no arena: ledger {noop}")
        return "\n".join(parts)

    def fingerprint(self) -> str:
        """Digest of every verdict and the identity check. The run is a
        pure function of the cost model, so two invocations must agree
        (the CI ``offload-smoke`` job asserts it)."""
        payload = {
            "verdicts": [v.to_dict() for v in self.verdicts],
            "arena_noop_identical": self.arena_noop_identical,
        }
        return canonical_digest(payload)

    def to_artifact(self) -> Dict[str, object]:
        return run_artifact(
            "offload",
            tables=[self.table],
            extra={
                "offload": {
                    "fingerprint": self.fingerprint(),
                    "verdicts": [v.to_dict() for v in self.verdicts],
                    "winners": self.winners,
                    "arena_noop_identical": self.arena_noop_identical,
                }
            },
        )

    def write_artifact(self, path: str) -> None:
        write_artifact(path, self.to_artifact())


# -- kernel legs ----------------------------------------------------------------


class _KernelHost:
    """Placeholder application class for the unpartitioned image."""

    def run(self) -> None:
        """Entry point the image is built around."""


def _enclave_session(name: str):
    return (
        Partitioner(PartitionOptions(name=name))
        .unpartitioned([_KernelHost])
        .start()
    )


def run_in_enclave(kernel_name: str) -> Tuple[float, float]:
    """The kernel inside an unpartitioned enclave image (SGX-NI)."""
    with _enclave_session(f"offload_{kernel_name}_enclave") as session:
        span = session.platform.measure()
        checksum = KERNELS[kernel_name].run(ambient_context())
        return span.elapsed_s(), checksum


def run_offloaded(kernel_name: str) -> Tuple[float, float, int]:
    """The kernel shipped to the accelerator over the DMA channel."""
    kernel = KERNELS[kernel_name]
    fp = kernel.footprint
    with _enclave_session(f"offload_{kernel_name}_device") as session:
        platform = session.platform
        channel = DmaChannel(platform, name=f"dma_{kernel_name}")
        span = platform.measure()
        out_bytes = int(fp.ws_bytes)
        back_bytes = int(fp.ws_bytes * RESULT_FRACTION)
        channel.ship_to_device(out_bytes)
        channel.launch(kernel_name)
        platform.charge_cycles(
            f"accel.compute.{kernel_name}",
            native_equivalent_cycles(
                kernel, platform.cost_model.gc.ni_alloc_gc_byte_cycles
            )
            * ACCEL_RATIOS[kernel_name],
        )
        channel.fetch_from_device(back_bytes)
        checksum = kernel.compute()  # same numbers, computed on-device
        return span.elapsed_s(), checksum, channel.stats.bytes_moved


# -- the arena-noop identity check ----------------------------------------------


def _bank_ledger(with_arena: bool) -> Dict[str, Tuple[int, float]]:
    """One batched bank run's full ledger, arena attached or not.

    The bank's batchable arguments are all primitives, so the arena
    stages nothing — its presence must not move a single entry.
    """
    app = Partitioner(PartitionOptions(name="offload_noop")).partition(
        list(BANK_CLASSES)
    )
    with app.start() as session:
        attach_batching(session, BatchPolicy(max_batch=8, window_ns=1e12))
        if with_arena:
            attach_arena(session)
        account = Account("noop", 100)
        for index in range(24):
            account.update_balance(1 + index % 3)
        account.get_balance()
    return {k: tuple(v) for k, v in app.platform.snapshot().items()}


def check_arena_noop_identity() -> bool:
    """Arena attached but never staging == no arena, byte for byte."""
    return _bank_ledger(with_arena=True) == _bank_ledger(with_arena=False)


# -- the ablation ----------------------------------------------------------------


def run_offload(
    kernels: Sequence[str] = OFFLOAD_KERNELS,
) -> OffloadReport:
    table = ExperimentTable(
        title="Accelerator offload — DMA out of the enclave vs in-enclave",
        x_label="kernel",
        y_label="run time (s)",
        notes="x positions are kernel indexes in "
        + ", ".join(kernels)
        + " order",
    )
    enclave_series = table.new_series("in-enclave")
    offload_series = table.new_series("offload")
    report = OffloadReport(table=table)
    for index, kernel_name in enumerate(kernels):
        in_enclave_s, enclave_checksum = run_in_enclave(kernel_name)
        offload_s, device_checksum, dma_bytes = run_offloaded(kernel_name)
        enclave_series.add(index, in_enclave_s)
        offload_series.add(index, offload_s)
        report.verdicts.append(
            KernelVerdict(
                kernel=kernel_name,
                accel_ratio=ACCEL_RATIOS[kernel_name],
                in_enclave_s=in_enclave_s,
                offload_s=offload_s,
                dma_bytes=dma_bytes,
                checksums_match=enclave_checksum == device_checksum,
            )
        )
    report.arena_noop_identical = check_arena_noop_identity()
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro offload [--out PATH]``."""
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(
        prog="repro offload",
        description="accelerator DMA offload vs in-enclave execution",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=os.path.join("results", "offload.json"),
        help="artifact path (default: results/offload.json)",
    )
    args = parser.parse_args(argv)
    report = run_offload()
    print(report.format())
    print(f"fingerprint: {report.fingerprint()}")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    report.write_artifact(args.out)
    print(f"artifact: {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
