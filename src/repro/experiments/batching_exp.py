"""Batching ablation: batch size × workload (crossings, time, durability).

Every enclave crossing pays a fixed toll — the hardware transition plus
the GraalVM isolate attach (§2.1, Fig. 3/4) — so a chatty call site's
cost is dominated by *how many times* it crosses, not by the work it
carries. This experiment measures what trace-driven call coalescing
(:mod:`repro.batching`) buys and what it risks, across three workloads:

- **bank** — a stream of fire-and-forget ``update_balance`` ecalls on
  in-enclave accounts (the paper's Listing 1 example, worst-case chatty);
- **PalDB (RUWT)** — the §6.5 writer-trusted scheme driven record by
  record through ``put_record`` instead of the coarse ``write_all``;
- **SecureKeeper** — the vault's in-enclave audit trail
  (``record_access``), one entry per store operation.

For each batch size it reports:

- **crossing counts** — boundary transitions performed (batching elides
  ``calls - 1`` of every full batch);
- **virtual-time speedup** over the unbatched baseline, results
  verified identical;
- **durability** — with a seeded mid-call enclave crash, a batch of
  non-idempotent updates is refused replay *as a unit*: the larger the
  batch, the more silently-acknowledged updates one loss destroys.

``batch size = 1`` routes every flush through the ordinary unbatched
crossing path, so its ledger is byte-identical to batching disabled —
the report records that check (``identical``) and the CI smoke job
fingerprints the whole sweep for determinism.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.bank import Account, BANK_CLASSES
from repro.apps.paldb import KvWorkload
from repro.apps.paldb.workload import (
    PALDB_RUWT_CLASSES,
    TrustedDBWriter,
    UntrustedDBReader,
)
from repro.apps.securekeeper import (
    SECUREKEEPER_CLASSES,
    PayloadVault,
    SecureKeeperClient,
    ZNodeStore,
)
from repro.batching import BatchPolicy, attach_batching
from repro.core import Partitioner, PartitionOptions
from repro.errors import NonIdempotentReplayError, RetryExhaustedError
from repro.experiments.common import ExperimentTable, canonical_digest
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultRule,
    RetryPolicy,
    attach_recovery,
)
from repro.obs.artifacts import run_artifact, write_artifact

#: ``None`` is the unbatched baseline; the rest sweep the policy size.
DEFAULT_BATCH_SIZES: Tuple[Optional[int], ...] = (None, 1, 4, 16, 64)
DEFAULT_DURABILITY_SIZES: Tuple[Optional[int], ...] = (None, 1, 2, 4, 8)
DEFAULT_SEED = 7_177

#: One virtual second: wide enough that the window trigger never fires
#: inside the tight sweep loops — batch-full and barriers do the work.
_SWEEP_WINDOW_NS = 1e9

WORKLOADS = ("bank", "paldb", "securekeeper")


@dataclass
class BatchRunResult:
    """One (workload, batch size) measurement."""

    workload: str
    batch_size: Optional[int]  # None = batching disabled
    ops: int
    elapsed_s: float
    crossings: int
    batch_crossings: int
    batched_calls: int
    checksum: Tuple[Any, ...]
    batch_stats: Optional[Dict[str, Any]]
    ledger: Dict[str, Tuple[int, float]]

    @property
    def label(self) -> str:
        return "unbatched" if self.batch_size is None else f"batch={self.batch_size}"

    @property
    def crossings_saved(self) -> int:
        return self.batched_calls - self.batch_crossings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "batch_size": self.batch_size,
            "ops": self.ops,
            "elapsed_s": self.elapsed_s,
            "crossings": self.crossings,
            "batch_crossings": self.batch_crossings,
            "batched_calls": self.batched_calls,
            "crossings_saved": self.crossings_saved,
            "checksum": list(self.checksum),
            "batch_stats": self.batch_stats,
        }


@dataclass
class DurabilityResult:
    """Bank run under one seeded mid-call crash, per batch size."""

    batch_size: Optional[int]
    updates: int
    acked: int
    observed: int
    visible_failures: int
    calls_refused: int
    enclave_losses: int

    @property
    def lost_acked(self) -> int:
        """Updates the caller believed applied that never landed."""
        return self.acked - self.observed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "batch_size": self.batch_size,
            "updates": self.updates,
            "acked": self.acked,
            "observed": self.observed,
            "visible_failures": self.visible_failures,
            "calls_refused": self.calls_refused,
            "enclave_losses": self.enclave_losses,
            "lost_acked": self.lost_acked,
        }


@dataclass
class BatchingReport:
    """Full ablation output: tables + raw per-run results."""

    speedup: ExperimentTable
    crossings: ExperimentTable
    durability: ExperimentTable
    results: List[BatchRunResult] = field(default_factory=list)
    durability_results: List[DurabilityResult] = field(default_factory=list)
    #: Per workload: is the batch-size-1 ledger byte-identical to the
    #: unbatched one (charges, counts, checksums all equal)?
    identical: Dict[str, bool] = field(default_factory=dict)
    seed: int = DEFAULT_SEED

    def best_speedup(self, workload: str) -> float:
        base = next(
            (
                r
                for r in self.results
                if r.workload == workload and r.batch_size is None
            ),
            None,
        )
        if base is None or base.elapsed_s == 0:
            return 1.0
        best = 1.0
        for r in self.results:
            if r.workload == workload and r.batch_size and r.elapsed_s:
                best = max(best, base.elapsed_s / r.elapsed_s)
        return best

    def format(self) -> str:
        parts = [
            self.speedup.format(y_format="{:.2f}"),
            "",
            self.crossings.format(y_format="{:.0f}"),
            "",
            self.durability.format(y_format="{:.0f}"),
            "",
        ]
        for workload in sorted(self.identical):
            ok = "identical" if self.identical[workload] else "DIVERGED"
            parts.append(f"{workload}: batch=1 vs unbatched ledger {ok}")
        parts.append(
            "-- seed=%d; best speedups: %s"
            % (
                self.seed,
                ", ".join(
                    f"{w} {self.best_speedup(w):.1f}x"
                    for w in WORKLOADS
                    if any(r.workload == w for r in self.results)
                ),
            )
        )
        return "\n".join(parts)

    def fingerprint(self) -> str:
        """Digest of every ledger, checksum and durability outcome.
        Same seed => same fingerprint (the CI smoke job asserts it)."""
        payload = {
            "seed": self.seed,
            "results": [
                {
                    **r.to_dict(),
                    "ledger": {k: list(v) for k, v in sorted(r.ledger.items())},
                }
                for r in self.results
            ],
            "durability": [d.to_dict() for d in self.durability_results],
            "identical": dict(sorted(self.identical.items())),
        }
        return canonical_digest(payload)

    def to_artifact(self) -> Dict[str, Any]:
        return run_artifact(
            "batching",
            tables=[self.speedup, self.crossings, self.durability],
            extra={
                "batching": {
                    "seed": self.seed,
                    "fingerprint": self.fingerprint(),
                    "identical": dict(sorted(self.identical.items())),
                    "best_speedup": {
                        w: self.best_speedup(w)
                        for w in WORKLOADS
                        if any(r.workload == w for r in self.results)
                    },
                    "runs": [r.to_dict() for r in self.results],
                    "durability": [
                        d.to_dict() for d in self.durability_results
                    ],
                }
            },
        )

    def write_artifact(self, path: str) -> None:
        write_artifact(path, self.to_artifact())


def _policy(batch_size: int) -> BatchPolicy:
    return BatchPolicy(max_batch=batch_size, window_ns=_SWEEP_WINDOW_NS)


# -- workload runners ---------------------------------------------------------


def run_bank_batching(
    batch_size: Optional[int],
    n_accounts: int = 4,
    rounds: int = 48,
) -> BatchRunResult:
    """A stream of fire-and-forget balance updates, then audited reads."""
    app = Partitioner(PartitionOptions(name="batch_bank")).partition(
        list(BANK_CLASSES)
    )
    platform = app.platform
    with app.start() as session:
        accounts = [Account(f"acct-{i}", 100) for i in range(n_accounts)]
        coalescer = (
            attach_batching(session, _policy(batch_size))
            if batch_size is not None
            else None
        )
        started_s = platform.now_s
        crossings_before = session.transition_stats.crossings
        for round_no in range(rounds):
            for index, account in enumerate(accounts):
                account.update_balance(1 + ((round_no + index) % 3))
        # Data-dependent reads: drain the queue, then cross per account.
        balances = tuple(account.get_balance() for account in accounts)
        elapsed_s = platform.now_s - started_s
        stats = session.transition_stats
        batch_stats = coalescer.stats.to_dict() if coalescer is not None else None
        if coalescer is not None:
            coalescer.detach()
        return BatchRunResult(
            workload="bank",
            batch_size=batch_size,
            ops=n_accounts * rounds,
            elapsed_s=elapsed_s,
            crossings=stats.crossings - crossings_before,
            batch_crossings=stats.batch_crossings,
            batched_calls=stats.batched_calls,
            checksum=balances,
            batch_stats=batch_stats,
            ledger={k: tuple(v) for k, v in platform.snapshot().items()},
        )


def run_paldb_batching(
    batch_size: Optional[int],
    n_records: int = 64,
    value_length: int = 32,
    seed: int = DEFAULT_SEED,
) -> BatchRunResult:
    """RUWT record-at-a-time writes: one ecall per record, coalesced."""
    app = Partitioner(PartitionOptions(name="batch_paldb")).partition(
        list(PALDB_RUWT_CLASSES)
    )
    platform = app.platform
    keys, values = KvWorkload(
        n_keys=n_records, value_length=value_length, seed=seed
    ).generate()
    with app.start() as session:
        workdir = tempfile.mkdtemp(prefix="batch_paldb_")
        path = os.path.join(workdir, "store.paldb")
        writer = TrustedDBWriter(path)
        writer.begin_store()
        coalescer = (
            attach_batching(session, _policy(batch_size))
            if batch_size is not None
            else None
        )
        started_s = platform.now_s
        crossings_before = session.transition_stats.crossings
        for key, value in zip(keys, values):
            writer.put_record(key, value)
        written = writer.finish_store()  # barrier: drains any open batch
        found, checksum = UntrustedDBReader(path).read_all(keys)
        elapsed_s = platform.now_s - started_s
        stats = session.transition_stats
        batch_stats = coalescer.stats.to_dict() if coalescer is not None else None
        if coalescer is not None:
            coalescer.detach()
        return BatchRunResult(
            workload="paldb",
            batch_size=batch_size,
            ops=n_records,
            elapsed_s=elapsed_s,
            crossings=stats.crossings - crossings_before,
            batch_crossings=stats.batch_crossings,
            batched_calls=stats.batched_calls,
            checksum=(written, found, checksum),
            batch_stats=batch_stats,
            ledger={k: tuple(v) for k, v in platform.snapshot().items()},
        )


def run_keeper_batching(
    batch_size: Optional[int],
    n_entries: int = 12,
    audit_passes: int = 6,
) -> BatchRunResult:
    """SecureKeeper's in-enclave audit trail, one ecall per access."""
    app = Partitioner(PartitionOptions(name="batch_keeper")).partition(
        list(SECUREKEEPER_CLASSES)
    )
    platform = app.platform
    with app.start() as session:
        vault = PayloadVault("master")
        client = SecureKeeperClient(vault, ZNodeStore())
        for index in range(n_entries):
            client.put(f"/cfg{index}", f"value-{index}")
        coalescer = (
            attach_batching(session, _policy(batch_size))
            if batch_size is not None
            else None
        )
        started_s = platform.now_s
        crossings_before = session.transition_stats.crossings
        for _ in range(audit_passes):
            for index in range(n_entries):
                vault.record_access(f"/cfg{index}")
        audited = vault.audit_count()  # data-dependent: drains the queue
        correct = sum(
            1
            for index in range(n_entries)
            if client.read(f"/cfg{index}") == f"value-{index}"
        )
        elapsed_s = platform.now_s - started_s
        stats = session.transition_stats
        batch_stats = coalescer.stats.to_dict() if coalescer is not None else None
        if coalescer is not None:
            coalescer.detach()
        return BatchRunResult(
            workload="securekeeper",
            batch_size=batch_size,
            ops=audit_passes * n_entries,
            elapsed_s=elapsed_s,
            crossings=stats.crossings - crossings_before,
            batch_crossings=stats.batch_crossings,
            batched_calls=stats.batched_calls,
            checksum=(audited, correct),
            batch_stats=batch_stats,
            ledger={k: tuple(v) for k, v in platform.snapshot().items()},
        )


_RUNNERS = {
    "bank": run_bank_batching,
    "paldb": run_paldb_batching,
    "securekeeper": run_keeper_batching,
}


def run_workload(workload: str, batch_size: Optional[int]) -> BatchRunResult:
    try:
        runner = _RUNNERS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; pick from {sorted(_RUNNERS)}"
        ) from None
    return runner(batch_size)


# -- durability under faults --------------------------------------------------


def run_bank_durability(
    batch_size: Optional[int],
    n_updates: int = 24,
    crash_at: int = 2,
    seed: int = DEFAULT_SEED,
) -> DurabilityResult:
    """One seeded mid-call enclave crash against a batched update stream.

    ``update_balance`` is *not* idempotent, so a crossing lost mid-call
    is refused replay. Unbatched, the caller of the doomed update sees
    the error and nothing is silently lost. Batched, the whole envelope
    shares the loss: every already-acknowledged member of the doomed
    batch vanishes — the batch-size vs lost-updates trade the report's
    durability table plots.
    """
    app = Partitioner(PartitionOptions(name="batch_durability")).partition(
        list(BANK_CLASSES)
    )
    platform = app.platform
    injector = FaultInjector(
        seed=seed,
        rules=[
            FaultRule(
                FaultKind.ENCLAVE_CRASH,
                routine="*Account_update_balance",
                at_call=crash_at,
                phase="mid",
                max_fires=1,
            )
        ],
    )
    with app.start() as session:
        coordinator = attach_recovery(
            session,
            checkpoint_interval_ns=0.0,
            policy=RetryPolicy(
                max_attempts=4,
                idempotent_patterns=("relay_*_get_*", "gc_release"),
            ),
            platform_secret=b"batch-secret",
        )
        account = Account("victim", 0)
        coordinator.checkpoints.checkpoint()
        coalescer = (
            attach_batching(session, _policy(batch_size))
            if batch_size is not None
            else None
        )
        platform.enable_fault_injection(injector)
        acked = 0
        visible_failures = 0
        for _ in range(n_updates):
            try:
                account.update_balance(1)
                acked += 1
            except (NonIdempotentReplayError, RetryExhaustedError):
                visible_failures += 1
        if coalescer is not None:
            try:
                coalescer.detach()
            except (NonIdempotentReplayError, RetryExhaustedError):
                visible_failures += 1
        observed = account.get_balance()
        platform.disable_fault_injection()
        calls_refused = int(coordinator.stats.calls_refused)
        session.runtime.recovery = None
        return DurabilityResult(
            batch_size=batch_size,
            updates=n_updates,
            acked=acked,
            observed=observed,
            visible_failures=visible_failures,
            calls_refused=calls_refused,
            enclave_losses=session.enclave.rebuilds,
        )


# -- the sweep ----------------------------------------------------------------


def _ledger_identical(a: BatchRunResult, b: BatchRunResult) -> bool:
    return a.ledger == b.ledger and a.checksum == b.checksum


def run_batching(
    batch_sizes: Sequence[Optional[int]] = DEFAULT_BATCH_SIZES,
    durability_sizes: Sequence[Optional[int]] = DEFAULT_DURABILITY_SIZES,
    workloads: Sequence[str] = WORKLOADS,
    seed: int = DEFAULT_SEED,
    include_durability: bool = True,
) -> BatchingReport:
    """Sweep batch size × workload; returns the full report."""
    speedup = ExperimentTable(
        title="Batching ablation — virtual-time speedup vs batch size",
        x_label="batch size",
        y_label="speedup over unbatched",
        notes="one transition + isolate attach per batch instead of per call",
    )
    crossings = ExperimentTable(
        title="Boundary crossings vs batch size",
        x_label="batch size",
        y_label="transitions performed",
        notes="a full batch of N elides N-1 crossings",
    )
    durability = ExperimentTable(
        title="Durability — acknowledged updates lost to one mid-call crash",
        x_label="batch size",
        y_label="updates silently lost",
        notes="a non-idempotent batch is refused replay as a unit",
    )
    report = BatchingReport(
        speedup=speedup, crossings=crossings, durability=durability, seed=seed
    )
    for workload in workloads:
        speedup_series = speedup.new_series(workload)
        crossing_series = crossings.new_series(workload)
        baseline: Optional[BatchRunResult] = None
        size_one: Optional[BatchRunResult] = None
        for batch_size in batch_sizes:
            result = run_workload(workload, batch_size)
            report.results.append(result)
            if batch_size is None:
                baseline = result
                continue
            if batch_size == 1:
                size_one = result
            if baseline is not None and result.elapsed_s:
                speedup_series.add(
                    batch_size, baseline.elapsed_s / result.elapsed_s
                )
            crossing_series.add(batch_size, result.crossings)
        if baseline is not None and size_one is not None:
            report.identical[workload] = _ledger_identical(baseline, size_one)
    if include_durability:
        lost_series = durability.new_series("bank (one mid-call crash)")
        for batch_size in durability_sizes:
            result = run_bank_durability(batch_size, seed=seed)
            report.durability_results.append(result)
            lost_series.add(
                0 if batch_size is None else batch_size, result.lost_acked
            )
    return report


def main() -> None:  # pragma: no cover - manual entry point
    print(run_batching().format())


if __name__ == "__main__":  # pragma: no cover
    main()
