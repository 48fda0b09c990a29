"""Chaos ablation: fault rate × checkpoint interval (robustness cost).

Real SGX deployments live with ``SGX_ERROR_ENCLAVE_LOST``: power
transitions and AEX storms kill enclaves under their callers, and a
shielding runtime must rebuild, re-attest, and restore sealed state
(SCONE, SecureKeeper). This experiment injects exactly those faults
into the partitioned bank and SecureKeeper applications with a seeded
:class:`~repro.faults.FaultInjector` and measures what surviving them
costs:

- **throughput degradation** of the bank workload as the enclave-crash
  probability per crossing rises, for several checkpoint cadences;
- **recovery-cost breakdown** — reinitialize (EADD+EEXTEND reload),
  local re-attestation, sealed-checkpoint restore, retry backoff — all
  in virtual ns;
- **durability** — updates applied before a crash but after the last
  sealed checkpoint are rolled back; eager checkpointing (interval 0)
  loses nothing and the apps finish with *correct* results despite
  enclave losses.

Everything is deterministic under a fixed seed: two runs produce
byte-identical ledgers and fault schedules (the determinism test and
the CI smoke job both rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.bank import Account, BANK_CLASSES
from repro.apps.securekeeper import (
    SECUREKEEPER_CLASSES,
    PayloadVault,
    SecureKeeperClient,
    ZNodeStore,
)
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

DEFAULT_FAULT_RATES = (0.0, 0.02, 0.05, 0.1)
#: 0 = seal after every successful crossing (eager); larger intervals
#: amortise sealing cost but roll back more work on a crash.
DEFAULT_CHECKPOINT_INTERVALS_NS = (0.0, 2_000_000.0)
DEFAULT_SEED = 2024

#: Routines safe to replay after a mid-call loss in these workloads.
_BANK_IDEMPOTENT = ("relay_*_get_*", "relay_*_count", "gc_release")
_KEEPER_IDEMPOTENT = ("relay_PayloadVault_*", "gc_release")


@dataclass
class ChaosResult:
    """One (fault rate, checkpoint interval) bank configuration."""

    fault_rate: float
    checkpoint_interval_ns: float
    ops: int
    aborted_ops: int
    elapsed_s: float
    throughput_ops_s: float
    expected_total: int
    observed_total: int
    faults_injected: int
    enclave_losses: int
    recovery: Dict[str, float]
    checkpoints: Dict[str, int]
    ledger: Dict[str, Tuple[int, float]]
    events: Tuple[Tuple[Any, ...], ...]

    @property
    def lost_updates(self) -> int:
        return self.expected_total - self.observed_total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault_rate": self.fault_rate,
            "checkpoint_interval_ns": self.checkpoint_interval_ns,
            "ops": self.ops,
            "aborted_ops": self.aborted_ops,
            "elapsed_s": self.elapsed_s,
            "throughput_ops_s": self.throughput_ops_s,
            "expected_total": self.expected_total,
            "observed_total": self.observed_total,
            "lost_updates": self.lost_updates,
            "faults_injected": self.faults_injected,
            "enclave_losses": self.enclave_losses,
            "recovery": self.recovery,
            "checkpoints": self.checkpoints,
        }


@dataclass
class KeeperChaosResult:
    """SecureKeeper correctness run under mid-call vault crashes."""

    entries: int
    correct_reads: int
    enclave_losses: int
    faults_injected: int
    recovery: Dict[str, float]
    events: Tuple[Tuple[Any, ...], ...]

    @property
    def all_correct(self) -> bool:
        return self.correct_reads == self.entries

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entries": self.entries,
            "correct_reads": self.correct_reads,
            "all_correct": self.all_correct,
            "enclave_losses": self.enclave_losses,
            "faults_injected": self.faults_injected,
            "recovery": self.recovery,
        }


@dataclass
class ChaosReport:
    """Full sweep output: tables + per-config raw results."""

    throughput: ExperimentTable
    recovery_cost: ExperimentTable
    durability: ExperimentTable
    results: List[ChaosResult] = field(default_factory=list)
    keeper: Optional[KeeperChaosResult] = None
    seed: int = DEFAULT_SEED

    @property
    def total_recoveries(self) -> int:
        total = sum(int(r.recovery.get("recoveries", 0)) for r in self.results)
        if self.keeper is not None:
            total += self.keeper.enclave_losses
        return total

    def format(self) -> str:
        parts = [
            self.throughput.format(y_format="{:.1f}"),
            "",
            self.recovery_cost.format(y_format="{:.0f}"),
            "",
            self.durability.format(y_format="{:.0f}"),
        ]
        if self.keeper is not None:
            parts += [
                "",
                (
                    f"securekeeper: {self.keeper.correct_reads}/"
                    f"{self.keeper.entries} reads correct after "
                    f"{self.keeper.enclave_losses} mid-call enclave "
                    f"loss(es)"
                ),
            ]
        parts.append(
            f"-- seed={self.seed}; recoveries across sweep: "
            f"{self.total_recoveries}"
        )
        return "\n".join(parts)

    def fingerprint(self) -> str:
        """Digest of everything determinism guards: ledgers, fault
        schedules, totals. Same seed => same fingerprint."""
        payload = {
            "seed": self.seed,
            "results": [
                {
                    **r.to_dict(),
                    "ledger": {k: list(v) for k, v in sorted(r.ledger.items())},
                    "events": [list(e) for e in r.events],
                }
                for r in self.results
            ],
            "keeper": (
                {
                    **self.keeper.to_dict(),
                    "events": [list(e) for e in self.keeper.events],
                }
                if self.keeper is not None
                else None
            ),
        }
        return canonical_digest(payload)

    def to_artifact(self) -> Dict[str, Any]:
        return run_artifact(
            "fault_recovery",
            tables=[self.throughput, self.recovery_cost, self.durability],
            extra={
                "chaos": {
                    "seed": self.seed,
                    "fingerprint": self.fingerprint(),
                    "total_recoveries": self.total_recoveries,
                    "configs": [r.to_dict() for r in self.results],
                    "securekeeper": (
                        self.keeper.to_dict() if self.keeper is not None else None
                    ),
                }
            },
        )

    def write_artifact(self, path: str) -> None:
        write_artifact(path, self.to_artifact())


def _bank_rules(fault_rate: float) -> List[FaultRule]:
    if fault_rate <= 0:
        return []
    return [
        # Permanent losses before dispatch: always safe to retry.
        FaultRule(
            FaultKind.ENCLAVE_CRASH,
            routine="relay_*",
            probability=fault_rate,
            phase="pre",
        ),
        # AEX-style transient aborts at half the crash rate.
        FaultRule(
            FaultKind.TRANSIENT_ABORT,
            routine="relay_*",
            probability=fault_rate / 2,
        ),
    ]


def run_bank_chaos(
    fault_rate: float,
    checkpoint_interval_ns: float,
    n_accounts: int = 6,
    rounds: int = 20,
    seed: int = DEFAULT_SEED,
) -> ChaosResult:
    """Drive the bank app under one chaos plan; returns measurements."""
    app = Partitioner(PartitionOptions(name="chaos_bank")).partition(
        list(BANK_CLASSES)
    )
    platform = app.platform
    injector = FaultInjector(seed=seed, rules=_bank_rules(fault_rate))
    with app.start() as session:
        coordinator = attach_recovery(
            session,
            checkpoint_interval_ns=checkpoint_interval_ns,
            policy=RetryPolicy(
                max_attempts=6, idempotent_patterns=_BANK_IDEMPOTENT
            ),
            platform_secret=b"chaos-secret",
        )
        # Steady state first: accounts exist and are checkpointed before
        # the chaos plan arms, so crashes never orphan live proxies.
        accounts = [Account(f"acct-{i}", 0) for i in range(n_accounts)]
        coordinator.checkpoints.checkpoint()
        platform.enable_fault_injection(injector)

        started_s = platform.now_s
        applied = 0
        aborted = 0
        for _ in range(rounds):
            for account in accounts:
                try:
                    account.update_balance(1)
                    applied += 1
                except (RetryExhaustedError, NonIdempotentReplayError):
                    aborted += 1
        observed_total = 0
        for account in accounts:
            observed_total += account.get_balance()
        elapsed_s = platform.now_s - started_s

        # Disarm before teardown: the GC sweep and destroy are not part
        # of the measured chaos window.
        platform.disable_fault_injection()
        session.runtime.recovery = None

        ops = applied + aborted + n_accounts
        recovery = dict(coordinator.stats.to_dict())
        checkpoints = dict(coordinator.checkpoints.stats.to_dict())
        losses = session.enclave.rebuilds
        result = ChaosResult(
            fault_rate=fault_rate,
            checkpoint_interval_ns=checkpoint_interval_ns,
            ops=ops,
            aborted_ops=aborted,
            elapsed_s=elapsed_s,
            throughput_ops_s=ops / elapsed_s if elapsed_s else 0.0,
            expected_total=applied,
            observed_total=observed_total,
            faults_injected=injector.faults_injected,
            enclave_losses=losses,
            recovery=recovery,
            checkpoints=checkpoints,
            ledger={k: tuple(v) for k, v in platform.snapshot().items()},
            events=injector.event_schedule(),
        )
    return result


def run_keeper_chaos(
    n_entries: int = 12, seed: int = DEFAULT_SEED
) -> KeeperChaosResult:
    """SecureKeeper under *mid-call* vault crashes.

    ``PayloadVault`` operations are replay-safe (encrypt re-derives a
    fresh nonce; decrypt is pure), so they are declared idempotent and
    the runtime may re-execute them after a loss whose reply vanished —
    the hardest at-most-once case. A deterministic ``at_call`` rule
    guarantees at least one loss regardless of scale.
    """
    app = Partitioner(PartitionOptions(name="chaos_keeper")).partition(
        list(SECUREKEEPER_CLASSES)
    )
    platform = app.platform
    injector = FaultInjector(
        seed=seed,
        rules=[
            FaultRule(
                FaultKind.ENCLAVE_CRASH,
                routine="relay_PayloadVault_*",
                at_call=5,
                phase="mid",
                max_fires=1,
            ),
            FaultRule(
                FaultKind.ENCLAVE_CRASH,
                routine="relay_PayloadVault_*",
                probability=0.04,
                phase="mid",
            ),
        ],
    )
    with app.start() as session:
        coordinator = attach_recovery(
            session,
            checkpoint_interval_ns=0.0,
            policy=RetryPolicy(
                max_attempts=6, idempotent_patterns=_KEEPER_IDEMPOTENT
            ),
            platform_secret=b"chaos-secret",
        )
        client = SecureKeeperClient(PayloadVault("master"), ZNodeStore())
        coordinator.checkpoints.checkpoint()
        platform.enable_fault_injection(injector)

        for index in range(n_entries):
            client.put(f"/cfg{index}", f"value-{index}")
        correct = 0
        for index in range(n_entries):
            if client.read(f"/cfg{index}") == f"value-{index}":
                correct += 1

        platform.disable_fault_injection()
        session.runtime.recovery = None
        result = KeeperChaosResult(
            entries=n_entries,
            correct_reads=correct,
            enclave_losses=session.enclave.rebuilds,
            faults_injected=injector.faults_injected,
            recovery=dict(coordinator.stats.to_dict()),
            events=injector.event_schedule(),
        )
    return result


def run_chaos(
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    checkpoint_intervals_ns: Sequence[float] = DEFAULT_CHECKPOINT_INTERVALS_NS,
    n_accounts: int = 6,
    rounds: int = 20,
    n_entries: int = 12,
    seed: int = DEFAULT_SEED,
    include_keeper: bool = True,
) -> ChaosReport:
    """Sweep fault rate × checkpoint interval; returns the full report."""
    throughput = ExperimentTable(
        title="Chaos ablation — bank throughput vs enclave-crash rate",
        x_label="fault rate",
        y_label="ops per virtual second",
        notes="each crossing may crash the enclave; recovery is priced",
    )
    recovery_cost = ExperimentTable(
        title="Recovery cost breakdown (eager checkpoints)",
        x_label="fault rate",
        y_label="virtual ns",
        notes="reinit = EADD+EEXTEND reload; restore = sealed-state unseal",
    )
    durability = ExperimentTable(
        title="Lost updates vs checkpoint interval",
        x_label="fault rate",
        y_label="updates rolled back",
        notes="interval 0 seals after every crossing: nothing is lost",
    )

    report = ChaosReport(
        throughput=throughput,
        recovery_cost=recovery_cost,
        durability=durability,
        seed=seed,
    )
    cost_series = {
        component: recovery_cost.new_series(component)
        for component in ("reinit_ns", "reattest_ns", "restore_ns", "backoff_ns")
    }
    for interval_ns in checkpoint_intervals_ns:
        label = (
            "eager checkpoint"
            if interval_ns == 0
            else f"interval {interval_ns:g} ns"
        )
        tp_series = throughput.new_series(label)
        lost_series = durability.new_series(label)
        for rate in fault_rates:
            result = run_bank_chaos(
                rate,
                interval_ns,
                n_accounts=n_accounts,
                rounds=rounds,
                seed=seed,
            )
            report.results.append(result)
            tp_series.add(rate, result.throughput_ops_s)
            lost_series.add(rate, result.lost_updates)
            if interval_ns == checkpoint_intervals_ns[0]:
                for component, series in cost_series.items():
                    series.add(rate, result.recovery.get(component, 0.0))
    if include_keeper:
        report.keeper = run_keeper_chaos(n_entries=n_entries, seed=seed)
    return report


def main() -> None:  # pragma: no cover - manual entry point
    print(run_chaos().format())


if __name__ == "__main__":  # pragma: no cover
    main()
