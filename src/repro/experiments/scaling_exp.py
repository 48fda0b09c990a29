"""Scaling ablation: sessions × shards (throughput, contention, EPC).

The ROADMAP's north star is a system serving heavy concurrent traffic;
this ablation measures what the deterministic concurrency layer
(:mod:`repro.concurrency`) buys and where it breaks, on the bank and
SecureKeeper workloads:

- **throughput scaling** — K client sessions interleaved in virtual
  time against N trusted shards: throughput is total ops over the
  *makespan* (the largest session-local timestamp), so perfectly
  overlapping sessions scale linearly;
- **the contention knee** — a finite switchless worker pool is leased
  in session event time; once sessions outnumber free workers, calls
  degrade to hardware transitions and the fallback share climbs — the
  knee is the first session count where fallbacks dominate (>50%);
- **the EPC-pressure cliff** — the EPC budget is split evenly across
  shards, each shard touching a working set per crossing; when the
  combined working sets overcommit the budget, every crossing faults
  and the paging cost cliff appears in the fault rate;
- **per-shard loss** — a seeded fault plan kills one shard mid-run:
  sessions pinned to surviving shards keep serving, the lost shard is
  rebuilt (per-shard reload priced) and restore hooks recover state.

Determinism: every run is a pure function of the seed; the report
fingerprint hashes all ledgers, checksums and interleaving digests (the
CI ``scale-smoke`` job runs the sweep twice and compares). A 1-session,
1-shard, pool-less run is priced **byte-identically** to the plain
sequential path — the report records that check per workload
(``identical``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.bank import Account, BANK_CLASSES
from repro.apps.securekeeper import (
    SECUREKEEPER_CLASSES,
    PayloadVault,
)
from repro.concurrency import (
    ContendedWorkerPool,
    SessionScheduler,
    ShardedEnclaveGroup,
    attach_worker_pool,
)
from repro.core import Partitioner, PartitionOptions
from repro.errors import RmiError
from repro.experiments.common import ExperimentTable, canonical_digest
from repro.faults import FaultInjector, FaultKind, FaultRule
from repro.obs.artifacts import run_artifact, write_artifact
from repro.sgx.driver import SgxDriver

DEFAULT_SEED = 9_241
DEFAULT_SESSION_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16)
DEFAULT_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)
DEFAULT_WORKERS = 2

WORKLOADS = ("bank", "securekeeper")

#: EPC-cliff sweep defaults: a deliberately tight page budget shared by
#: all shards, each shard walking a fixed working set per crossing.
_EPC_BUDGET_PAGES = 48
_EPC_WORKING_SET_PAGES = 20
_PAGE = 4096


@dataclass
class ScaleRunResult:
    """One (workload, sessions, shards, workers) measurement."""

    workload: str
    sessions: int
    shards: int
    workers: int
    ops: int
    makespan_s: float
    busy_s: float
    crossings: int
    switchless_calls: int
    pool_stats: Optional[Dict[str, Any]]
    shard_crossings: Dict[str, int]
    epc_faults: int
    epc_fault_rate: float
    checksum: Tuple[Any, ...]
    trace_digest: str
    now_s: float
    ledger: Dict[str, Tuple[int, float]]

    @property
    def throughput_ops_per_s(self) -> float:
        return self.ops / self.makespan_s if self.makespan_s else 0.0

    @property
    def fallback_share(self) -> float:
        if self.pool_stats is None:
            return 0.0
        return float(self.pool_stats["fallback_share"])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "sessions": self.sessions,
            "shards": self.shards,
            "workers": self.workers,
            "ops": self.ops,
            "makespan_s": self.makespan_s,
            "busy_s": self.busy_s,
            "throughput_ops_per_s": self.throughput_ops_per_s,
            "crossings": self.crossings,
            "switchless_calls": self.switchless_calls,
            "fallback_share": self.fallback_share,
            "pool": self.pool_stats,
            "shard_crossings": dict(sorted(self.shard_crossings.items())),
            "epc_faults": self.epc_faults,
            "epc_fault_rate": self.epc_fault_rate,
            "checksum": list(self.checksum),
            "trace_digest": self.trace_digest,
            "now_s": self.now_s,
        }


@dataclass
class ShardLossResult:
    """Availability under one seeded mid-run shard loss."""

    workload: str
    sessions: int
    shards: int
    ok_ops: int
    failed_ops: int
    losses: int
    mirrors_dropped: int
    restored_objects: int
    lost_updates: int

    @property
    def availability(self) -> float:
        total = self.ok_ops + self.failed_ops
        return self.ok_ops / total if total else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "sessions": self.sessions,
            "shards": self.shards,
            "ok_ops": self.ok_ops,
            "failed_ops": self.failed_ops,
            "availability": self.availability,
            "losses": self.losses,
            "mirrors_dropped": self.mirrors_dropped,
            "restored_objects": self.restored_objects,
            "lost_updates": self.lost_updates,
        }


@dataclass
class ScalingReport:
    """Full scaling ablation output."""

    throughput: ExperimentTable
    contention: ExperimentTable
    epc: ExperimentTable
    results: List[ScaleRunResult] = field(default_factory=list)
    loss_results: List[ShardLossResult] = field(default_factory=list)
    #: Per workload: is the 1-session/1-shard/pool-less ledger
    #: byte-identical to the plain sequential path?
    identical: Dict[str, bool] = field(default_factory=dict)
    #: Per workload: first session count whose fallback share > 0.5.
    knee: Dict[str, Optional[int]] = field(default_factory=dict)
    seed: int = DEFAULT_SEED

    def format(self) -> str:
        parts = [
            self.throughput.format(y_format="{:.2f}"),
            "",
            self.contention.format(y_format="{:.3f}"),
            "",
            self.epc.format(y_format="{:.3f}"),
            "",
        ]
        for workload in sorted(self.identical):
            ok = "identical" if self.identical[workload] else "DIVERGED"
            parts.append(
                f"{workload}: 1-session/1-shard vs sequential ledger {ok}"
            )
        for workload in sorted(self.knee):
            at = self.knee[workload]
            parts.append(
                f"{workload}: contention knee at {at} sessions"
                if at is not None
                else f"{workload}: no contention knee in sweep"
            )
        for loss in self.loss_results:
            parts.append(
                f"{loss.workload}: shard loss availability "
                f"{loss.availability:.3f} ({loss.losses} loss, "
                f"{loss.restored_objects} restored, "
                f"{loss.lost_updates} updates lost)"
            )
        parts.append(f"-- seed={self.seed}")
        return "\n".join(parts)

    def fingerprint(self) -> str:
        """Digest of every ledger, checksum, trace and loss outcome.
        Same seed => same fingerprint (CI ``scale-smoke`` asserts it)."""
        payload = {
            "seed": self.seed,
            "results": [
                {
                    **r.to_dict(),
                    "ledger": {k: list(v) for k, v in sorted(r.ledger.items())},
                }
                for r in self.results
            ],
            "losses": [l.to_dict() for l in self.loss_results],
            "identical": dict(sorted(self.identical.items())),
            "knee": dict(sorted(self.knee.items())),
        }
        return canonical_digest(payload)

    def to_artifact(self) -> Dict[str, Any]:
        return run_artifact(
            "scaling",
            tables=[self.throughput, self.contention, self.epc],
            extra={
                "scaling": {
                    "seed": self.seed,
                    "fingerprint": self.fingerprint(),
                    "identical": dict(sorted(self.identical.items())),
                    "knee": dict(sorted(self.knee.items())),
                    "runs": [r.to_dict() for r in self.results],
                    "losses": [l.to_dict() for l in self.loss_results],
                }
            },
        )

    def write_artifact(self, path: str) -> None:
        write_artifact(path, self.to_artifact())


# -- workload bodies ----------------------------------------------------------


def _bank_session_body(accounts, rounds: int, think_ns: float):
    """One bank client: a stream of updates, then audited reads."""

    def body():
        for round_no in range(rounds):
            for index, account in enumerate(accounts):
                account.update_balance(1 + (round_no + index) % 3)
                yield think_ns
        return sum(account.get_balance() for account in accounts)

    return body()


def _keeper_session_body(vaults, session_no: int, entries: int, think_ns: float):
    """One SecureKeeper client: encrypt + audit across shard vaults."""

    def body():
        correct = 0
        for index in range(entries):
            vault = vaults[index % len(vaults)]
            key = f"s{session_no}-z{index}"
            blob = vault.encrypt(f"value-{index}")
            vault.record_access(key)
            yield think_ns
            if vault.decrypt(blob) == f"value-{index}":
                correct += 1
            yield think_ns
        return correct

    return body()


# -- runners ------------------------------------------------------------------


def _partitioned(workload: str):
    classes = BANK_CLASSES if workload == "bank" else SECUREKEEPER_CLASSES
    return Partitioner(PartitionOptions(name=f"scale_{workload}")).partition(
        list(classes)
    )


def run_scale(
    workload: str,
    sessions: int = 1,
    shards: int = 1,
    workers: int = 0,
    rounds: int = 12,
    accounts_per_session: int = 3,
    entries: int = 8,
    think_ns: float = 0.0,
    seed: int = DEFAULT_SEED,
    epc_budget_pages: Optional[int] = None,
    touch_bytes: int = 0,
    working_set_bytes: int = 0,
) -> ScaleRunResult:
    """One concurrent run of ``workload`` under the full machinery."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    app = _partitioned(workload)
    platform = app.platform
    with app.start() as session:
        driver = (
            SgxDriver(platform)
            if (epc_budget_pages is not None or touch_bytes)
            else None
        )
        group = ShardedEnclaveGroup(
            session,
            shards,
            driver=driver,
            epc_budget_pages=epc_budget_pages,
            touch_bytes=touch_bytes,
            working_set_bytes=working_set_bytes,
        )
        pool = None
        scheduler = SessionScheduler(platform, seed=seed)
        ops = 0
        if workload == "bank":
            for client in range(sessions):
                accounts = [
                    group.create_pinned(
                        f"s{client}-a{index}",
                        lambda c=client, i=index: Account(f"s{c}-a{i}", 100),
                    )
                    for index in range(accounts_per_session)
                ]
                scheduler.spawn(
                    f"client{client}",
                    _bank_session_body(accounts, rounds, think_ns),
                )
                ops += rounds * accounts_per_session
        else:
            vaults = [
                group.create_pinned(
                    f"vault-{name}", lambda n=name: PayloadVault(f"master-{n}")
                )
                for name in group.shard_names
            ]
            for client in range(sessions):
                scheduler.spawn(
                    f"client{client}",
                    _keeper_session_body(vaults, client, entries, think_ns),
                )
                ops += entries
        # Attach the pool only once setup (object creation) is done, so
        # worker leases start aligned with the sessions' event clocks.
        if workers:
            pool = ContendedWorkerPool(workers, workers)
            attach_worker_pool(session, pool)
            scheduler.pool = pool
        crossings_before = session.transition_stats.crossings
        switchless_before = session.transition_stats.switchless_calls
        results = scheduler.run()
        stats = session.transition_stats
        epc_faults = driver.epc.stats.faults if driver is not None else 0
        epc_rate = driver.epc.stats.fault_rate() if driver is not None else 0.0
    # Ledger and clock are read *after* teardown, so they cover the
    # whole run (batch drains, GC, enclave destroy) — the same span the
    # sequential baseline prices.
    result = ScaleRunResult(
        workload=workload,
        sessions=sessions,
        shards=shards,
        workers=workers,
        ops=ops,
        makespan_s=scheduler.makespan_ns / 1e9,
        busy_s=scheduler.total_busy_ns / 1e9,
        crossings=stats.crossings - crossings_before,
        switchless_calls=stats.switchless_calls - switchless_before,
        pool_stats=pool.stats.to_dict() if pool is not None else None,
        shard_crossings=group.crossing_counts(),
        epc_faults=epc_faults,
        epc_fault_rate=epc_rate,
        checksum=tuple(results[name] for name in sorted(results)),
        trace_digest=scheduler.trace_digest(),
        now_s=platform.now_s,
        ledger={k: tuple(v) for k, v in platform.snapshot().items()},
    )
    return result


def run_sequential_baseline(
    workload: str,
    rounds: int = 12,
    accounts_per_session: int = 3,
    entries: int = 8,
) -> Tuple[Dict[str, Tuple[int, float]], float, Tuple[Any, ...]]:
    """The pre-concurrency sequential path: plain loop, no scheduler,
    no shard group, no pool. Returns (ledger, now_s, checksum)."""
    app = _partitioned(workload)
    platform = app.platform
    with app.start():
        if workload == "bank":
            accounts = [
                Account(f"s0-a{index}", 100)
                for index in range(accounts_per_session)
            ]
            for round_no in range(rounds):
                for index, account in enumerate(accounts):
                    account.update_balance(1 + (round_no + index) % 3)
            checksum: Tuple[Any, ...] = (
                sum(account.get_balance() for account in accounts),
            )
        else:
            vault = PayloadVault("master-default")
            correct = 0
            for index in range(entries):
                key = f"s0-z{index}"
                blob = vault.encrypt(f"value-{index}")
                vault.record_access(key)
                if vault.decrypt(blob) == f"value-{index}":
                    correct += 1
            checksum = (correct,)
    return (
        {k: tuple(v) for k, v in platform.snapshot().items()},
        platform.now_s,
        checksum,
    )


def check_pricing_identity(
    workload: str,
    rounds: int = 12,
    accounts_per_session: int = 3,
    entries: int = 8,
    seed: int = DEFAULT_SEED,
) -> bool:
    """1-session/1-shard/pool-less concurrent run vs the sequential
    path: ledgers, clocks and checksums must be byte-identical."""
    seq_ledger, seq_now, seq_checksum = run_sequential_baseline(
        workload,
        rounds=rounds,
        accounts_per_session=accounts_per_session,
        entries=entries,
    )
    concurrent = run_scale(
        workload,
        sessions=1,
        shards=1,
        workers=0,
        rounds=rounds,
        accounts_per_session=accounts_per_session,
        entries=entries,
        seed=seed,
    )
    return (
        seq_ledger == concurrent.ledger
        and seq_now == concurrent.now_s
        and seq_checksum == concurrent.checksum
    )


def run_shard_loss(
    workload: str = "bank",
    sessions: int = 2,
    shards: int = 2,
    rounds: int = 12,
    accounts_per_session: int = 3,
    seed: int = DEFAULT_SEED,
    lose_after_polls: int = 3,
) -> ShardLossResult:
    """Seeded mid-run loss of one shard; the others keep serving.

    Accounts are reached through a lookup table the restore hooks
    repopulate, so a lost shard's clients see failures only for the
    window between the loss and recovery — and the recovered accounts
    restart from their initial balances (the lost updates are counted).
    """
    app = _partitioned(workload)
    platform = app.platform
    with app.start() as session:
        group = ShardedEnclaveGroup(session, shards)
        registry: Dict[str, Any] = {}

        def make(key: str) -> None:
            registry[key] = group.create_pinned(
                key, lambda k=key: Account(k, 100)
            )

        keys_by_session: List[List[str]] = []
        for client in range(sessions):
            keys = [
                f"s{client}-a{index}" for index in range(accounts_per_session)
            ]
            for key in keys:
                make(key)
                group.register_restore(key, lambda k=key: make(k))
            keys_by_session.append(keys)

        injector = FaultInjector(
            seed=seed,
            rules=[
                FaultRule(
                    FaultKind.ENCLAVE_CRASH,
                    call_kind="shard",
                    routine="shard.shard1",
                    at_call=lose_after_polls,
                    max_fires=1,
                )
            ],
        )
        platform.enable_fault_injection(injector)
        counters = {"ok": 0, "failed": 0, "acked": {k: 0 for k in registry}}
        loss_infos: List[Dict[str, Any]] = []

        def client_body(keys: List[str]):
            def body():
                for round_no in range(rounds):
                    info = group.poll_faults()
                    if info is not None:
                        loss_infos.append(info)
                    for key in keys:
                        try:
                            registry[key].update_balance(1)
                            counters["ok"] += 1
                            counters["acked"][key] += 1
                        except RmiError:
                            counters["failed"] += 1
                        yield 0.0
                return None

            return body()

        scheduler = SessionScheduler(platform, seed=seed)
        for client in range(sessions):
            scheduler.spawn(f"client{client}", client_body(keys_by_session[client]))
        scheduler.run()
        platform.disable_fault_injection()
        lost_updates = 0
        for key, acked in counters["acked"].items():
            observed = registry[key].get_balance() - 100
            lost_updates += acked - observed
        result = ShardLossResult(
            workload=workload,
            sessions=sessions,
            shards=shards,
            ok_ops=counters["ok"],
            failed_ops=counters["failed"],
            losses=group.losses,
            mirrors_dropped=sum(i["mirrors_dropped"] for i in loss_infos),
            restored_objects=group.restored_objects,
            lost_updates=lost_updates,
        )
    return result


# -- the sweep ----------------------------------------------------------------


def run_scaling(
    session_counts: Sequence[int] = DEFAULT_SESSION_COUNTS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    workers: int = DEFAULT_WORKERS,
    rounds: int = 12,
    accounts_per_session: int = 3,
    entries: int = 8,
    seed: int = DEFAULT_SEED,
    epc_budget_pages: int = _EPC_BUDGET_PAGES,
    epc_working_set_pages: int = _EPC_WORKING_SET_PAGES,
) -> ScalingReport:
    """Sweep sessions × shards on bank and SecureKeeper."""
    throughput = ExperimentTable(
        title="Scaling — throughput vs concurrent sessions",
        x_label="sessions",
        y_label="throughput scaling (vs 1 session)",
        notes=f"{workers} switchless workers per side; makespan-based",
    )
    contention = ExperimentTable(
        title="Contention — switchless fallback share vs sessions",
        x_label="sessions",
        y_label="fallback share",
        notes="busy workers degrade crossings to hardware transitions",
    )
    epc = ExperimentTable(
        title="EPC pressure — page-fault rate vs shard count",
        x_label="shards",
        y_label="EPC fault rate",
        notes=(
            f"{epc_budget_pages}-page budget split across shards, "
            f"{epc_working_set_pages}-page working set per shard"
        ),
    )
    report = ScalingReport(
        throughput=throughput, contention=contention, epc=epc, seed=seed
    )
    mid_shards = shard_counts[min(1, len(shard_counts) - 1)]
    for workload in WORKLOADS:
        throughput_series = throughput.new_series(
            f"{workload} (shards={mid_shards})"
        )
        contention_series = contention.new_series(workload)
        base: Optional[ScaleRunResult] = None
        knee: Optional[int] = None
        for sessions in session_counts:
            result = run_scale(
                workload,
                sessions=sessions,
                shards=mid_shards,
                workers=workers,
                rounds=rounds,
                accounts_per_session=accounts_per_session,
                entries=entries,
                seed=seed,
            )
            report.results.append(result)
            if base is None:
                base = result
            if base.throughput_ops_per_s:
                throughput_series.add(
                    sessions,
                    result.throughput_ops_per_s / base.throughput_ops_per_s,
                )
            contention_series.add(sessions, result.fallback_share)
            if knee is None and result.fallback_share > 0.5:
                knee = sessions
        report.knee[workload] = knee
        report.identical[workload] = check_pricing_identity(
            workload,
            rounds=rounds,
            accounts_per_session=accounts_per_session,
            entries=entries,
            seed=seed,
        )
    # EPC-pressure cliff: fixed sessions, shards sweep a tight budget.
    epc_sessions = session_counts[min(1, len(session_counts) - 1)]
    epc_series = epc.new_series(f"bank ({epc_sessions} sessions)")
    for shards in shard_counts:
        result = run_scale(
            "bank",
            sessions=epc_sessions,
            shards=shards,
            workers=0,
            rounds=rounds,
            accounts_per_session=accounts_per_session,
            seed=seed,
            epc_budget_pages=epc_budget_pages,
            touch_bytes=_PAGE,
            working_set_bytes=epc_working_set_pages * _PAGE,
        )
        report.results.append(result)
        epc_series.add(shards, result.epc_fault_rate)
    report.loss_results.append(
        run_shard_loss(
            "bank",
            sessions=max(2, min(session_counts)),
            shards=max(2, min(2, max(shard_counts))),
            rounds=rounds,
            accounts_per_session=accounts_per_session,
            seed=seed,
        )
    )
    return report


def main() -> None:  # pragma: no cover - manual entry point
    print(run_scaling().format())


if __name__ == "__main__":  # pragma: no cover
    main()
