"""Traffic ablation: open-loop load, admission control, autoscaling.

The ROADMAP's north star is a shielded service under heavy concurrent
traffic. This ablation closes the loop: a seeded open-loop workload
(:mod:`repro.traffic`) offers load the backend cannot refuse, an
admission layer degrades gracefully when it saturates, and the
hysteresis autoscaler (:mod:`repro.autoscale`) grows/shrinks the shard
group behind it with sealed live migration. Four measurements:

- **latency vs offered load** — p95 completion latency under a fixed
  1-shard deployment versus the autoscaled one, at increasing Poisson
  rates. The fixed run breaches the latency SLO (its admission queue
  backs up, the shed-burn alert fires); the autoscaled run holds it by
  scaling out;
- **hysteresis trace** — a diurnal (sinusoidal-rate) day: the
  controller scales up on the ramp and back down in the trough, with
  asymmetric thresholds + cooldown + down-stability preventing flap;
- **chaos-safe migration** — a seeded shard loss *mid-migration*:
  the move rolls back or completes from sealed state, acked updates
  are never lost and never double-applied (at-most-once);
- **zero-cost-when-off** — with admission and autoscaling disabled,
  the harness's ledger, clock and checksums are byte-identical to a
  plain sequential loop over the same schedule.

Everything is a pure function of the seed; the report fingerprint
hashes every ledger, latency distribution, hysteresis trace and chaos
outcome (CI ``traffic-smoke`` runs it twice and compares).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.apps.bank import Account, BANK_CLASSES
from repro.apps.paldb.workload import PALDB_RUWT_CLASSES, TrustedDBWriter
from repro.apps.securekeeper import SECUREKEEPER_CLASSES, PayloadVault
from repro.autoscale import (
    AutoscalePolicy,
    HysteresisAutoscaler,
    ShardMigrator,
)
from repro.concurrency import (
    ContendedWorkerPool,
    SessionScheduler,
    ShardedEnclaveGroup,
    attach_worker_pool,
)
from repro.core import Partitioner, PartitionOptions
from repro.experiments.common import ExperimentTable, canonical_digest
from repro.faults import FaultInjector, FaultKind, FaultRule, RetryPolicy
from repro.obs.artifacts import run_artifact, write_artifact
from repro.obs.slo import SloWatchdog, default_rulebook
from repro.sgx.driver import SgxDriver
from repro.traffic import (
    AdmissionController,
    OpenLoopHarness,
    Request,
    TokenBucket,
    WorkloadGenerator,
    offered_rate_per_s,
)

DEFAULT_SEED = 13_117

#: Latency objective the headline comparison is judged against. A
#: 2-slot fixed deployment saturates near 50k req/s of virtual time;
#: at 100k its admission queue pushes p95 past this bar while the
#: autoscaled deployment stays under half of it.
DEFAULT_SLO_P95_MS = 0.5

#: Poisson rates (requests per virtual second) for the load sweep.
DEFAULT_RATES: Tuple[float, ...] = (20_000.0, 50_000.0, 100_000.0)
QUICK_RATES: Tuple[float, ...] = (20_000.0, 100_000.0)

_THINK_NS = 1_000.0
_EPC_BUDGET_PAGES = 96
_TOUCH_BYTES = 2_048
_WORKING_SET_BYTES = 8 * 4_096


# -- per-request session bodies ------------------------------------------------


def _bank_body(migrator: ShardMigrator, acked: Dict[str, int], request: Request):
    """Increment the keyed account once per op; count each ack.

    The account is re-resolved through the migrator after every yield:
    a scale event between scheduler steps may have live-migrated the
    key, and a cached reference would go stale.
    """

    def body() -> Generator[Optional[float], None, Any]:
        for _ in range(request.ops):
            account = migrator.lookup(request.key)
            account.update_balance(1)
            acked[request.key] += 1
            yield _THINK_NS
        return migrator.lookup(request.key).get_balance()

    return body()


def _keeper_body(vaults: Dict[str, Any], totals: Dict[str, int], request: Request):
    """Encrypt/audit/decrypt round trips against the keyed vault."""

    def body() -> Generator[Optional[float], None, Any]:
        vault = vaults[request.key]
        correct = 0
        for index in range(request.ops):
            blob = vault.encrypt(f"r{request.rid}-v{index}")
            vault.record_access(f"r{request.rid}-z{index}")
            yield _THINK_NS
            if vault.decrypt(blob) == f"r{request.rid}-v{index}":
                correct += 1
        totals["keeper_ok"] += correct
        return correct

    return body()


def _paldb_body(
    group: ShardedEnclaveGroup,
    totals: Dict[str, int],
    workdir: str,
    request: Request,
):
    """Write one small store through a writer pinned to the request key."""

    def body() -> Generator[Optional[float], None, Any]:
        path = os.path.join(workdir, f"r{request.rid}.store")
        writer = group.create_pinned(
            request.key, lambda: TrustedDBWriter(path)
        )
        yield _THINK_NS
        keys = [f"k{i}" for i in range(request.ops)]
        values = [f"v{request.rid}-{i}" for i in range(request.ops)]
        written = writer.write_all(keys, values)
        totals["paldb_records"] += written
        return written

    return body()


# -- results -------------------------------------------------------------------


@dataclass
class TrafficRunResult:
    """One (mode, offered load) measurement."""

    label: str
    mode: str
    offered_rps: float
    requests: int
    completed: int
    shed: Dict[str, int]
    p50_ms: float
    p95_ms: float
    p99_ms: float
    makespan_s: float
    fallback_share: float
    final_shards: int
    scale_events: List[Dict[str, Any]]
    migration: Dict[str, int]
    slo_breached: List[str]
    slo_alerts: int
    lost_acked: int
    dup_applied: int
    checksum: Tuple[Any, ...]
    trace_digest: str
    now_s: float
    ledger: Dict[str, Tuple[int, float]]

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "mode": self.mode,
            "offered_rps": round(self.offered_rps, 1),
            "requests": self.requests,
            "completed": self.completed,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": self.shed_total,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "makespan_s": self.makespan_s,
            "fallback_share": round(self.fallback_share, 4),
            "final_shards": self.final_shards,
            "scale_events": self.scale_events,
            "migration": dict(self.migration),
            "slo_breached": list(self.slo_breached),
            "slo_alerts": self.slo_alerts,
            "lost_acked": self.lost_acked,
            "dup_applied": self.dup_applied,
            "checksum": list(self.checksum),
            "trace_digest": self.trace_digest,
            "now_s": self.now_s,
        }


@dataclass
class TrafficReport:
    """Full traffic ablation output."""

    latency: ExperimentTable
    results: List[TrafficRunResult] = field(default_factory=list)
    hysteresis: Optional[TrafficRunResult] = None
    chaos: Optional[TrafficRunResult] = None
    zero_cost_identical: bool = False
    slo_p95_ms: float = DEFAULT_SLO_P95_MS
    #: Per mode: does the run hold the p95 objective at the top rate?
    slo_holds: Dict[str, bool] = field(default_factory=dict)
    stamped_requests: int = 0
    stamped_rps: float = 0.0
    seed: int = DEFAULT_SEED

    def format(self) -> str:
        parts = [self.latency.format(y_format="{:.3f}"), ""]
        for mode in sorted(self.slo_holds):
            verdict = "holds" if self.slo_holds[mode] else "BREACHES"
            parts.append(
                f"{mode}: p95 {verdict} the {self.slo_p95_ms:.2f}ms SLO "
                "at the top offered rate"
            )
        ok = "identical" if self.zero_cost_identical else "DIVERGED"
        parts.append(f"harness-off vs sequential ledger: {ok}")
        if self.hysteresis is not None:
            ups = sum(
                1 for e in self.hysteresis.scale_events if e["action"] == "up"
            )
            downs = sum(
                1 for e in self.hysteresis.scale_events if e["action"] == "down"
            )
            parts.append(
                f"diurnal hysteresis: {ups} scale-up(s), {downs} "
                f"scale-down(s), final shards={self.hysteresis.final_shards}"
            )
        if self.chaos is not None:
            parts.append(
                "chaos mid-migration: "
                f"{self.chaos.migration.get('interruptions', 0)} "
                f"interruption(s), lost_acked={self.chaos.lost_acked}, "
                f"dup_applied={self.chaos.dup_applied}"
            )
        if self.stamped_requests:
            parts.append(
                f"open-loop stamping: {self.stamped_requests} arrivals at "
                f"{self.stamped_rps:.0f} req/s of virtual time"
            )
        parts.append(f"-- seed={self.seed}")
        return "\n".join(parts)

    def fingerprint(self) -> str:
        """Digest of every ledger, latency, trace and chaos outcome.
        Same seed => same fingerprint (CI ``traffic-smoke`` asserts)."""
        payload = {
            "seed": self.seed,
            "slo_p95_ms": self.slo_p95_ms,
            "runs": [
                {
                    **r.to_dict(),
                    "ledger": {k: list(v) for k, v in sorted(r.ledger.items())},
                }
                for r in self.results
            ],
            "hysteresis": (
                self.hysteresis.to_dict() if self.hysteresis else None
            ),
            "chaos": self.chaos.to_dict() if self.chaos else None,
            "zero_cost_identical": self.zero_cost_identical,
            "slo_holds": dict(sorted(self.slo_holds.items())),
            "stamped": [self.stamped_requests, round(self.stamped_rps, 1)],
        }
        return canonical_digest(payload)

    def to_artifact(self) -> Dict[str, Any]:
        return run_artifact(
            "traffic",
            tables=[self.latency],
            extra={
                "traffic": {
                    "seed": self.seed,
                    "fingerprint": self.fingerprint(),
                    "slo_p95_ms": self.slo_p95_ms,
                    "slo_holds": dict(sorted(self.slo_holds.items())),
                    "zero_cost_identical": self.zero_cost_identical,
                    "runs": [r.to_dict() for r in self.results],
                    "hysteresis": (
                        self.hysteresis.to_dict() if self.hysteresis else None
                    ),
                    "chaos": self.chaos.to_dict() if self.chaos else None,
                    "stamped": {
                        "requests": self.stamped_requests,
                        "rps": round(self.stamped_rps, 1),
                    },
                }
            },
        )

    def write_artifact(self, path: str) -> None:
        write_artifact(path, self.to_artifact())


# -- runners -------------------------------------------------------------------


def _partitioned():
    classes = list(BANK_CLASSES) + list(SECUREKEEPER_CLASSES) + list(
        PALDB_RUWT_CLASSES
    )
    return Partitioner(PartitionOptions(name="traffic")).partition(classes)


def _restore_balance(account: Any, snapshot: Any) -> None:
    # Absorbing write: sets the balance to the sealed value regardless
    # of what the fresh object holds — re-applying cannot double-count.
    account.update_balance(snapshot - account.get_balance())


def run_traffic(
    mode: str,
    rate_per_s: float,
    n_requests: int,
    seed: int = DEFAULT_SEED,
    diurnal_amplitude: float = 0.0,
    diurnal_period_s: float = 0.001,
    chaos: bool = False,
    base_capacity: int = 2,
    queue_limit: int = 24,
    deadline_ns: float = 600_000.0,
    paldb_bucket_rps: Optional[float] = None,
    autoscale_every_ns: float = 100_000.0,
    max_shards: int = 3,
    keys_per_app: int = 6,
    label: Optional[str] = None,
) -> TrafficRunResult:
    """One open-loop run of the combined workload.

    ``mode``: ``"plain"`` (no admission, no autoscaler, no pool — the
    zero-cost configuration), ``"fixed"`` (admission at a static
    capacity) or ``"autoscaled"`` (admission + hysteresis autoscaler).
    """
    if mode not in ("plain", "fixed", "autoscaled"):
        raise ValueError(f"unknown traffic mode {mode!r}")
    schedule = WorkloadGenerator(
        rate_per_s,
        seed=seed,
        diurnal_amplitude=diurnal_amplitude,
        diurnal_period_s=diurnal_period_s,
        keys_per_app=keys_per_app,
    ).generate(n_requests)
    app = _partitioned()
    platform = app.platform
    with app.start() as session:
        shielded = mode != "plain"
        driver = SgxDriver(platform) if shielded else None
        group = ShardedEnclaveGroup(
            session,
            1,
            driver=driver,
            epc_budget_pages=_EPC_BUDGET_PAGES if shielded else None,
            touch_bytes=_TOUCH_BYTES if shielded else 0,
            working_set_bytes=_WORKING_SET_BYTES if shielded else 0,
            router="ring",
        )
        migrator = ShardMigrator(group)
        acked: Dict[str, int] = {}
        for slot in range(keys_per_app):
            key = f"bank-{slot}"
            acked[key] = 0
            migrator.manage(
                key,
                factory=lambda k=key: Account(k, 100),
                capture=lambda account: account.get_balance(),
                apply=_restore_balance,
            )
        vaults = {
            f"keeper-{slot}": group.create_pinned(
                f"keeper-{slot}",
                lambda s=slot: PayloadVault(f"master-{s}"),
            )
            for slot in range(keys_per_app)
        }
        totals = {"keeper_ok": 0, "paldb_records": 0}
        workdir = tempfile.mkdtemp(prefix="traffic_")

        def body_factory(request: Request):
            if request.app == "bank":
                return _bank_body(migrator, acked, request)
            if request.app == "keeper":
                return _keeper_body(vaults, totals, request)
            return _paldb_body(group, totals, workdir, request)

        scheduler = SessionScheduler(platform, seed=seed)
        pool = None
        admission = None
        autoscaler = None
        watchdog = None
        if shielded:
            pool = ContendedWorkerPool(2, 2)
            attach_worker_pool(session, pool)
            scheduler.pool = pool
            buckets = {}
            if paldb_bucket_rps is not None:
                buckets["paldb"] = TokenBucket(
                    paldb_bucket_rps, capacity=max(2.0, paldb_bucket_rps / 500)
                )
            admission = AdmissionController(
                capacity=base_capacity,
                queue_limit=queue_limit,
                deadline_ns=deadline_ns,
                buckets=buckets,
                platform=platform,
            )
            watchdog = SloWatchdog(
                default_rulebook(
                    epc_quota_pages=_EPC_BUDGET_PAGES,
                    window_ns=200_000.0,
                ),
                evaluate_every_ns=50_000.0,
            )
            watchdog.attach(platform, label=mode)
        if mode == "autoscaled":
            autoscaler = HysteresisAutoscaler(
                migrator,
                policy=AutoscalePolicy(
                    min_shards=1,
                    max_shards=max_shards,
                    queue_up_depth=4,
                    queue_down_depth=0,
                    cooldown_ns=2 * autoscale_every_ns,
                    down_stable_evals=3,
                    workers_per_shard=2,
                    slots_per_shard=base_capacity,
                ),
                admission=admission,
                pool=pool,
                watchdog=watchdog,
            )
        if chaos:
            injector = FaultInjector(
                seed,
                rules=[
                    FaultRule(
                        FaultKind.ENCLAVE_CRASH,
                        call_kind="shard",
                        routine="migrate.*",
                        at_call=2,
                        max_fires=1,
                    )
                ],
            )
            platform.enable_fault_injection(injector)
        harness = OpenLoopHarness(
            scheduler,
            body_factory,
            admission=admission,
            autoscaler=autoscaler,
            autoscale_every_ns=autoscale_every_ns,
        )
        outcome = harness.run(schedule)
        if chaos:
            platform.disable_fault_injection()
        if watchdog is not None:
            watchdog.evaluate_now()
        # Acked-state audit: every account's balance delta must equal
        # the updates clients counted as acknowledged — no loss, and
        # (at-most-once) no double application either.
        lost = 0
        dup = 0
        total_balance = 0
        for key in sorted(acked):
            balance = migrator.lookup(key).get_balance()
            total_balance += balance
            delta = balance - 100
            lost += max(0, acked[key] - delta)
            dup += max(0, delta - acked[key])
    shed_counts = outcome.shed_counts()
    if admission is not None:
        # Backpressure/queue-full sheds counted by the controller but
        # surfaced through OverloadError are already in the harness
        # tally; cross-check against the controller's own stats.
        shed_counts = dict(admission.stats.shed)
    breached = []
    alerts = 0
    if watchdog is not None:
        verdicts = watchdog.verdicts()
        breached = sorted(
            name for name, v in verdicts.items() if v["status"] == "breached"
        )
        alerts = len(watchdog.alerts)
    return TrafficRunResult(
        label=label or f"{mode}@{rate_per_s:.0f}rps",
        mode=mode,
        offered_rps=offered_rate_per_s(schedule),
        requests=len(schedule),
        completed=len(outcome.completions),
        shed={k: v for k, v in sorted(shed_counts.items()) if v},
        p50_ms=outcome.latency_percentile(50.0) / 1e6,
        p95_ms=outcome.latency_percentile(95.0) / 1e6,
        p99_ms=outcome.latency_percentile(99.0) / 1e6,
        makespan_s=outcome.makespan_ns / 1e9,
        fallback_share=pool.stats.fallback_share() if pool else 0.0,
        final_shards=group.n_shards,
        scale_events=autoscaler.trace() if autoscaler else [],
        migration=migrator.stats.to_dict(),
        slo_breached=breached,
        slo_alerts=alerts,
        lost_acked=lost,
        dup_applied=dup,
        checksum=(
            total_balance,
            totals["keeper_ok"],
            totals["paldb_records"],
        ),
        trace_digest=scheduler.trace_digest(),
        now_s=platform.now_s,
        ledger={k: tuple(v) for k, v in platform.snapshot().items()},
    )


def run_sequential_baseline(
    rate_per_s: float,
    n_requests: int,
    seed: int = DEFAULT_SEED,
    keys_per_app: int = 6,
) -> Tuple[Dict[str, Tuple[int, float]], float, Tuple[Any, ...]]:
    """The same schedule the pre-harness way: every session spawned up
    front at its arrival timestamp, then ``scheduler.run()``.

    Returns (ledger, now_s, checksum) for the zero-cost comparison. The
    harness's claim is that its arrival-by-arrival merge loop replays
    this run *byte-identically* — same step sequence, same charge
    order, so even floating-point accumulation matches.
    """
    schedule = WorkloadGenerator(
        rate_per_s, seed=seed, keys_per_app=keys_per_app
    ).generate(n_requests)
    app = _partitioned()
    platform = app.platform
    with app.start() as session:
        group = ShardedEnclaveGroup(session, 1, router="ring")
        migrator = ShardMigrator(group)
        acked: Dict[str, int] = {}
        for slot in range(keys_per_app):
            key = f"bank-{slot}"
            acked[key] = 0
            migrator.manage(
                key,
                factory=lambda k=key: Account(k, 100),
                capture=lambda account: account.get_balance(),
                apply=_restore_balance,
            )
        vaults = {
            f"keeper-{slot}": group.create_pinned(
                f"keeper-{slot}",
                lambda s=slot: PayloadVault(f"master-{s}"),
            )
            for slot in range(keys_per_app)
        }
        totals = {"keeper_ok": 0, "paldb_records": 0}
        # Same prefix as run_traffic: relay payload sizes include the
        # store path, so path lengths must match for ledger identity.
        workdir = tempfile.mkdtemp(prefix="traffic_")
        scheduler = SessionScheduler(platform, seed=seed)
        for request in schedule:
            if request.app == "bank":
                body = _bank_body(migrator, acked, request)
            elif request.app == "keeper":
                body = _keeper_body(vaults, totals, request)
            else:
                body = _paldb_body(group, totals, workdir, request)
            scheduler.spawn(
                f"r{request.rid}", body, start_ns=request.arrival_ns
            )
        scheduler.run()
        total_balance = sum(
            migrator.lookup(key).get_balance() for key in sorted(acked)
        )
        checksum = (total_balance, totals["keeper_ok"], totals["paldb_records"])
    return (
        {k: tuple(v) for k, v in platform.snapshot().items()},
        platform.now_s,
        checksum,
    )


def check_zero_cost(
    rate_per_s: float = 2_000.0,
    n_requests: int = 30,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Harness with admission+autoscaler off vs the sequential loop:
    ledger, clock and checksums must be byte-identical."""
    seq_ledger, seq_now, seq_checksum = run_sequential_baseline(
        rate_per_s, n_requests, seed=seed
    )
    plain = run_traffic(
        "plain", rate_per_s, n_requests, seed=seed, label="harness-off"
    )
    return (
        seq_ledger == plain.ledger
        and seq_now == plain.now_s
        and seq_checksum == plain.checksum
    )


def run_traffic_ablation(
    rates: Tuple[float, ...] = DEFAULT_RATES,
    n_requests: int = 120,
    diurnal_requests: int = 200,
    chaos_requests: int = 60,
    seed: int = DEFAULT_SEED,
    slo_p95_ms: float = DEFAULT_SLO_P95_MS,
    stamp_requests: int = 0,
) -> TrafficReport:
    """The full sweep: load curve, diurnal hysteresis, chaos, zero-cost."""
    latency = ExperimentTable(
        title="Open-loop p95 latency vs offered load",
        x_label="offered load (requests per virtual second)",
        y_label="p95 completion latency (ms)",
    )
    fixed_series = latency.new_series("fixed-1-shard")
    auto_series = latency.new_series("autoscaled")
    report = TrafficReport(latency=latency, seed=seed, slo_p95_ms=slo_p95_ms)
    for rate in rates:
        fixed = run_traffic("fixed", rate, n_requests, seed=seed)
        auto = run_traffic("autoscaled", rate, n_requests, seed=seed)
        fixed_series.add(rate, fixed.p95_ms)
        auto_series.add(rate, auto.p95_ms)
        report.results.extend([fixed, auto])
    top = max(rates)
    for mode, series in (("fixed", fixed_series), ("autoscaled", auto_series)):
        top_p95 = [y for x, y in series.points if x == top][0]
        report.slo_holds[mode] = top_p95 <= slo_p95_ms
    report.hysteresis = run_traffic(
        "autoscaled",
        max(rates),
        diurnal_requests,
        seed=seed + 1,
        diurnal_amplitude=0.85,
        label="diurnal",
    )
    report.chaos = run_traffic(
        "autoscaled",
        max(rates),
        chaos_requests,
        seed=seed + 2,
        chaos=True,
        label="chaos-mid-migration",
    )
    report.zero_cost_identical = check_zero_cost(seed=seed)
    if stamp_requests:
        stamped = WorkloadGenerator(50_000.0, seed=seed).generate(
            stamp_requests
        )
        report.stamped_requests = len(stamped)
        report.stamped_rps = offered_rate_per_s(stamped)
    return report


def run_quick() -> TrafficReport:
    """CI-sized sweep (the ``--quick`` flag)."""
    return run_traffic_ablation(
        rates=QUICK_RATES,
        n_requests=70,
        diurnal_requests=200,
        chaos_requests=40,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro traffic [--quick] [--out PATH]``."""
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(
        prog="repro traffic",
        description=(
            "open-loop traffic harness + elastic shard autoscaler ablation"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized sweep (2 rates, fewer requests)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=os.path.join("results", "traffic.json"),
        help="artifact path (default: results/traffic.json)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        report = run_quick()
    else:
        report = run_traffic_ablation(stamp_requests=100_000)
    print(report.format())
    print(f"fingerprint: {report.fingerprint()}")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    report.write_artifact(args.out)
    print(f"artifact: {args.out}", file=sys.stderr)
    return 0
