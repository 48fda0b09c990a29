"""The three benchmark workloads, driven through ``repro``'s public API.

Each workload is seeded, single-process and single-threaded, and does a
fixed amount of work per epoch:

- :class:`BankContended` — closed loop, 8 bank sessions over 2 trusted
  shards sharing 1 switchless worker; observability off, no EPC driver;
- :class:`KeeperObserved` — closed loop, 2 SecureKeeper sessions over
  2 shards with 2 workers, a run recorder with the default SLO
  watchdog, an EPC quota below the working set, and a coalescer plus
  arena carrying ``record_access``;
- :class:`TrafficDiurnal` — open loop in virtual time: a seeded
  diurnal bank/keeper mix through admission, the hysteresis autoscaler
  and sealed live migration, one fresh deployment per epoch.

A workload's life is ``setup()`` (partition and image build), then
``guard()`` (a fixed-seed epoch whose virtual fingerprint must repeat
in every process), ``start()`` (deploy and warm up), ``epoch()`` as many
times as the run asks, and ``finish()`` (output checks, teardown and the
run's virtual fingerprint).

Request timing is the session body's own: host nanoseconds from each
resume of the body to its next yield, summed over the request, so the
scheduler pump between segments is never charged to a request.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import string
from contextlib import ExitStack
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional

from repro.apps.bank import BANK_CLASSES, Account
from repro.apps.securekeeper import SECUREKEEPER_CLASSES, PayloadVault
from repro.autoscale import AutoscalePolicy, HysteresisAutoscaler, ShardMigrator
from repro.batching import attach_batching
from repro.concurrency import (
    ContendedWorkerPool,
    SessionScheduler,
    ShardedEnclaveGroup,
    attach_worker_pool,
)
from repro.core import Partitioner, PartitionOptions
from repro.core.arena import attach_arena
from repro.costs.platform import fresh_platform
from repro.errors import ReproError
from repro.obs.recorder import RunRecorder
from repro.obs.slo import SloWatchdog, default_rulebook
from repro.sgx.driver import SgxDriver
from repro.traffic import AdmissionController, OpenLoopHarness, WorkloadGenerator

from stats import OpCounter

#: Seed of the guard epoch: fixed, so its fingerprint is comparable
#: across runs with different ``--seed``.
GUARD_SEED = 20_211_206

_ALPHABET = string.ascii_letters + string.digits


def fingerprint(platform: Any, **outputs: Any) -> str:
    """SHA-256 over a platform's ledger and clock plus named outputs."""
    payload = {
        "ledger": {k: list(v) for k, v in sorted(platform.snapshot().items())},
        "now_ns": repr(platform.clock.now_ns),
        "outputs": outputs,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass
class Epoch:
    """Host-side measurements of one epoch."""

    host_ns: int
    completed: int
    #: Host ns per request, as timed by the session bodies.
    request_ns: List[int]


class RequestClock:
    """Per-request host timing shared by a workload's session bodies."""

    def __init__(self) -> None:
        self.samples: List[int] = []
        self.ops = OpCounter()
        self.completed = 0

    def take(self) -> List[int]:
        samples, self.samples = self.samples, []
        return samples


class Workload:
    """Common workload surface; subclasses fill in the deployment."""

    name = ""
    classes: tuple = ()
    #: Timed epochs per requested second of run time, at the nominal
    #: machine speed (work per run is fixed by ``--seconds``, never by
    #: the clock).
    epochs_per_second: float = 1.0
    warmup_epochs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.clock = RequestClock()
        #: Output-check failures (wrong values, lost updates...).
        self.mismatches: List[str] = []
        self.app: Any = None

    def setup(self) -> None:
        self.app = Partitioner(
            PartitionOptions(name=f"bench_{self.name}")
        ).partition(list(self.classes))

    def fresh_app(self) -> Any:
        """A deployment of the built images on a fresh virtual platform."""
        return dataclasses.replace(self.app, platform=fresh_platform())

    def guard(self) -> str:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def epoch(self) -> Epoch:
        raise NotImplementedError

    def finish(self) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(what)


# -- closed loops ---------------------------------------------------------------


class ClosedLoop(Workload):
    """A few long-lived sessions pumped by one scheduler.

    An epoch steps the scheduler until ``epoch_requests`` more requests
    have completed; every session yields once per request.
    """

    epoch_requests = 1000
    guard_requests = 400
    think_ns = 2_000.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stack: Optional[ExitStack] = None
        self.scheduler: Any = None
        self.platform: Any = None

    def open(self, seed: int) -> None:
        """Deploy and spawn the sessions for inputs drawn from ``seed``."""
        raise NotImplementedError

    def outputs(self) -> Dict[str, Any]:
        """Check final state against acked work; returns checked outputs."""
        raise NotImplementedError

    def _pump(self, requests: int) -> None:
        target = self.clock.completed + requests
        step = self.scheduler.step
        while self.clock.completed < target:
            step()

    def _close(self) -> Dict[str, Any]:
        outputs = self.outputs()
        self.stack.close()
        outputs["trace_digest"] = self.scheduler.trace_digest()
        outputs["fingerprint"] = fingerprint(self.platform, **outputs)
        return outputs

    def guard(self) -> str:
        self.open(GUARD_SEED)
        self._pump(self.guard_requests)
        fp = self._close()["fingerprint"]
        self.clock = RequestClock()
        return fp

    def start(self) -> None:
        self.open(self.seed)
        for _ in range(self.warmup_epochs):
            self._pump(self.epoch_requests)
        self.clock.take()

    def epoch(self) -> Epoch:
        started = perf_counter_ns()
        self._pump(self.epoch_requests)
        host_ns = perf_counter_ns() - started
        return Epoch(host_ns, self.epoch_requests, self.clock.take())

    def finish(self) -> Dict[str, Any]:
        return self._close()


class BankContended(ClosedLoop):
    """8 bank clients, 2 shards, 1 shared switchless worker."""

    name = "bank_contended"
    classes = tuple(BANK_CLASSES)
    epochs_per_second = 30
    sessions = 8
    accounts_per_session = 3

    def open(self, seed: int) -> None:
        rng = random.Random(seed)
        app = self.fresh_app()
        self.platform = app.platform
        self.stack = ExitStack()
        session = self.stack.enter_context(app.start())
        group = ShardedEnclaveGroup(session, 2)
        self.scheduler = SessionScheduler(self.platform, seed=seed)
        self.accounts: List[Any] = []
        self.expected: List[int] = []
        for client in range(self.sessions):
            mine = []
            for index in range(self.accounts_per_session):
                key = f"s{client}-a{index}"
                initial = rng.randint(100, 1_000)
                mine.append(len(self.accounts))
                self.accounts.append(
                    group.create_pinned(
                        key, lambda k=key, b=initial: Account(k, b)
                    )
                )
                self.expected.append(initial)
            self.scheduler.spawn(
                f"client{client}",
                self._body(mine, random.Random(rng.getrandbits(64))),
            )
        # Attach the pool once the accounts exist, so worker leases
        # start aligned with the sessions' event clocks.
        pool = ContendedWorkerPool(1, 1)
        attach_worker_pool(session, pool)
        self.scheduler.pool = pool
        self.pool = pool
        self.group = group

    def _body(self, mine: List[int], rng: random.Random) -> Iterator[float]:
        clock = self.clock
        accounts = self.accounts
        expected = self.expected
        while True:
            slot = mine[rng.randrange(len(mine))]
            amount = rng.randint(-50, 50)
            account = accounts[slot]
            started = perf_counter_ns()
            try:
                account.update_balance(amount)
                expected[slot] += amount
                balance = account.get_balance()
            except ReproError:
                clock.ops.fail()
            else:
                clock.ops.ok()
                self.check(balance == expected[slot], f"balance of {slot}")
            clock.samples.append(perf_counter_ns() - started)
            clock.completed += 1
            yield self.think_ns

    def outputs(self) -> Dict[str, Any]:
        balances = [account.get_balance() for account in self.accounts]
        self.check(balances == self.expected, "final balances != acked updates")
        return {
            "balances": balances,
            "pool": self.pool.stats.to_dict(),
            "crossings": self.group.crossing_counts(),
        }


class KeeperObserved(ClosedLoop):
    """2 SecureKeeper clients, 2 shards, 2 workers, observed, EPC-bound."""

    name = "keeper_observed"
    classes = tuple(SECUREKEEPER_CLASSES)
    epochs_per_second = 6
    epoch_requests = 400
    guard_requests = 200
    sessions = 2
    #: EPC quota in pages, split across the 2 shards (24 each), below
    #: the per-shard working set.
    epc_budget_pages = 48
    working_set_pages = 32
    touch_bytes = 16_384

    def open(self, seed: int) -> None:
        rng = random.Random(seed)
        app = self.fresh_app()
        self.platform = app.platform
        self.watchdog = SloWatchdog(
            default_rulebook(epc_quota_pages=self.epc_budget_pages // 2)
        )
        RunRecorder(slo=self.watchdog).attach(self.platform, label=self.name)
        self.stack = ExitStack()
        session = self.stack.enter_context(app.start())
        self.driver = SgxDriver(self.platform)
        group = ShardedEnclaveGroup(
            session,
            2,
            driver=self.driver,
            epc_budget_pages=self.epc_budget_pages,
            touch_bytes=self.touch_bytes,
            working_set_bytes=self.working_set_pages * 4096,
        )
        self.vaults = [
            group.create_pinned(
                f"vault-{name}",
                lambda n=name: PayloadVault(f"master-{seed}-{n}"),
            )
            for name in group.shard_names
        ]
        self.audits = [0] * len(self.vaults)
        self.coalescer = attach_batching(session)
        self.arena = attach_arena(session)
        self.scheduler = SessionScheduler(self.platform, seed=seed)
        for client in range(self.sessions):
            self.scheduler.spawn(
                f"client{client}",
                self._body(client, random.Random(rng.getrandbits(64))),
            )
        pool = ContendedWorkerPool(2, 2)
        attach_worker_pool(session, pool)
        self.scheduler.pool = pool
        self.pool = pool
        self.group = group

    def _body(self, client: int, rng: random.Random) -> Iterator[float]:
        clock = self.clock
        vaults = self.vaults
        audits = self.audits
        serial = 0
        while True:
            slot = rng.randrange(len(vaults))
            text = "".join(rng.choices(_ALPHABET, k=rng.randint(16, 240)))
            path = f"/c{client}/z{serial}"
            serial += 1
            vault = vaults[slot]
            started = perf_counter_ns()
            try:
                blob = vault.encrypt(text)
                vault.record_access(path)
                audits[slot] += 1
                plain = vault.decrypt(blob)
            except ReproError:
                clock.ops.fail()
            else:
                clock.ops.ok()
                self.check(plain == text, "decrypt != plaintext")
            clock.samples.append(perf_counter_ns() - started)
            clock.completed += 1
            yield self.think_ns

    def outputs(self) -> Dict[str, Any]:
        counts = [vault.audit_count() for vault in self.vaults]
        self.check(counts == self.audits, "audit_count != record_access calls")
        self.watchdog.evaluate_now()
        return {
            "audit_counts": counts,
            "pool": self.pool.stats.to_dict(),
            "crossings": self.group.crossing_counts(),
            "epc_faults": self.driver.epc.stats.faults,
            "batches": self.coalescer.stats.to_dict(),
            "arena_bytes": self.arena.stats.staged_bytes,
            "slo_alerts": len(self.watchdog.alerts),
        }


# -- open loop --------------------------------------------------------------------


def _restore_balance(account: Any, snapshot: Any) -> None:
    # Absorbing write: sets the sealed balance whatever the fresh
    # object holds, so re-applying cannot double-count.
    account.update_balance(snapshot - account.get_balance())


class TrafficDiurnal(Workload):
    """Open-loop diurnal mix; every epoch is a fresh autoscaled deployment.

    The mix is the traffic generator's default bank and keeper shares
    without its PalDB share: a PalDB writer raises ``RegistryError``
    when a scale-down retires its shard mid-request, and the benchmark's
    workloads must not fail operations.
    """

    name = "traffic_diurnal"
    classes = tuple(BANK_CLASSES) + tuple(SECUREKEEPER_CLASSES)
    app_mix = (("bank", 0.6), ("keeper", 0.25))
    epochs_per_second = 0.7
    #: Fixed per epoch: spawn cost grows with the number of sessions a
    #: scheduler has run, so a longer epoch would cost more per request.
    epoch_requests = 4000
    guard_requests = 600
    warmup_requests = 600
    rate_per_s = 100_000.0
    amplitude = 0.85
    period_s = 0.001
    keys_per_app = 6
    base_capacity = 2
    think_ns = 1_000.0
    autoscale_every_ns = 100_000.0
    epc_budget_pages = 96

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.epochs_run = 0
        self.totals: Dict[str, int] = {}
        self.fingerprints: List[str] = []

    def guard(self) -> str:
        result = self._run_epoch(GUARD_SEED, self.guard_requests)
        self.clock = RequestClock()
        self.totals = {}
        return result["fingerprint"]

    def start(self) -> None:
        for index in range(self.warmup_epochs):
            self._run_epoch(self._epoch_seed(-1 - index), self.warmup_requests)
        self.clock.take()
        self.totals = {}
        self.fingerprints = []

    def _epoch_seed(self, index: int) -> int:
        return self.seed * 10_007 + index

    def epoch(self) -> Epoch:
        before = self.clock.completed
        result = self._run_epoch(
            self._epoch_seed(self.epochs_run), self.epoch_requests
        )
        self.epochs_run += 1
        return Epoch(
            result["host_ns"], self.clock.completed - before, self.clock.take()
        )

    def finish(self) -> Dict[str, Any]:
        blob = json.dumps(self.fingerprints).encode("utf-8")
        return {
            **self.totals,
            "fingerprint": hashlib.sha256(blob).hexdigest(),
        }

    # -- one epoch ---------------------------------------------------------------

    def _run_epoch(self, seed: int, requests: int) -> Dict[str, Any]:
        schedule = WorkloadGenerator(
            self.rate_per_s,
            seed=seed,
            app_mix=self.app_mix,
            diurnal_amplitude=self.amplitude,
            diurnal_period_s=self.period_s,
            keys_per_app=self.keys_per_app,
        ).generate(requests)
        app = self.fresh_app()
        platform = app.platform
        keeper = {"ok": 0}
        failed_before = self.clock.ops.failed
        started = perf_counter_ns()
        stack = ExitStack()
        session = stack.enter_context(app.start())
        driver = SgxDriver(platform)
        group = ShardedEnclaveGroup(
            session,
            1,
            driver=driver,
            epc_budget_pages=self.epc_budget_pages,
            touch_bytes=2_048,
            working_set_bytes=8 * 4_096,
            router="ring",
        )
        migrator = ShardMigrator(group)
        acked: Dict[str, int] = {}
        for slot in range(self.keys_per_app):
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
                f"keeper-{slot}", lambda s=slot: PayloadVault(f"master-{s}")
            )
            for slot in range(self.keys_per_app)
        }
        scheduler = SessionScheduler(platform, seed=seed)
        pool = ContendedWorkerPool(2, 2)
        attach_worker_pool(session, pool)
        scheduler.pool = pool
        admission = AdmissionController(
            capacity=self.base_capacity,
            queue_limit=24,
            deadline_ns=600_000.0,
            platform=platform,
        )
        watchdog = SloWatchdog(
            default_rulebook(
                epc_quota_pages=self.epc_budget_pages, window_ns=200_000.0
            ),
            evaluate_every_ns=50_000.0,
        )
        watchdog.attach(platform, label=self.name)
        autoscaler = HysteresisAutoscaler(
            migrator,
            policy=AutoscalePolicy(
                min_shards=1,
                max_shards=3,
                queue_up_depth=4,
                queue_down_depth=0,
                cooldown_ns=2 * self.autoscale_every_ns,
                down_stable_evals=3,
                workers_per_shard=2,
                slots_per_shard=self.base_capacity,
            ),
            admission=admission,
            pool=pool,
            watchdog=watchdog,
        )

        def body_factory(request: Any) -> Iterator[float]:
            if request.app == "bank":
                return self._bank(migrator, acked, request)
            return self._keeper(vaults[request.key], keeper, request)

        harness = OpenLoopHarness(
            scheduler,
            body_factory,
            admission=admission,
            autoscaler=autoscaler,
            autoscale_every_ns=self.autoscale_every_ns,
        )
        outcome = harness.run(schedule)
        ran_ns = perf_counter_ns() - started
        # Output check, untimed: every acked bank update landed exactly
        # once.
        lost = dup = 0
        for key in sorted(acked):
            delta = migrator.lookup(key).get_balance() - 100
            lost += max(0, acked[key] - delta)
            dup += max(0, delta - acked[key])
        self.check(lost == 0 and dup == 0, f"lost_acked={lost} dup_applied={dup}")
        watchdog.evaluate_now()
        teardown = perf_counter_ns()
        stack.close()
        host_ns = ran_ns + perf_counter_ns() - teardown
        shed = dict(sorted(admission.stats.shed.items()))
        served = len(outcome.completions)
        self.check(
            served + sum(shed.values()) == len(schedule),
            "completed + shed != offered",
        )
        outputs = {
            "served": served,
            "shed": shed,
            "failed": self.clock.ops.failed - failed_before,
            "keeper_ok": keeper["ok"],
            "scale_events": autoscaler.trace(),
            "migration": migrator.stats.to_dict(),
            "virtual_p95_ns": outcome.latency_percentile(95.0),
            "lost_acked": lost,
            "dup_applied": dup,
            "trace_digest": scheduler.trace_digest(),
        }
        outputs["fingerprint"] = fingerprint(platform, **outputs)
        self.fingerprints.append(outputs["fingerprint"])
        for name, value in (
            ("served", served),
            ("shed", sum(shed.values())),
            ("scale_events", len(outputs["scale_events"])),
            ("keys_moved", migrator.stats.keys_moved),
            ("lost_acked", lost),
            ("dup_applied", dup),
        ):
            self.totals[name] = self.totals.get(name, 0) + value
        outputs["host_ns"] = host_ns
        return outputs

    # -- per-request session bodies ------------------------------------------------

    def _bank(self, migrator: Any, acked: Dict[str, int], request: Any) -> Iterator[float]:
        clock = self.clock
        busy = 0
        resumed = perf_counter_ns()
        failed = False
        for _ in range(request.ops):
            try:
                # Re-resolve after every yield: a scale event between
                # steps may have live-migrated the key.
                migrator.lookup(request.key).update_balance(1)
                acked[request.key] += 1
            except ReproError:
                failed = True
            busy += perf_counter_ns() - resumed
            yield self.think_ns
            resumed = perf_counter_ns()
        try:
            migrator.lookup(request.key).get_balance()
        except ReproError:
            failed = True
        self._done(clock, busy + perf_counter_ns() - resumed, failed)

    def _keeper(self, vault: Any, keeper: Dict[str, int], request: Any) -> Iterator[float]:
        clock = self.clock
        busy = 0
        resumed = perf_counter_ns()
        failed = False
        for index in range(request.ops):
            text = f"r{request.rid}-v{index}"
            try:
                blob = vault.encrypt(text)
                vault.record_access(f"r{request.rid}-z{index}")
            except ReproError:
                failed = True
                continue
            busy += perf_counter_ns() - resumed
            yield self.think_ns
            resumed = perf_counter_ns()
            try:
                plain = vault.decrypt(blob)
            except ReproError:
                failed = True
            else:
                self.check(plain == text, "decrypt != plaintext")
                keeper["ok"] += 1
        self._done(clock, busy + perf_counter_ns() - resumed, failed)

    @staticmethod
    def _done(clock: RequestClock, busy_ns: int, failed: bool) -> None:
        clock.samples.append(busy_ns)
        clock.completed += 1
        if failed:
            clock.ops.fail()
        else:
            clock.ops.ok()


WORKLOADS = {
    cls.name: cls for cls in (BankContended, KeeperObserved, TrafficDiurnal)
}
