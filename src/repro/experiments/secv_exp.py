"""Class-granular vs value-granular partitioning (SecV ablation).

Montsalvat's granularity is the *class*: one secret field pulls the
whole class into the enclave image and turns every call on it into a
crossing. :mod:`repro.apps.secv` re-partitions two bundled applications
at *value* granularity — secrets travel as sealed
:func:`~repro.core.secure` values, the classes carrying them stay
untrusted — and this experiment quantifies the trade on both axes the
paper cares about:

- **TCB bytes** (:func:`repro.core.tcb.partitioned_tcb`) — the trusted
  image shrinks to the methods that actually touch secret values;
- **boundary crossings** — updates against sealed state accumulate
  locally and cross only at settlement / declassification points.

Each (app, granularity) cell runs the *same deterministic workload*;
the report asserts the checksums agree (the finer granularity must not
change results), records whether the class-granular ledgers carry any
secure-value seal charges (they must not: the mechanism is zero-cost
when unused), and fingerprints everything — ledgers included — so the
CI smoke job can assert run-to-run determinism.

Run it as ``python -m repro secv [--quick]``; the artifact lands in
``results/secv.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.bank import Account, AccountRegistry, BANK_CLASSES
from repro.apps.secv import (
    AuditVault,
    SECV_BANK_CLASSES,
    SECV_KEEPER_CLASSES,
    SettlementVault,
    ValueAccount,
    ValueKeeperClient,
    ValueLedger,
)
from repro.apps.securekeeper import (
    SECUREKEEPER_CLASSES,
    PayloadVault,
    SecureKeeperClient,
    ZNodeStore,
)
from repro.core import Partitioner, PartitionOptions
from repro.core.annotations import Side
from repro.core.tcb import partitioned_tcb
from repro.experiments.common import ExperimentTable, canonical_digest
from repro.obs.artifacts import run_artifact, write_artifact

DEFAULT_SEED = 9_043

GRANULARITIES = ("class", "value")
APPS = ("bank", "securekeeper")

#: Ledger categories only secure-value payloads may charge.
SECURE_CHARGE_KEYS = ("sgx.seal.secure_value", "sgx.unseal.secure_value")


@dataclass
class SecvRunResult:
    """One (app, granularity) measurement."""

    app: str
    granularity: str
    ops: int
    elapsed_s: float
    crossings: int
    tcb_bytes: int
    trusted_methods: int
    trusted_relays: int
    secure_seals: int
    secure_unseals: int
    checksum: Tuple[Any, ...]
    ledger: Dict[str, Tuple[int, float]]

    @property
    def label(self) -> str:
        return f"{self.app}/{self.granularity}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "granularity": self.granularity,
            "ops": self.ops,
            "elapsed_s": self.elapsed_s,
            "crossings": self.crossings,
            "tcb_bytes": self.tcb_bytes,
            "trusted_methods": self.trusted_methods,
            "trusted_relays": self.trusted_relays,
            "secure_seals": self.secure_seals,
            "secure_unseals": self.secure_unseals,
            "checksum": list(self.checksum),
        }


@dataclass
class SecvReport:
    """Full granularity comparison: tables + raw per-run results."""

    tcb: ExperimentTable
    crossings: ExperimentTable
    results: List[SecvRunResult] = field(default_factory=list)
    #: Per app: do class- and value-granular runs compute equal results?
    checksum_match: Dict[str, bool] = field(default_factory=dict)
    #: Per app: is the class-granular ledger free of secure-value
    #: charges (the zero-cost-when-unused guarantee)?
    zero_cost: Dict[str, bool] = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    quick: bool = False

    def get(self, app: str, granularity: str) -> SecvRunResult:
        for result in self.results:
            if result.app == app and result.granularity == granularity:
                return result
        raise KeyError(f"no run for {app}/{granularity}")

    def tcb_saved_bytes(self, app: str) -> int:
        return self.get(app, "class").tcb_bytes - self.get(app, "value").tcb_bytes

    def crossings_saved(self, app: str) -> int:
        return self.get(app, "class").crossings - self.get(app, "value").crossings

    def apps(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for result in self.results:
            if result.app not in seen:
                seen.append(result.app)
        return tuple(seen)

    def format(self) -> str:
        parts = [
            self.tcb.format(y_format="{:.0f}"),
            "",
            self.crossings.format(y_format="{:.0f}"),
            "",
        ]
        for app in self.apps():
            class_run = self.get(app, "class")
            value_run = self.get(app, "value")
            match = "match" if self.checksum_match.get(app) else "DIVERGED"
            parts.append(
                f"{app}: TCB {class_run.tcb_bytes} -> {value_run.tcb_bytes} B "
                f"(saved {self.tcb_saved_bytes(app)}), trusted methods "
                f"{class_run.trusted_methods} -> {value_run.trusted_methods}, "
                f"crossings {class_run.crossings} -> {value_run.crossings} "
                f"(saved {self.crossings_saved(app)}), checksums {match}"
            )
        clean = sorted(app for app, ok in self.zero_cost.items() if ok)
        dirty = sorted(app for app, ok in self.zero_cost.items() if not ok)
        if clean:
            parts.append(
                "zero-cost: class-granular ledgers carry no secure-value "
                "charges (" + ", ".join(clean) + ")"
            )
        if dirty:
            parts.append(
                "ZERO-COST VIOLATED: secure-value charges in class-granular "
                "ledgers (" + ", ".join(dirty) + ")"
            )
        parts.append(f"-- seed={self.seed}; fingerprint={self.fingerprint()}")
        return "\n".join(parts)

    def fingerprint(self) -> str:
        """Digest of every ledger, checksum and TCB figure. Same
        parameters => same fingerprint (the CI smoke job asserts it)."""
        payload = {
            "seed": self.seed,
            "quick": self.quick,
            "results": [
                {
                    **r.to_dict(),
                    "ledger": {k: list(v) for k, v in sorted(r.ledger.items())},
                }
                for r in self.results
            ],
            "checksum_match": dict(sorted(self.checksum_match.items())),
            "zero_cost": dict(sorted(self.zero_cost.items())),
        }
        return canonical_digest(payload)

    def to_artifact(self) -> Dict[str, Any]:
        return run_artifact(
            "secv",
            tables=[self.tcb, self.crossings],
            extra={
                "secv": {
                    "seed": self.seed,
                    "quick": self.quick,
                    "fingerprint": self.fingerprint(),
                    "checksum_match": dict(sorted(self.checksum_match.items())),
                    "zero_cost": dict(sorted(self.zero_cost.items())),
                    "tcb_saved_bytes": {
                        app: self.tcb_saved_bytes(app) for app in self.apps()
                    },
                    "crossings_saved": {
                        app: self.crossings_saved(app) for app in self.apps()
                    },
                    "runs": [r.to_dict() for r in self.results],
                }
            },
        )

    def write_artifact(self, path: str) -> None:
        write_artifact(path, self.to_artifact())


# -- instrumented runners -----------------------------------------------------


def _measure(name: str, classes: Sequence[type], workload) -> Dict[str, Any]:
    """Partition ``classes``, run ``workload(session)``, collect stats."""
    app = Partitioner(PartitionOptions(name=name)).partition(list(classes))
    platform = app.platform
    with app.start() as session:
        started_s = platform.now_s
        crossings_before = session.transition_stats.crossings
        ops, checksum = workload()
        ledger = {k: tuple(v) for k, v in platform.snapshot().items()}
        return {
            "ops": ops,
            "elapsed_s": platform.now_s - started_s,
            "crossings": session.transition_stats.crossings - crossings_before,
            "tcb_bytes": partitioned_tcb(app).total_bytes,
            "trusted_methods": len(app.images.trusted.reachable.methods),
            "trusted_relays": len(
                app.transform.relay_specs.get(Side.TRUSTED, ())
            ),
            "secure_seals": ledger.get("sgx.seal.secure_value", (0, 0.0))[0],
            "secure_unseals": ledger.get("sgx.unseal.secure_value", (0, 0.0))[0],
            "checksum": checksum,
            "ledger": ledger,
        }


def run_bank(
    granularity: str, n_accounts: int = 4, rounds: int = 48
) -> SecvRunResult:
    """The Listing-1 workload: balance updates, then an audited total.

    Class-granular, every ``update_balance`` is an ecall. Value-granular,
    updates accumulate as public deltas on the untrusted heap and cross
    only at settlement — same arithmetic, same final total.
    """

    def class_workload() -> Tuple[int, Tuple[Any, ...]]:
        accounts = [Account(f"acct-{i}", 100) for i in range(n_accounts)]
        for round_no in range(rounds):
            for index, account in enumerate(accounts):
                account.update_balance(1 + ((round_no + index) % 3))
        registry = AccountRegistry()
        for account in accounts:
            registry.add_account(account)
        return n_accounts * rounds, (registry.count(), registry.total_balance())

    def value_workload() -> Tuple[int, Tuple[Any, ...]]:
        vault = SettlementVault()
        accounts = [
            ValueAccount(f"acct-{i}", vault, 100) for i in range(n_accounts)
        ]
        for round_no in range(rounds):
            for index, account in enumerate(accounts):
                account.update_balance(1 + ((round_no + index) % 3))
        ledger = ValueLedger()
        for account in accounts:
            ledger.add_account(account)
        ledger.settle_all(vault)
        total = vault.total(ledger.sealed_balances())
        return n_accounts * rounds, (ledger.count(), total)

    if granularity == "class":
        stats = _measure("secv_bank_class", BANK_CLASSES, class_workload)
    else:
        stats = _measure("secv_bank_value", SECV_BANK_CLASSES, value_workload)
    return SecvRunResult(app="bank", granularity=granularity, **stats)


def run_keeper(
    granularity: str, n_entries: int = 12, passes: int = 2
) -> SecvRunResult:
    """The §6.7 keeper workload: audited puts (with overwrites), reads.

    Class-granular, every put/read pays an encrypt/decrypt ecall on top
    of the audit ecall. Value-granular, payloads cross as sealed
    ``secure()`` values and only the audit trail remains an ecall.
    """

    def class_workload() -> Tuple[int, Tuple[Any, ...]]:
        vault = PayloadVault("master")
        client = SecureKeeperClient(vault, ZNodeStore(), audit=True)
        for pass_no in range(passes):
            for index in range(n_entries):
                client.put(f"/cfg{index}", f"value-{index}-{pass_no}")
        correct = sum(
            1
            for index in range(n_entries)
            if client.read(f"/cfg{index}") == f"value-{index}-{passes - 1}"
        )
        return passes * n_entries + n_entries, (correct, vault.audit_count())

    def value_workload() -> Tuple[int, Tuple[Any, ...]]:
        vault = AuditVault()
        client = ValueKeeperClient(vault, ZNodeStore(), audit=True)
        for pass_no in range(passes):
            for index in range(n_entries):
                client.put(f"/cfg{index}", f"value-{index}-{pass_no}")
        correct = sum(
            1
            for index in range(n_entries)
            if client.read(f"/cfg{index}") == f"value-{index}-{passes - 1}"
        )
        return passes * n_entries + n_entries, (correct, vault.audit_count())

    if granularity == "class":
        stats = _measure("secv_keeper_class", SECUREKEEPER_CLASSES, class_workload)
    else:
        stats = _measure("secv_keeper_value", SECV_KEEPER_CLASSES, value_workload)
    return SecvRunResult(app="securekeeper", granularity=granularity, **stats)


_RUNNERS = {"bank": run_bank, "securekeeper": run_keeper}

#: Workload parameters per scale: (bank accounts, bank rounds,
#: keeper entries, keeper passes).
_FULL_PARAMS = (4, 48, 12, 2)
_QUICK_PARAMS = (3, 6, 6, 2)


# -- the sweep ----------------------------------------------------------------


def run_secv(
    apps: Sequence[str] = APPS,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
) -> SecvReport:
    """Run every (app, granularity) cell; returns the full report."""
    n_accounts, rounds, n_entries, passes = (
        _QUICK_PARAMS if quick else _FULL_PARAMS
    )
    tcb = ExperimentTable(
        title="TCB — class-granular vs value-granular partitioning",
        x_label="app",
        y_label="trusted bytes in the enclave",
        notes="x: 0=bank, 1=securekeeper; secure values shrink the trusted image",
    )
    crossings = ExperimentTable(
        title="Boundary crossings — class vs value granularity",
        x_label="app",
        y_label="transitions performed",
        notes="x: 0=bank, 1=securekeeper; sealed values cross only to settle",
    )
    report = SecvReport(tcb=tcb, crossings=crossings, seed=seed, quick=quick)
    series = {
        granularity: (tcb.new_series(granularity), crossings.new_series(granularity))
        for granularity in GRANULARITIES
    }
    for app_index, app in enumerate(apps):
        if app not in _RUNNERS:
            raise ValueError(
                f"unknown secv app {app!r}; pick from {sorted(_RUNNERS)}"
            )
        per_granularity: Dict[str, SecvRunResult] = {}
        for granularity in GRANULARITIES:
            if app == "bank":
                result = run_bank(granularity, n_accounts, rounds)
            else:
                result = run_keeper(granularity, n_entries, passes)
            per_granularity[granularity] = result
            report.results.append(result)
            tcb_series, crossing_series = series[granularity]
            tcb_series.add(app_index, result.tcb_bytes)
            crossing_series.add(app_index, result.crossings)
        report.checksum_match[app] = (
            per_granularity["class"].checksum == per_granularity["value"].checksum
        )
        report.zero_cost[app] = not any(
            key in per_granularity["class"].ledger for key in SECURE_CHARGE_KEYS
        )
    return report


# -- command line (``python -m repro secv``) ----------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro secv",
        description="class-granular vs value-granular partitioning ablation",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down deterministic sweep (the CI smoke configuration)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=os.path.join("results", "secv.json"),
        help="artifact path (default: results/secv.json)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = run_secv(quick=args.quick)
    print(report.format())
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    report.write_artifact(args.out)
    print(f"artifact: {args.out}", file=sys.stderr)
    ok = all(report.checksum_match.values()) and all(report.zero_cost.values())
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
