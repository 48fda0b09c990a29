"""Golden-fingerprint regression tests for the artifact-producing runs.

``repro batch``, ``chaos``, ``scale``, ``traffic``, ``secv`` and
``offload`` each hash their full report (ledgers, checksums, schedules)
into one fingerprint. Two
guarantees are pinned here:

1. **replay** — running the same sweep twice with the same seed inside
   one process produces the same fingerprint (always asserted);
2. **regression** — the fingerprint matches the recorded golden, so an
   accidental cost-model or scheduling change shows up as a diff
   (asserted when a golden exists for this Python minor version).

Goldens live in ``tests/goldens/fingerprints.json`` keyed by
``major.minor``; regenerate with::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/test_fingerprints.py

The tiny sweep parameters here are intentionally *not* the CLI's
``--scale small`` parameters — the point is the stability of the
pipeline, not of one figure.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    batching_exp,
    fault_recovery,
    offload_exp,
    scaling_exp,
    secv_exp,
    traffic_exp,
)
from repro.obs.artifacts import validate_artifact

GOLDENS_PATH = Path(__file__).parent / "goldens" / "fingerprints.json"
PYTHON_KEY = f"{sys.version_info.major}.{sys.version_info.minor}"
UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDENS"))

#: Small fixed sweeps: one entry per artifact-producing CLI command.
RUNNERS = {
    "batch": lambda: batching_exp.run_batching(
        batch_sizes=(None, 4),
        durability_sizes=(None, 4),
        workloads=("bank",),
        include_durability=False,
    ),
    "chaos": lambda: fault_recovery.run_chaos(
        fault_rates=(0.0, 0.05),
        checkpoint_intervals_ns=(0.0,),
        n_accounts=3,
        rounds=6,
        n_entries=4,
        include_keeper=False,
    ),
    "scale": lambda: scaling_exp.run_scaling(
        session_counts=(1, 2),
        shard_counts=(1, 2),
        rounds=4,
        entries=4,
    ),
    "traffic": lambda: traffic_exp.run_traffic_ablation(
        rates=(20_000.0, 100_000.0),
        n_requests=40,
        diurnal_requests=120,
        chaos_requests=30,
    ),
    "secv": lambda: secv_exp.run_secv(quick=True),
    "offload": lambda: offload_exp.run_offload(),
}


def _load_goldens() -> dict:
    if GOLDENS_PATH.exists():
        return json.loads(GOLDENS_PATH.read_text())
    return {}


def _record_golden(command: str, fingerprint: str) -> None:
    goldens = _load_goldens()
    goldens.setdefault(PYTHON_KEY, {})[command] = fingerprint
    GOLDENS_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_artifact_fingerprint_replays_and_matches_golden(command):
    report = RUNNERS[command]()
    fingerprint = report.fingerprint()

    # Replay: a second identical run must reproduce the digest exactly.
    assert RUNNERS[command]().fingerprint() == fingerprint

    # The artifact document embedding the fingerprint must validate.
    artifact = report.to_artifact()
    validate_artifact(artifact)

    if UPDATE:
        _record_golden(command, fingerprint)
        return
    recorded = _load_goldens().get(PYTHON_KEY, {}).get(command)
    if recorded is None:
        pytest.skip(
            f"no golden for {command!r} on Python {PYTHON_KEY}; "
            "regenerate with REPRO_UPDATE_GOLDENS=1"
        )
    assert fingerprint == recorded, (
        f"{command!r} fingerprint drifted from the recorded golden — a "
        "cost-model, scheduling or serialization change altered priced "
        "output. If intentional, refresh with REPRO_UPDATE_GOLDENS=1."
    )


def test_scale_artifact_embeds_identity_and_fingerprint():
    report = RUNNERS["scale"]()
    doc = report.to_artifact()
    scaling = doc["scaling"]
    assert scaling["fingerprint"] == report.fingerprint()
    assert scaling["identical"] == {"bank": True, "securekeeper": True}
    assert scaling["runs"]  # per-run records are preserved
