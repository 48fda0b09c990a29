"""Layer benchmark entry point.

    python3 layerbench/run.py --workload bank_contended --seed 1 \\
        --seconds 10 --trace 0

Runs from the root of a checkout. One run is: a machine-speed probe,
``SETUP_SAMPLES - 1`` set-up-only processes, the measuring process, and
a second probe. ``--trace 1`` adds a traced process (and a third probe)
and reports the per-layer metrics instead of the end-to-end ones.

Every timing is normalised to the nominal probe rate: the raw value, the
normalised value and the probe rates are printed above the result. The
last line of standard output is the result as one JSON object; the exit
code is non-zero (and no result is printed) when the program cannot be
run or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from probe import NOMINAL_RATE  # noqa: E402
from stats import epoch_median, normalise, probe_rate  # noqa: E402
from tracer import metric_units  # noqa: E402

WORKLOADS = ("bank_contended", "keeper_observed", "traffic_diurnal")

#: Set-up time is the median over this many fresh processes.
SETUP_SAMPLES = 5

#: Wall-clock cap for any one child process, seconds.
CHILD_TIMEOUT = 150

#: The guard epoch's virtual fingerprint per workload. The guard runs
#: with a fixed seed, so a change that moves the virtual-time result
#: (a dropped or re-priced charge) shows here even when every process
#: of a run agrees with the others.
GUARDS_FILE = os.path.join(HERE, "guards.json")


class BenchError(Exception):
    """A run that cannot produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # Fixed string hashing: dict and set layouts, and so host timing,
    # repeat from process to process.
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv: List[str]) -> Dict[str, Any]:
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} timed out after {exc.timeout}s") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{argv[0]} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed nothing")
    return json.loads(lines[-1])


def probe() -> float:
    return float(_run([os.path.join(HERE, "probe.py")])["rate"])


def child(mode: str, args: argparse.Namespace) -> Dict[str, Any]:
    t0 = time.monotonic_ns()
    return _run(
        [
            os.path.join(HERE, "child.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--mode", mode,
            "--t0", str(t0),
        ]
    )


def sim_rps(result: Dict[str, Any]) -> float:
    """Median over epochs of completed requests per host second."""
    return epoch_median([e["completed"] * 1e9 / e["host_ns"] for e in result["epochs"]])


def end_to_end(
    measured: Dict[str, Any], setup_ns: float, rate: float, nominal: float = NOMINAL_RATE
) -> Dict[str, Any]:
    """Raw and normalised end-to-end metrics of one measured run."""
    epochs = measured["epochs"]
    p50 = epoch_median([e["p50"] for e in epochs])
    p90 = epoch_median([e["p90"] for e in epochs])
    if p90 is None:
        raise BenchError("no epoch has enough samples for a p90")
    raw = {
        "sim_rps": (sim_rps(measured), "1/s", "rate"),
        "req_p50_us": (p50 / 1e3, "us", "time"),
        "req_p90_us": (p90 / 1e3, "us", "time"),
        "setup_s": (setup_ns / 1e9, "s", "time"),
    }
    metrics = {
        name: {"value": normalise(value, rate, nominal, kind), "unit": unit}
        for name, (value, unit, kind) in raw.items()
    }
    metrics["peak_rss_mb"] = {"value": measured["peak_rss_mb"], "unit": "MB"}
    return {"raw": {name: value for name, (value, _, _) in raw.items()}, "metrics": metrics}


def pinned_guard(workload: str) -> str:
    with open(GUARDS_FILE) as handle:
        return json.load(handle).get(workload, "")


def correctness(
    runs: List[Dict[str, Any]], measured: List[Dict[str, Any]], expected_guard: str
) -> List[str]:
    """Problems that make a run incorrect (empty when it is correct)."""
    problems = []
    guards = {run["guard"] for run in runs}
    if len(guards) != 1:
        problems.append(f"guard-epoch fingerprints differ across processes: {sorted(guards)}")
    elif guards != {expected_guard}:
        problems.append(
            f"guard-epoch fingerprint {guards.pop()} != pinned {expected_guard!r}"
        )
    if len({run["fingerprint"] for run in measured}) != 1:
        problems.append("traced and untraced runs disagree on the virtual result")
    for run in measured:
        problems.extend(f"output check: {m}" for m in run["mismatches"])
        # A renamed entry point would read as an idle layer.
        problems.extend(f"entry point not traced: {m}" for m in run.get("missing", ()))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"layerbench: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2

    try:
        before = probe()
        if args.trace:
            setups = []
        else:
            setups = [child("setup", args) for _ in range(SETUP_SAMPLES - 1)]
        measured = child("measure", args)
        after = probe()
        rate = probe_rate(before, after)
        runs = setups + [measured]
        measured_runs = [measured]
        if args.trace:
            traced = child("traced", args)
            traced_rate = probe_rate(after, probe())
            runs.append(traced)
            measured_runs.append(traced)
    except BenchError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 1

    setup_ns = sorted(run["setup_ns"] for run in runs)[len(runs) // 2]
    e2e = end_to_end(measured, setup_ns, rate)
    problems = correctness(runs, measured_runs, pinned_guard(args.workload))
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "probe_rate": {"before": before, "after": after, "run": rate, "nominal": NOMINAL_RATE},
        "raw": e2e["raw"],
        "normalised": {name: m["value"] for name, m in e2e["metrics"].items()},
        "setup_samples_s": [run["setup_ns"] / 1e9 for run in runs],
        "epochs": len(measured["epochs"]),
        "req_p99_us": None if measured["p99"] is None else measured["p99"] / 1e3,
        "req_samples": measured["samples"],
        "guard_fingerprint": measured["guard"],
        "virtual_fingerprint": measured["fingerprint"],
        "outputs": measured["outputs"],
        "problems": problems,
    }
    if args.trace:
        layers = dict(traced["layers"])
        untraced = normalise(sim_rps(measured), rate, NOMINAL_RATE, "rate")
        traced_rps = normalise(sim_rps(traced), traced_rate, NOMINAL_RATE, "rate")
        layers["trace.overhead"] = traced_rps / untraced
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in metric_units().items()
        }
    else:
        metrics = e2e["metrics"]
    print(json.dumps(diagnostics, default=str))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
