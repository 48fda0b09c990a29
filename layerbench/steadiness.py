"""Steadiness check: run the benchmark on seeds 1..runs and report,
for every end-to-end metric, the spread of its values, their largest
distance from the median, and how far the medians of the first and the
second half of the runs drift apart — raw and normalised.

    python3 layerbench/steadiness.py --workload bank_contended \\
        --runs 10 --seconds 10

The spread is the inter-quartile distance over the median
(``statistics.quantiles(values, n=4)``); a metric is steady when it is
below its ``bound`` in BENCHMARK.json (the acceptance rule),
and comfortably so below a third of it. ``max_dev`` is the largest
``|value / median - 1|`` of any single run. Block drift is the range of
the block medians over their overall median: normalising by the probe
should shrink it, because the host's speed drifts over minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

#: Block drift compares the medians of this many consecutive blocks.
BLOCKS = 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402


def _bounds() -> Dict[str, float]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return {}
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Dict[str, float]]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    diagnostics, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect run: {diagnostics['problems']}")
    if result["failed"]:
        raise SystemExit(f"seed {seed}: {result['failed']} operations failed")
    return {"raw": diagnostics["raw"], "normalised": diagnostics["normalised"]}


def block_drift(values: List[float]) -> float:
    size = len(values) // BLOCKS
    medians = [statistics.median(values[i * size:(i + 1) * size]) for i in range(BLOCKS)]
    return (max(medians) - min(medians)) / statistics.median(values)


def max_deviation(values: List[float]) -> float:
    median = statistics.median(values)
    return max(abs(value / median - 1.0) for value in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2 * BLOCKS:
        parser.error(f"need at least {2 * BLOCKS} runs")

    runs = []
    for seed in range(1, args.runs + 1):
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: {json.dumps(runs[-1]['normalised'])}", file=sys.stderr)

    bounds = _bounds()
    report = {}
    for name in runs[0]["normalised"]:
        row = {}
        for kind in ("raw", "normalised"):
            values = [run[kind][name] for run in runs if name in run[kind]]
            if len(values) < 4:
                continue
            row[kind] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "max_dev": max_deviation(values),
                "block_drift": block_drift(values),
            }
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = row["normalised"]["spread"] <= bounds[name] / 3
            row["within_tenth"] = row["normalised"]["max_dev"] <= 0.1
        report[name] = row
    print(json.dumps({"workload": args.workload, "runs": args.runs, "metrics": report}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
