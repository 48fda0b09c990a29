"""Machine-speed probe: a fixed pure-Python kernel, run in its own
interpreter right before and right after every measured run.

It never imports ``repro``, so a change to the program cannot move it;
what moves it is the host — CPU frequency, co-tenants, thermal state —
and that is exactly what the benchmark divides out. The kernel mixes
the operations the simulator spends its time on: calls, attribute and
dict access, small allocations, string building and generator resumes.

Run: ``python3 layerbench/probe.py`` prints the rate (kernel steps per
second, the median of several rounds) as one JSON line.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

#: Probe rate of the reference host, steps per second. Normalised
#: metrics are expressed at this speed: a run whose probe reads twice
#: this rate has its times doubled and its throughput halved.
NOMINAL_RATE = 2_400_000.0

ROUNDS = 21
STEPS = 60_000


class _Cell:
    __slots__ = ("key", "total", "hits")

    def __init__(self, key: str) -> None:
        self.key = key
        self.total = 0
        self.hits = 0

    def add(self, amount: int) -> int:
        self.hits += 1
        self.total = (self.total + amount) & 0xFFFF
        return self.total


def _ticks():
    tick = 0
    while True:
        tick += 1
        yield tick


def kernel(steps: int) -> int:
    """The fixed workload; returns a checksum so nothing is elided."""
    table = {}
    recent = []
    ticks = _ticks()
    checksum = 0
    for step in range(steps):
        key = f"k{step & 511}"
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key)
        checksum ^= cell.add(next(ticks) & 63)
        recent.append((key, cell.hits))
        if len(recent) > 64:
            recent = recent[32:]
        checksum = (checksum + len(key) + recent[-1][1]) & 0xFFFFFFFF
    return checksum


def measure(rounds: int = ROUNDS, steps: int = STEPS) -> float:
    """Median kernel rate over ``rounds`` rounds, steps per second."""
    kernel(steps // 4)  # warm the interpreter's caches
    rates = []
    for _ in range(rounds):
        started = perf_counter_ns()
        kernel(steps)
        rates.append(steps * 1e9 / (perf_counter_ns() - started))
    return statistics.median(rates)


if __name__ == "__main__":
    print(json.dumps({"rate": measure()}))
