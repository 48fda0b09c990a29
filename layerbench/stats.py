"""Pure statistics for the layer benchmark (no ``repro`` import).

Every rule the benchmark reports by lives here, so the self-tests can
pin it without running a workload:

- :func:`percentile` — nearest-rank percentile of a sample;
- :func:`tail_percentile` — the same, but only when at least
  ``MIN_BEYOND`` samples lie beyond it (otherwise ``None``);
- :func:`epoch_median` — the median across epochs of a statistic
  computed within each epoch;
- :func:`normalise` — scale a timing by the machine-speed probe;
- :class:`OpCounter` — attempted/failed accounting.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples that lie strictly beyond the nearest-rank ``q``-th
    percentile of ``count`` samples."""
    return count - max(1, math.ceil(q * count / 100.0))


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """``percentile(values, q)``, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def epoch_median(per_epoch: Sequence[Optional[float]]) -> Optional[float]:
    """Median across epochs of a statistic computed within each epoch.
    Epochs where the statistic abstained (``None``) are skipped; ``None``
    when every epoch abstained."""
    kept = [value for value in per_epoch if value is not None]
    if not kept:
        return None
    return statistics.median(kept)


def probe_rate(before: float, after: float) -> float:
    """The machine speed of a run: geometric mean of the probe rates
    taken right before and right after it."""
    if before <= 0 or after <= 0:
        raise ValueError("probe rates must be positive")
    return math.sqrt(before * after)


def normalise(value: float, rate: float, nominal: float, kind: str) -> float:
    """Scale a raw measurement to the nominal machine speed.

    ``kind="time"``: a duration; a slow machine (low probe rate) reads
    long, so ``value * rate / nominal``. ``kind="rate"``: work per
    second; a slow machine reads low, so ``value * nominal / rate``.
    """
    if rate <= 0 or nominal <= 0:
        raise ValueError("probe rates must be positive")
    if kind == "time":
        return value * rate / nominal
    if kind == "rate":
        return value * nominal / rate
    raise ValueError(f"unknown kind {kind!r}")


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


@dataclass
class OpCounter:
    """Attempted and failed operations of one run."""

    attempted: int = 0
    failed: int = 0

    def ok(self) -> None:
        self.attempted += 1

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1
