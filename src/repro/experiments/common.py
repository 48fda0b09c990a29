"""Shared experiment infrastructure: result tables, fingerprints and
config helpers."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, List, Tuple

from repro.errors import ConfigurationError


@dataclass
class Series:
    """One curve/bar group: (x, y) points under a name."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def ys(self) -> List[float]:
        return [y for _, y in self.points]

    def xs(self) -> List[float]:
        return [x for x, _ in self.points]

    def y_at(self, x: float) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise ConfigurationError(f"series {self.name!r} has no point at x={x}")

    def mean(self) -> float:
        ys = self.ys()
        return sum(ys) / len(ys) if ys else 0.0


@dataclass
class ExperimentTable:
    """A figure/table reproduced: named series over a shared x-axis."""

    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def new_series(self, name: str) -> Series:
        series = Series(name)
        self.series.append(series)
        return series

    def get(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise ConfigurationError(
            f"no series {name!r} in {self.title!r}; "
            f"have {[s.name for s in self.series]}"
        )

    def mean_ratio(self, numerator: str, denominator: str) -> float:
        """Mean of pointwise y-ratios between two series (paper-style
        "A is on average N x faster than B")."""
        top, bottom = self.get(numerator), self.get(denominator)
        pairs = [
            (ty, by)
            for (tx, ty), (bx, by) in zip(top.points, bottom.points)
            if tx == bx and by
        ]
        if not pairs:
            raise ConfigurationError("series do not share x points")
        return sum(t / b for t, b in pairs) / len(pairs)

    def format(self, y_format: str = "{:.6f}") -> str:
        """Aligned text table: x down the rows, one column per series."""
        names = [s.name for s in self.series]
        xs: List[float] = []
        for series in self.series:
            for x in series.xs():
                if x not in xs:
                    xs.append(x)
        header = f"{self.x_label:<16}" + "".join(f"{n:>18}" for n in names)
        lines = [self.title, "=" * len(self.title), header]
        for x in xs:
            cells = []
            for series in self.series:
                try:
                    cells.append(y_format.format(series.y_at(x)))
                except ConfigurationError:
                    cells.append("-")
            x_text = f"{x:g}"
            lines.append(f"{x_text:<16}" + "".join(f"{c:>18}" for c in cells))
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)


def canonical_digest(payload: Any) -> str:
    """sha256 hex digest of ``payload`` encoded as sorted-key JSON: the
    fingerprint every artifact-producing experiment reports."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def orders_of_magnitude(value: float) -> float:
    """log10 helper used by the Fig. 3/4 shape assertions."""
    import math

    if value <= 0:
        raise ConfigurationError("orders_of_magnitude needs a positive value")
    return math.log10(value)
