"""Measurement helpers: run query workloads and aggregate statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.queries.knn import ikNNQ
from repro.queries.range_query import iRQ
from repro.queries.stats import QueryStats


@dataclass
class ExperimentResult:
    """One figure panel's data: x values and named series."""

    title: str
    x_label: str
    x_values: list[Any] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    unit: str = "ms"

    def add(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def to_table(self) -> str:
        from repro.bench.reporting import format_series
        return format_series(
            self.title, self.x_label, self.x_values, self.series, self.unit
        )

    def to_json(self) -> dict[str, Any]:
        """The panel as a grid cell's result.  ``series`` is a list of
        ``[name, values]`` pairs: a ``result.json`` sorts its keys, and
        the series order is the table's column order."""
        return {
            "title": self.title,
            "x_label": self.x_label,
            "unit": self.unit,
            "x_values": list(self.x_values),
            "series": [[name, list(v)] for name, v in self.series.items()],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_json` (an xpfile's table pivot)."""
        return cls(
            data["title"],
            data["x_label"],
            list(data["x_values"]),
            {name: list(values) for name, values in data["series"]},
            data["unit"],
        )


@dataclass
class WorkloadMeasurement:
    """Aggregated over a set of query points."""

    mean_ms: float
    stats: QueryStats  # summed over queries

    @property
    def mean_phase_ms(self) -> dict[str, float]:
        n = max(1, self._n)
        return {
            name: 1000.0 * t / n
            for name, t in self.stats.phase_breakdown().items()
        }

    _n: int = 1


def run_queries(
    index: CompositeIndex,
    queries: Sequence[Point],
    kind: str,
    value: float | int,
    with_pruning: bool = True,
    use_skeleton: bool = True,
) -> WorkloadMeasurement:
    """Execute iRQ (``kind='irq'``) or ikNNQ (``kind='iknn'``) for every
    query point; returns the mean response time and summed stats."""
    if kind not in ("irq", "iknn"):
        raise ValueError(f"unknown query kind {kind!r}")
    total = QueryStats()
    t0 = time.perf_counter()
    for q in queries:
        stats = QueryStats()
        if kind == "irq":
            iRQ(q, float(value), index, with_pruning=with_pruning,
                use_skeleton=use_skeleton, stats=stats)
        else:
            ikNNQ(q, int(value), index, with_pruning=with_pruning,
                  use_skeleton=use_skeleton, stats=stats)
        total = total.merge(stats)
    elapsed = time.perf_counter() - t0
    out = WorkloadMeasurement(
        mean_ms=1000.0 * elapsed / max(1, len(queries)),
        stats=total,
    )
    out._n = len(queries)
    return out
