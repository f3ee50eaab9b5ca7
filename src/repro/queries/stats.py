"""Per-query statistics: phase timings and pruning counters.

These counters regenerate the paper's evaluation directly:

* Figure 12(b)/13(b): the phase time breakdown;
* Figure 14(a)/(c): filtering and pruning ratios, defined as the share
  of ``|O|`` disqualified by the end of the respective phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QueryStats:
    """Counters and timings for one query execution."""

    #: wall-clock seconds per phase
    t_filtering: float = 0.0
    t_subgraph: float = 0.0
    t_pruning: float = 0.0
    t_refinement: float = 0.0

    total_objects: int = 0
    candidates_after_filtering: int = 0
    accepted_by_bounds: int = 0
    rejected_by_bounds: int = 0
    refined: int = 0
    #: refinements that escaped to a full (unrestricted) Dijkstra because
    #: some instance path left the candidate subgraph — the
    #: :class:`repro.queries.engine.Refiner` escape hatch.
    fallback_recomputes: int = 0
    result_size: int = 0

    partitions_retrieved: int = 0
    doors_settled: int = 0

    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def total_time(self) -> float:
        return (
            self.t_filtering + self.t_subgraph + self.t_pruning
            + self.t_refinement
        )

    @property
    def filtering_ratio(self) -> float:
        """Share of objects disqualified by the filtering phase."""
        if self.total_objects == 0:
            return 0.0
        return 1.0 - self.candidates_after_filtering / self.total_objects

    @property
    def pruning_ratio(self) -> float:
        """Share of objects disqualified by the end of the pruning
        phase (i.e. everything that never reached refinement)."""
        if self.total_objects == 0:
            return 0.0
        return 1.0 - self.refined / self.total_objects

    def phase_breakdown(self) -> dict[str, float]:
        return {
            "filtering": self.t_filtering,
            "subgraph": self.t_subgraph,
            "pruning": self.t_pruning,
            "refinement": self.t_refinement,
        }

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another query's stats (for averaging over a
        workload); timings and counters add up."""
        out = QueryStats()
        for name in (
            "t_filtering", "t_subgraph", "t_pruning", "t_refinement",
            "total_objects", "candidates_after_filtering",
            "accepted_by_bounds", "rejected_by_bounds", "refined",
            "fallback_recomputes", "result_size", "partitions_retrieved",
            "doors_settled",
        ):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out
