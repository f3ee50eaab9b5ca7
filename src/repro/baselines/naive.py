"""Exhaustive query evaluation without index or bounds.

For every object the exact expected indoor distance is computed from an
unrestricted single-source Dijkstra.  Quadratic in practice — exactly
what the paper's stack avoids — but simple enough to trust, which makes
it the oracle for result-set equality tests.
"""

from __future__ import annotations

import math

from repro.distances.expected import (
    expected_indoor_distance,
    qualifying_probability,
)
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.objects.population import ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.space.doors_graph import DoorsGraph
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid


class NaiveEvaluator:
    """Index-free exact evaluation over a population."""

    def __init__(
        self, space: IndoorSpace, population: ObjectPopulation
    ) -> None:
        self.space = space
        self.population = population
        self.graph = DoorsGraph.from_space(space)
        self.grid = population.grid or PartitionGrid.build(space)

    # ------------------------------------------------------------------

    def exact_distance(self, q: Point, obj: UncertainObject) -> float:
        """``|q, O|_I`` via one full Dijkstra (no pruning anywhere)."""
        self.graph.ensure_fresh()
        dd = self.graph.dijkstra_from_point(q)
        return expected_indoor_distance(
            q, obj, dd, self.space, self.grid
        ).value

    def all_distances(self, q: Point) -> dict[str, float]:
        """Exact expected distances of every object from ``q``."""
        self.graph.ensure_fresh()
        dd = self.graph.dijkstra_from_point(q)
        return {
            obj.object_id: expected_indoor_distance(
                q, obj, dd, self.space, self.grid
            ).value
            for obj in self.population
        }

    # ------------------------------------------------------------------

    def range_query(self, q: Point, r: float) -> set[str]:
        """Oracle iRQ: ids of objects with ``|q, O|_I <= r``."""
        if r < 0:
            raise QueryError(f"negative query range {r}")
        return {
            oid for oid, d in self.all_distances(q).items() if d <= r
        }

    def knn_query(self, q: Point, k: int) -> list[tuple[str, float]]:
        """Oracle ikNNQ: the ``k`` (id, distance) pairs with smallest
        expected distances (ties broken by id; unreachable excluded)."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        ranked = sorted(
            (
                (d, oid)
                for oid, d in self.all_distances(q).items()
                if math.isfinite(d)
            ),
        )
        return [(oid, d) for d, oid in ranked[:k]]

    def kth_distance(self, q: Point, k: int) -> float:
        """The k-th smallest expected distance (for tie-aware checks)."""
        ranked = self.knn_query(q, k)
        if len(ranked) < k:
            return math.inf
        return ranked[-1][1]

    # ------------------------------------------------------------------

    def qualifying_probability(
        self, q: Point, obj: UncertainObject, r: float
    ) -> float:
        """Exact ``Pr(|q, s|_I <= r)`` for one object: the total mass
        of instances whose indoor distance is within ``r``, from one
        full Dijkstra (no bounds, no pruning)."""
        self.graph.ensure_fresh()
        dd = self.graph.dijkstra_from_point(q)
        return qualifying_probability(q, obj, dd, self.space, r, self.grid)

    def prob_range_query(
        self, q: Point, r: float, p_min: float
    ) -> set[str]:
        """Oracle iPRQ: ids of objects with qualifying probability at
        least ``p_min``."""
        if r < 0:
            raise QueryError(f"negative query range {r}")
        if not 0.0 < p_min <= 1.0:
            raise QueryError(f"p_min must be in (0, 1], got {p_min}")
        return {
            obj.object_id
            for obj in self.population
            if self.qualifying_probability(q, obj, r) >= p_min
        }
