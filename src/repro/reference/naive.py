"""Exhaustive query evaluation without index or bounds.

For every object the exact expected indoor distance is computed from an
unrestricted single-source Dijkstra.  Quadratic in practice — exactly
what the paper's stack avoids — but simple enough to trust, which makes
it the oracle for result-set equality tests.
"""

from __future__ import annotations

import math

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.objects.population import ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.reference.expected import expected_over, probability_over
from repro.reference.subregions import Subregion, subregions
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
        #: object id -> (the object, the topology version, its
        #: subregions): at most one entry per id of the population.
        self._split: dict[
            str, tuple[UncertainObject, int, list[Subregion]]
        ] = {}

    # ------------------------------------------------------------------

    def subregions(self, obj: UncertainObject) -> list[Subregion]:
        """``obj``'s subregions, split once per object and topology
        version.  An entry serves only the very object it was made for
        — a moved object's successor shares its id, not its instances
        — and only under the topology it was made at."""
        version = self.space.topology_version
        held = self._split.get(obj.object_id)
        if held is not None and held[0] is obj and held[1] == version:
            return held[2]
        subs = subregions(obj, self.space, self.grid)
        oid = obj.object_id
        if oid in self.population and self.population.get(oid) is obj:
            self._split[oid] = (obj, version, subs)
        return subs

    def _population_split(self):
        """``(object, subregions)`` over the population, in order; drops
        the entries of ids the population no longer holds."""
        split = self._split
        for oid in split.keys() - self.population.ids():
            del split[oid]
        return [(obj, self.subregions(obj)) for obj in self.population]

    def exact_distance(self, q: Point, obj: UncertainObject) -> float:
        """``|q, O|_I`` via one full Dijkstra (no pruning anywhere)."""
        dd = self.graph.dijkstra_from_point(q)
        return expected_over(q, self.subregions(obj), dd, self.space).value

    def all_distances(self, q: Point) -> dict[str, float]:
        """Exact expected distances of every object from ``q``."""
        dd = self.graph.dijkstra_from_point(q)
        return {
            obj.object_id: expected_over(q, subs, dd, self.space).value
            for obj, subs in self._population_split()
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
        dd = self.graph.dijkstra_from_point(q)
        return probability_over(q, self.subregions(obj), dd, self.space, r)

    def prob_range_query(
        self, q: Point, r: float, p_min: float
    ) -> set[str]:
        """Oracle iPRQ: ids of objects with qualifying probability at
        least ``p_min``."""
        if r < 0:
            raise QueryError(f"negative query range {r}")
        if not 0.0 < p_min <= 1.0:
            raise QueryError(f"p_min must be in (0, 1], got {p_min}")
        # One full search serves every object.
        dd = self.graph.dijkstra_from_point(q)
        return {
            obj.object_id
            for obj, subs in self._population_split()
            if probability_over(q, subs, dd, self.space, r) >= p_min
        }
