"""The door-to-door pre-computation baseline ([16], [24] style).

Prior work assumes all pairwise door distances ``|d_i -> d_j|_I`` are
computed before query time.  That makes query evaluation simple, but a
single topology change (a mounted sliding wall, a closed door)
invalidates a large share of the matrix and forces recomputation — the
paper measures over half an hour at 2 000 partitions (Figure 15(d))
against sub-millisecond composite-index updates.  This class reproduces
the comparison: :meth:`build` performs the full |D| single-source
searches and reports the wall-clock cost, and :meth:`rebuild` is what a
topology change costs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.objects.population import ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.reference.expected import expected_indoor_distance
from repro.space.doors_graph import DoorDistances, DoorsGraph
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid


class PrecomputedDistanceIndex:
    """All-pairs door-to-door shortest distances, plus query evaluation
    on top of them.

    ``d2d`` is one ``(doors x doors)`` float64 matrix over the doors
    graph's numbering as of the last :meth:`build` (``numbering``):
    row ``i`` holds the distances from door ``i``, ``+inf`` where it
    reaches nothing.
    """

    def __init__(
        self,
        space: IndoorSpace,
        population: ObjectPopulation | None = None,
    ) -> None:
        self.space = space
        self.population = population or ObjectPopulation(space)
        self.graph = DoorsGraph.from_space(space)
        self.grid = self.population.grid or PartitionGrid.build(space)
        self.build_seconds = 0.0
        self.build()

    # ------------------------------------------------------------------

    def build(self) -> float:
        """Run |D| single-source Dijkstras; returns the wall-clock cost."""
        t0 = time.perf_counter()
        self.numbering = doors = self.graph.ensure_fresh()
        rows = map(self.graph.dijkstra_between_doors, doors.door_ids)
        n = len(doors.door_ids)
        self.d2d = np.array(list(rows)).reshape(n, n)
        self.build_seconds = time.perf_counter() - t0
        return self.build_seconds

    def rebuild(self) -> float:
        """What one topology change costs this design (Figure 15(d))."""
        return self.build()

    def door_distance(self, d_from: str, d_to: str) -> float:
        """``|d_from ~> d_to|_I`` from the matrix."""
        index = self.numbering.door_index
        i = index.get(d_from)
        if i is None:
            raise QueryError(f"unknown door {d_from!r}")
        j = index.get(d_to)
        return math.inf if j is None else self.d2d.item(i, j)

    # ------------------------------------------------------------------
    # query evaluation on the precomputed matrix
    # ------------------------------------------------------------------

    def door_distances_from(self, q: Point) -> DoorDistances:
        """Per-door distances from a query point, assembled from the
        matrix instead of a fresh graph search: the ``min`` over the
        source partition's exit doors of the leg to the door plus its
        row."""
        located = self.space.locate(q)
        if located is None:
            raise QueryError(f"query point {q} outside every partition")
        source = located.partition_id
        fh = self.space.floor_height
        doors = self.numbering
        w = np.full(len(doors.door_ids), math.inf)
        for dq in self.space.exit_doors(source):
            i = doors.door_index[dq.door_id]
            np.minimum(w, q.distance(dq.midpoint, fh) + self.d2d[i], out=w)
        w.flags.writeable = False
        pred = np.full(w.size, -1, dtype=np.int32)  # paths not kept
        return DoorDistances(q, source, doors.part_row[source], doors, w, pred)

    def exact_distance(self, q: Point, obj: UncertainObject) -> float:
        dd = self.door_distances_from(q)
        return expected_indoor_distance(
            q, obj, dd, self.space, self.grid
        ).value

    def range_query(self, q: Point, r: float) -> set[str]:
        if r < 0:
            raise QueryError(f"negative query range {r}")
        dd = self.door_distances_from(q)
        out = set()
        for obj in self.population:
            d = expected_indoor_distance(
                q, obj, dd, self.space, self.grid
            ).value
            if d <= r:
                out.add(obj.object_id)
        return out

    def knn_query(self, q: Point, k: int) -> list[tuple[str, float]]:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        dd = self.door_distances_from(q)
        ranked = sorted(
            (
                expected_indoor_distance(
                    q, obj, dd, self.space, self.grid
                ).value,
                obj.object_id,
            )
            for obj in self.population
        )
        return [
            (oid, d) for d, oid in ranked[:k] if math.isfinite(d)
        ]
