"""The doors graph ``G_d`` (Section II-A, Figure 3) and Dijkstra search.

Vertices are doors; a directed edge ``d_i -> d_j`` exists when both doors
belong to a common partition ``P`` such that ``d_i`` permits *entering*
``P`` and ``d_j`` permits *leaving* it.  A bidirectional door pair hence
yields edges both ways; a one-way door acquires in-/out-edges exactly as
in Figure 3(b).  Edge weights are intra-partition distances between door
midpoints (footnote 1 of the paper).

The paper does not materialise a separate graph — the composite index's
topological layer plays that role.  This module is that layer's
algorithmic engine: per topology version it numbers doors and
partitions once (:class:`DoorsCsr`, the numbering every array of the
query path uses) and runs one integer Dijkstra over the CSR edges,
seeded at a query point or at a door.  Its result,
:class:`DoorDistances`, is the bounds kernel's query operand.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SpaceError, UnreachableError
from repro.geometry.point import Point
from repro.space.floorplan import IndoorSpace


@dataclass(frozen=True, eq=False)
class DoorsCsr:
    """One topology version of the doors graph: door ``i`` is
    ``door_ids[i]``, partition ``pid`` row ``part_row[pid]``; door
    ``i``'s out-edges are ``indices[indptr[i]:indptr[i + 1]]`` with
    ``weights`` and ``edge_row`` (the partition crossed), and ``out``
    the same as per-door ``(target, weight, row)`` lists for the loop."""

    topology_version: int
    door_ids: tuple[str, ...]
    door_index: dict[str, int]
    part_row: dict[str, int]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    edge_row: np.ndarray
    out: list[list[tuple[int, float, int]]] = field(repr=False)


@dataclass(frozen=True, eq=False)
class DoorDistances:
    """Result of a single-source Dijkstra, over ``numbering``.

    ``w[i]`` is ``|q, d|_I`` from the source point to door ``i``'s
    midpoint, *including* the initial leg ``|q, d_q|_E`` (``+inf`` if
    unreached; read-only, a session shares it).  ``pred[i]`` is the
    door before ``i`` on its shortest path (``-1``: a seed door).
    """

    source: Point
    source_partition: str
    source_row: int
    numbering: DoorsCsr
    w: np.ndarray
    pred: np.ndarray

    @property
    def topology_version(self) -> int:
        return self.numbering.topology_version

    @property
    def doors_settled(self) -> int:
        """Doors the search reached."""
        return int(np.count_nonzero(np.isfinite(self.w)))

    def distance_to(self, door_id: str) -> float:
        """``|q, d|_I``; infinity when the door is unreachable."""
        i = self.numbering.door_index.get(door_id)
        return math.inf if i is None else self.w.item(i)

    def path_to(self, door_id: str) -> list[str]:
        """Door sequence of the shortest path ``q ~> door_id``."""
        if not math.isfinite(self.distance_to(door_id)):
            raise UnreachableError(
                f"door {door_id!r} unreachable from {self.source}"
            )
        door_ids = self.numbering.door_ids
        path: list[str] = []
        i = self.numbering.door_index[door_id]
        while i >= 0:
            path.append(door_ids[i])
            i = self.pred.item(i)
        path.reverse()
        return path


class DoorsGraph:
    """Directed, weighted doors graph derived from an indoor space: one
    :class:`DoorsCsr` per topology version, rebuilt on first use after
    the space's topology moved."""

    def __init__(self, space: IndoorSpace) -> None:
        self.space = space
        self._csr: DoorsCsr | None = None

    @staticmethod
    def from_space(space: IndoorSpace) -> "DoorsGraph":
        graph = DoorsGraph(space)
        graph.rebuild()
        return graph

    def rebuild(self) -> DoorsCsr:
        """(Re)number the doors and partitions and derive the edges
        from the space's current topology."""
        space = self.space
        version = space.topology_version
        door_ids = tuple(space.doors)
        door_index = {door_id: i for i, door_id in enumerate(door_ids)}
        part_row = {pid: i for i, pid in enumerate(space.partitions)}
        out: list[list[tuple[int, float, int]]] = [[] for _ in door_ids]
        for pid, row in part_row.items():
            doors = space.doors_of(pid)
            for d_in in doors:
                if not d_in.allows_entry(pid):
                    continue
                edges = out[door_index[d_in.door_id]]
                for d_out in doors:
                    if d_out.door_id == d_in.door_id:
                        continue
                    if not d_out.allows_exit(pid):
                        continue
                    weight = space.door_to_door(d_in, d_out)
                    edges.append((door_index[d_out.door_id], weight, row))
        indptr = np.zeros(len(out) + 1, dtype=np.int32)
        np.cumsum([len(edges) for edges in out], out=indptr[1:])
        flat = np.array([e for edges in out for e in edges]).reshape(-1, 3)
        target, weight, row = flat.T  # exact: every int is < 2**53
        self._csr = csr = DoorsCsr(
            version, door_ids, door_index, part_row, indptr,
            target.astype(np.int32), weight, row.astype(np.int32), out,
        )
        return csr

    def ensure_fresh(self) -> DoorsCsr:
        """The graph of the space's current topology version."""
        csr = self._csr
        if csr is None or csr.topology_version != self.space.topology_version:
            csr = self.rebuild()
        return csr

    @property
    def num_edges(self) -> int:
        return len(self.ensure_fresh().indices)

    # ------------------------------------------------------------------
    # Dijkstra
    # ------------------------------------------------------------------

    @staticmethod
    def _search(
        csr: DoorsCsr, seeds: dict[int, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one relaxation loop: door distances from ``seeds`` (door
        -> initial distance, always recorded)."""
        dist = [math.inf] * len(csr.door_ids)
        pred = [-1] * len(dist)
        heap = []
        for i, d in seeds.items():
            dist[i] = d
            heap.append((d, i))
        heapq.heapify(heap)
        out = csr.out
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue  # stale entry
            for v, weight, _row in out[u]:
                nd = d + weight
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd, v))
        w = np.array(dist, dtype=np.float64)
        w.flags.writeable = False
        return w, np.array(pred, dtype=np.int32)

    def dijkstra_from_point(
        self, q: Point, source_partition: str | None = None
    ) -> DoorDistances:
        """Single-source shortest door distances from a query point.

        The search is seeded with every door through which the source
        partition can be exited (initial distance ``|q, d_q|_E``) and
        relaxes every directed door-to-door edge: the full search,
        which query processing runs as its phase 2 (the paper restricts
        it to the filtered partitions and cuts it off at the query
        bound; that is exact for point distances, not for expected
        ones — see :mod:`repro.queries.engine`).
        """
        csr = self.ensure_fresh()
        space = self.space
        if source_partition is None:
            located = space.locate(q)
            if located is None:
                raise SpaceError(f"query point {q} is outside every partition")
            source_partition = located.partition_id

        seeds: dict[int, float] = {}
        for door in space.exit_doors(source_partition):
            i = csr.door_index[door.door_id]
            d = q.distance(door.midpoint, space.floor_height)
            if d < seeds.get(i, math.inf):
                seeds[i] = d
        w, pred = self._search(csr, seeds)
        return DoorDistances(
            q, source_partition, csr.part_row[source_partition], csr, w, pred
        )

    def dijkstra_between_doors(self, source_door: str) -> np.ndarray:
        """All-door shortest distances from one door midpoint, as a
        weight vector over the current numbering (``+inf`` =
        unreached).

        This is the building block of the pre-computation baseline
        ([16]/[24]-style, measured in Figure 15(d)).
        """
        csr = self.ensure_fresh()
        i = csr.door_index.get(source_door)
        if i is None:
            raise SpaceError(f"unknown door {source_door!r}")
        return self._search(csr, {i: 0.0})[0]

    # ------------------------------------------------------------------
    # point-to-point indoor distance (reference implementation)
    # ------------------------------------------------------------------

    def indoor_distance(self, q: Point, p: Point) -> float:
        """Exact indoor distance ``|q, p|_I`` between two points (Eq. 1).

        Reference implementation used by the naive baseline and tests;
        query processing uses the phased algorithms instead.
        """
        space = self.space
        pq = space.locate(q)
        pp = space.locate(p)
        if pq is None or pp is None:
            raise SpaceError("both points must lie inside the space")
        best = math.inf
        if pq.partition_id == pp.partition_id:
            best = q.distance(p, space.floor_height)
        dd = self.dijkstra_from_point(q, pq.partition_id)
        for door in space.entry_doors(pp.partition_id):
            d = dd.distance_to(door.door_id)
            if not math.isfinite(d):
                continue
            total = d + door.midpoint.distance(p, space.floor_height)
            best = min(best, total)
        if not math.isfinite(best):
            raise UnreachableError(f"{p} unreachable from {q}")
        return best
