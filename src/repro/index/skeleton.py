"""The skeleton tier (Section III-A.5) and skeleton distance (III-B).

Euclidean lower bounds are too loose for multi-floor buildings: almost
the whole building lies within 300 m straight-line of a ground-floor
query point, yet every *path* upstairs runs through a staircase.  The
skeleton tier captures exactly that: a small graph over staircase
entrances with an all-pairs matrix ``M_s2s`` satisfying the paper's four
properties:

1. ``M_s2s[s, s] = 0``;
2. same floor: ``M_s2s[s_i, s_j] = |s_i, s_j|_E``;
3. same staircase: the shortest within-staircase distance;
4. otherwise: the shortest path in the skeleton graph.

The *skeleton distance* (Definition 2) then lower-bounds the indoor
distance (Lemma 6, the Geometric Lower Bound Property) and drives the
tree-tier RangeSearch.

Deviation noted in DESIGN.md: for entities spanning several floors we
minimise over staircase entrances on **all** floors of the span instead
of only the lowest/highest (Eq. 10's ``lf``/``uf``) — identical for
single-floor entities, and never above the true indoor distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Box3
from repro.space.floorplan import IndoorSpace
from repro.space.partition import PartitionKind


@dataclass(frozen=True)
class Entrance:
    """One staircase entrance: a door joining a staircase to a normal
    partition."""

    index: int
    door_id: str
    staircase_id: str
    midpoint: Point

    @property
    def floor(self) -> int:
        return self.midpoint.floor


class SkeletonTier:
    """Staircase-entrance graph with the dense ``M_s2s`` matrix."""

    def __init__(self, space: IndoorSpace) -> None:
        self.space = space
        self.entrances: list[Entrance] = []
        self.by_floor: dict[int, list[Entrance]] = {}
        self.ms2s: np.ndarray = np.zeros((0, 0))
        self._built_for_version = -1
        self.rebuild()

    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """(Re)collect entrances and recompute ``M_s2s``.

        ``M`` is small (entrances, not doors), so the paper's targeted
        update rule is subsumed by a full vectorised Floyd-Warshall —
        still a sub-millisecond operation at building scale.
        """
        space = self.space
        entrances: list[Entrance] = []
        for staircase in space.staircases():
            sid = staircase.partition_id
            for door in space.doors_of(sid):
                other = door.other_side(sid)
                if space.partition(other).kind is PartitionKind.STAIRCASE:
                    continue  # staircase-to-staircase links are not entrances
                entrances.append(
                    Entrance(len(entrances), door.door_id, sid, door.midpoint)
                )
        self.entrances = entrances
        self.by_floor = {}
        for e in entrances:
            self.by_floor.setdefault(e.floor, []).append(e)

        m = len(entrances)
        dist = np.full((m, m), np.inf)
        np.fill_diagonal(dist, 0.0)
        fh = space.floor_height
        for i in range(m):
            for j in range(i + 1, m):
                a, b = entrances[i], entrances[j]
                w = math.inf
                if a.floor == b.floor:
                    w = a.midpoint.distance(b.midpoint, fh)  # property (2)
                elif a.staircase_id == b.staircase_id:
                    w = a.midpoint.distance(b.midpoint, fh)  # property (3)
                if w < dist[i, j]:
                    dist[i, j] = dist[j, i] = w
        # Floyd-Warshall closure (property 4), vectorised over rows.
        for k in range(m):
            via = dist[:, k : k + 1] + dist[k : k + 1, :]
            np.minimum(dist, via, out=dist)
        self.ms2s = dist
        self._built_for_version = space.topology_version

    def ensure_fresh(self) -> None:
        if self._built_for_version != self.space.topology_version:
            self.rebuild()

    @property
    def num_entrances(self) -> int:
        return len(self.entrances)

    def entrances_on_floor(self, floor: int) -> list[Entrance]:
        """``S(f)`` — staircase entrances on one floor."""
        return self.by_floor.get(floor, [])

    # ------------------------------------------------------------------
    # skeleton distances
    # ------------------------------------------------------------------

    def skeleton_distance(self, q: Point, p: Point) -> float:
        """``|q, p|_K`` (Definition 2).

        Same floor: plain Euclidean.  Different floors: best combination
        of an entrance near ``q``, the ``M_s2s`` hop, and an entrance
        near ``p``.  Infinite when either floor has no staircase access.
        """
        self.ensure_fresh()
        fh = self.space.floor_height
        if q.floor == p.floor:
            return q.distance(p, fh)
        best = math.inf
        for sq in self.entrances_on_floor(q.floor):
            dq = q.distance(sq.midpoint, fh)
            for sp in self.entrances_on_floor(p.floor):
                total = (
                    dq
                    + self.ms2s[sq.index, sp.index]
                    + sp.midpoint.distance(p, fh)
                )
                if total < best:
                    best = total
        return best

    def min_distance_to_box(
        self, q: Point, box: Box3, lf: int, uf: int
    ) -> float:
        """``|q, e|_K^min`` (Eq. 10) for an entity with MBR ``box``
        spanning floors ``[lf, uf]``."""
        self.ensure_fresh()
        fh = self.space.floor_height
        flat = box.flattened() if lf == uf else box
        if lf <= q.floor <= uf:
            return flat.min_distance_xyz(q.x, q.y, q.z(fh))
        sqs = self.entrances_on_floor(q.floor)
        if not sqs:
            # No staircase on the query's floor: fall back to the plain
            # Euclidean MINDIST, which is always a valid lower bound.
            return flat.min_distance_xyz(q.x, q.y, q.z(fh))
        best = math.inf
        dqs = [q.distance(s.midpoint, fh) for s in sqs]
        for floor in range(lf, uf + 1):
            for se in self.entrances_on_floor(floor):
                leg = flat.min_distance_xyz(
                    se.midpoint.x, se.midpoint.y, se.midpoint.z(fh)
                )
                for dq, sq in zip(dqs, sqs):
                    total = dq + self.ms2s[sq.index, se.index] + leg
                    if total < best:
                        best = total
        return best

    def min_distance_to_point_set(self, q: Point, instances, floor: int) -> float:
        """``|q, O|_K^min`` against an object's instances (tighter than
        the MBR version; used in the filtering phase's object test)."""
        self.ensure_fresh()
        fh = self.space.floor_height
        if q.floor == floor:
            return instances.min_distance_to(q, fh)
        sqs = self.entrances_on_floor(q.floor)
        ses = self.entrances_on_floor(floor)
        if not sqs or not ses:
            return instances.min_distance_to(q, fh)
        best = math.inf
        legs = [instances.min_distance_to(se.midpoint, fh) for se in ses]
        for sq in sqs:
            dq = q.distance(sq.midpoint, fh)
            for se, leg in zip(ses, legs):
                total = dq + self.ms2s[sq.index, se.index] + leg
                if total < best:
                    best = total
        return best
