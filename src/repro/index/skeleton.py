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
distance (Lemma 6, the Geometric Lower Bound Property) and drives
RangeSearch: the columnar table
(:meth:`repro.index.columns.ObjectColumns.search`) reads ``M_s2s`` and
the per-floor entrances directly, and :mod:`repro.reference.tree`
holds the same distances one entity at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point
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
