"""A uniform grid over partitions, for fast candidate lookups.

The composite index's tree tier is the paper's structure for partition
retrieval; this grid is an *auxiliary* accelerator for "which partitions
could contain this region / point" answers outside the tree's walk:
object generation (placing millions of instances), the naive baseline,
the columnar object table (``ObjectColumns``: ``stage`` splits a
straggler — a wall-clipped object or a non-rectangular footprint —
through it, and ``validate`` re-splits every object through it), and
the occupancy watch (``OccupancyMaintainer`` locates each object's
region centre with it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.space.floorplan import IndoorSpace
from repro.space.partition import Partition


@dataclass
class PartitionGrid:
    """Per-floor uniform bucket grid mapping cells to partitions."""

    space: IndoorSpace
    cell_size: float = 30.0
    _origin: tuple[float, float] = (0.0, 0.0)
    _cells: dict[tuple[int, int, int], list[Partition]] = field(
        default_factory=dict
    )
    _built_for_version: int = -1

    @staticmethod
    def build(space: IndoorSpace, cell_size: float = 30.0) -> "PartitionGrid":
        grid = PartitionGrid(space, cell_size)
        grid.rebuild()
        return grid

    def rebuild(self) -> None:
        bounds = self.space.bounds()
        self._origin = (bounds.minx, bounds.miny)
        self._cells = {}
        for partition in self.space.partitions.values():
            rect = partition.bounds
            for floor in range(partition.floor, partition.upper_floor + 1):
                for key in self._keys_for_rect(rect, floor):
                    self._cells.setdefault(key, []).append(partition)
        self._built_for_version = self.space.topology_version

    def ensure_fresh(self) -> None:
        if self._built_for_version != self.space.topology_version:
            self.rebuild()

    # ------------------------------------------------------------------

    def candidates_for_rect(self, rect: Rect, floor: int) -> list[Partition]:
        """Partitions whose bounds may intersect ``rect`` on ``floor``."""
        self.ensure_fresh()
        seen: set[str] = set()
        out: list[Partition] = []
        for key in self._keys_for_rect(rect, floor):
            for partition in self._cells.get(key, ()):
                if partition.partition_id in seen:
                    continue
                seen.add(partition.partition_id)
                if partition.bounds.intersects(rect):
                    out.append(partition)
        return out

    def candidates_for_point(self, point: Point) -> list[Partition]:
        self.ensure_fresh()
        key = self._key(point.x, point.y, point.floor)
        return [
            p
            for p in self._cells.get(key, ())
            if p.contains_point(point)
        ]

    def locate(self, point: Point) -> Partition | None:
        """Grid-accelerated version of :meth:`IndoorSpace.locate`."""
        candidates = self.candidates_for_point(point)
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------

    def _key(self, x: float, y: float, floor: int) -> tuple[int, int, int]:
        ox, oy = self._origin
        return (
            floor,
            math.floor((x - ox) / self.cell_size),
            math.floor((y - oy) / self.cell_size),
        )

    def _keys_for_rect(self, rect: Rect, floor: int):
        ox, oy = self._origin
        i0 = math.floor((rect.minx - ox) / self.cell_size)
        i1 = math.floor((rect.maxx - ox) / self.cell_size)
        j0 = math.floor((rect.miny - oy) / self.cell_size)
        j1 = math.floor((rect.maxy - oy) / self.cell_size)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                yield (floor, i, j)
