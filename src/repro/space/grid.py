"""A uniform grid over partitions, for fast candidate lookups.

The grid answers "which partitions could contain this region / point":
point location ``P(q)`` for the composite index and every query
(:meth:`PartitionGrid.locate`, the run path's one point locator),
object generation (placing millions of instances), the naive baseline,
the columnar object table (``ObjectColumns``: ``stage`` splits a
straggler — a wall-clipped object or a non-rectangular footprint —
through it, and ``validate`` re-splits every object through it), and
the occupancy watch (``OccupancyMaintainer`` locates each object's
region centre with it).  A cell lists its partitions in
``space.partitions`` order, so every answer follows
:meth:`IndoorSpace.locate`'s tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.space.floorplan import IndoorSpace
from repro.space.partition import Partition

#: Cells a floor's grid may hold: a map too large for ``cell_size``
#: gets coarser cells, so no rectangle enumerates more than this many.
#: A campus row of 100 malls on 600 m floors needs about 41 000 cells
#: of 30 m.
_MAX_CELLS = 1 << 16


@dataclass
class PartitionGrid:
    """Per-floor uniform bucket grid mapping cells to partitions."""

    space: IndoorSpace
    cell_size: float = 30.0
    _origin: tuple[float, float] = (0.0, 0.0)
    #: The cell edge in use and the last cell index along x and y.
    _step: float = 30.0
    _last: tuple[int, int] = (0, 0)
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
        width = bounds.maxx - bounds.minx
        height = bounds.maxy - bounds.miny
        self._step = max(
            self.cell_size,
            math.sqrt(width * height / _MAX_CELLS),
            width / _MAX_CELLS,
            height / _MAX_CELLS,
        )
        self._last = (
            math.floor(width / self._step),
            math.floor(height / self._step),
        )
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
        """Grid-accelerated version of :meth:`IndoorSpace.locate`: the
        first partition in ``space.partitions`` order that contains
        ``point``."""
        candidates = self.candidates_for_point(point)
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------

    def _key(self, x: float, y: float, floor: int) -> tuple[int, int, int]:
        ox, oy = self._origin
        return (
            floor,
            math.floor((x - ox) / self._step),
            math.floor((y - oy) / self._step),
        )

    def _keys_for_rect(self, rect: Rect, floor: int):
        """The cells ``rect`` overlaps, clipped to the map's: a cell off
        the map holds no partition."""
        ox, oy = self._origin
        last_i, last_j = self._last
        i0 = max(math.floor((rect.minx - ox) / self._step), 0)
        i1 = min(math.floor((rect.maxx - ox) / self._step), last_i)
        j0 = max(math.floor((rect.miny - oy) / self._step), 0)
        j1 = min(math.floor((rect.maxy - oy) / self._step), last_j)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                yield (floor, i, j)
