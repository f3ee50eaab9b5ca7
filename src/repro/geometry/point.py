"""Indoor points and Euclidean distances.

A :class:`Point` is a planar coordinate plus an integer floor number.  The
(virtual) Euclidean distance between points on different floors is the 3-D
straight-line distance with the vertical leg ``|Δfloor| * floor_height``;
the paper uses it purely as a lower bound of the indoor distance
(Section II-D.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Per-floor height in metres; the paper's mall floors are 4 m tall.
DEFAULT_FLOOR_HEIGHT = 4.0


@dataclass(frozen=True, slots=True)
class Point:
    """A position inside a building: planar ``(x, y)`` plus a ``floor``.

    ``floor`` is an integer index (ground floor = 0).  Points are immutable
    and hashable so they can key dictionaries (e.g. door midpoints).
    """

    x: float
    y: float
    floor: int = 0

    def z(self, floor_height: float = DEFAULT_FLOOR_HEIGHT) -> float:
        """Vertical elevation of this point."""
        return self.floor * floor_height

    def distance(
        self, other: "Point", floor_height: float = DEFAULT_FLOOR_HEIGHT
    ) -> float:
        """Virtual Euclidean distance ``|self, other|_E`` (3-D if the
        points are on different floors)."""
        dz = (self.floor - other.floor) * floor_height
        if dz == 0.0:
            return math.hypot(self.x - other.x, self.y - other.y)
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + dz * dz
        )

    def on_floor(self, floor: int) -> "Point":
        """A copy of this point placed on ``floor``."""
        return Point(self.x, self.y, floor)

    def xy(self) -> tuple[float, float]:
        """Planar coordinate tuple."""
        return (self.x, self.y)


def euclidean_distance(
    p: Point, q: Point, floor_height: float = DEFAULT_FLOOR_HEIGHT
) -> float:
    """Module-level alias of :meth:`Point.distance` (reads better in
    formula-heavy call sites)."""
    return p.distance(q, floor_height)
