"""Simple planar polygons.

Partitions in a floor plan are rectangles or rectilinear polygons
(hallways with corners, U-shaped corridors).  The decomposition step
(Algorithm 3, :mod:`repro.geometry.decompose`) needs reflex-vertex
("turning point") detection and containment tests, both provided here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import GeometryError
from repro.geometry.rect import Rect

_EPS = 1e-9


@dataclass(frozen=True)
class Polygon:
    """A simple polygon given by its vertex ring (no repeated last vertex).

    Vertices are normalised to counter-clockwise orientation on
    construction; the input may be given in either orientation.
    """

    vertices: tuple[tuple[float, float], ...] = field(default=())

    def __init__(self, vertices) -> None:
        pts = [(float(x), float(y)) for x, y in vertices]
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise GeometryError(f"polygon needs >= 3 vertices, got {len(pts)}")
        if _signed_area(pts) < 0.0:
            pts.reverse()
        object.__setattr__(self, "vertices", tuple(pts))

    # -- constructions ---------------------------------------------------

    @staticmethod
    def from_rect(rect: Rect) -> "Polygon":
        return Polygon(rect.corners())

    # -- measures ----------------------------------------------------------

    @property
    def area(self) -> float:
        return abs(_signed_area(list(self.vertices)))

    def bounds(self) -> Rect:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def edges(self):
        """Yield consecutive vertex pairs ``((x0, y0), (x1, y1))``."""
        verts = self.vertices
        for i in range(len(verts)):
            yield verts[i], verts[(i + 1) % len(verts)]

    # -- predicates -----------------------------------------------------------

    def is_rectilinear(self) -> bool:
        """True when every edge is axis-aligned."""
        return all(
            abs(a[0] - b[0]) < _EPS or abs(a[1] - b[1]) < _EPS
            for a, b in self.edges()
        )

    def is_rectangle(self) -> bool:
        """True when the polygon covers exactly its bounding rect."""
        if not self.is_rectilinear():
            return False
        return abs(self.area - self.bounds().area) < _EPS

    def contains_xy(self, x: float, y: float) -> bool:
        """Point-in-polygon (boundary counts as inside)."""
        if self.on_boundary(x, y):
            return True
        inside = False
        verts = self.vertices
        n = len(verts)
        j = n - 1
        for i in range(n):
            xi, yi = verts[i]
            xj, yj = verts[j]
            if (yi > y) != (yj > y):
                x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def on_boundary(self, x: float, y: float, tol: float = 1e-9) -> bool:
        for (x0, y0), (x1, y1) in self.edges():
            dx, dy = x1 - x0, y1 - y0
            len2 = dx * dx + dy * dy
            if len2 == 0.0:
                if math.hypot(x - x0, y - y0) <= tol:
                    return True
                continue
            t = ((x - x0) * dx + (y - y0) * dy) / len2
            t = max(0.0, min(1.0, t))
            if math.hypot(x - (x0 + t * dx), y - (y0 + t * dy)) <= tol:
                return True
        return False


def _signed_area(pts: list[tuple[float, float]]) -> float:
    s = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s / 2.0
