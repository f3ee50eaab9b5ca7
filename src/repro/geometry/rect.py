"""Axis-aligned rectangles (2-D) and boxes (3-D).

:class:`Rect` is the workhorse for partition footprints and index units.
:class:`Box3` is the MBR type stored in the R*-tree; the indR-tree stores
partitions as *flat* boxes whose vertical extent is 1 cm (Section III-A.2)
and treats that extent as zero during query-phase distance computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GeometryError


@dataclass(frozen=True, slots=True)
class Rect:
    """A planar axis-aligned rectangle ``[minx, maxx] x [miny, maxy]``."""

    minx: float
    miny: float
    maxx: float
    maxy: float

    def __post_init__(self) -> None:
        if self.minx > self.maxx or self.miny > self.maxy:
            raise GeometryError(f"degenerate rect: {self!r}")

    # -- basic measures -------------------------------------------------

    @property
    def width(self) -> float:
        return self.maxx - self.minx

    @property
    def height(self) -> float:
        return self.maxy - self.miny

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def margin(self) -> float:
        """Half perimeter; the R*-tree split heuristic minimises this."""
        return self.width + self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.minx + self.maxx) / 2.0, (self.miny + self.maxy) / 2.0)

    def aspect_ratio(self) -> float:
        """Short side over long side, in ``[0, 1]``.

        This is the ratio Algorithm 3 compares against ``T_shape``.  A
        degenerate (zero-long-side) rect has ratio 1 by convention.
        """
        long_side = max(self.width, self.height)
        if long_side == 0.0:
            return 1.0
        return min(self.width, self.height) / long_side

    # -- predicates ------------------------------------------------------

    def contains_xy(self, x: float, y: float) -> bool:
        return self.minx <= x <= self.maxx and self.miny <= y <= self.maxy

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.minx <= other.minx
            and self.miny <= other.miny
            and self.maxx >= other.maxx
            and self.maxy >= other.maxy
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.minx > self.maxx
            or other.maxx < self.minx
            or other.miny > self.maxy
            or other.maxy < self.miny
        )

    # -- constructions ---------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap rectangle, or ``None`` when disjoint."""
        minx = max(self.minx, other.minx)
        miny = max(self.miny, other.miny)
        maxx = min(self.maxx, other.maxx)
        maxy = min(self.maxy, other.maxy)
        if minx > maxx or miny > maxy:
            return None
        return Rect(minx, miny, maxx, maxy)

    def buffered(self, amount: float) -> "Rect":
        """Grow (or shrink, for negative ``amount``) on every side."""
        return Rect(
            self.minx - amount,
            self.miny - amount,
            self.maxx + amount,
            self.maxy + amount,
        )

    def split_x(self, x: float) -> tuple["Rect", "Rect"]:
        """Split by the vertical line ``x = x`` (must cross the rect)."""
        if not (self.minx < x < self.maxx):
            raise GeometryError(f"x={x} does not cross {self!r}")
        return (
            Rect(self.minx, self.miny, x, self.maxy),
            Rect(x, self.miny, self.maxx, self.maxy),
        )

    def split_y(self, y: float) -> tuple["Rect", "Rect"]:
        """Split by the horizontal line ``y = y`` (must cross the rect)."""
        if not (self.miny < y < self.maxy):
            raise GeometryError(f"y={y} does not cross {self!r}")
        return (
            Rect(self.minx, self.miny, self.maxx, y),
            Rect(self.minx, y, self.maxx, self.maxy),
        )

    # -- distances ---------------------------------------------------------

    def corners(self) -> list[tuple[float, float]]:
        return [
            (self.minx, self.miny),
            (self.maxx, self.miny),
            (self.maxx, self.maxy),
            (self.minx, self.maxy),
        ]

    def random_xy(self, rng) -> tuple[float, float]:
        """A uniform random point inside the rect (``rng`` is a
        :class:`numpy.random.Generator` or :class:`random.Random`)."""
        u, v = rng.random(), rng.random()
        return (self.minx + u * self.width, self.miny + v * self.height)


@dataclass(frozen=True, slots=True)
class Box3:
    """A 3-D axis-aligned box used as the R*-tree MBR type."""

    minx: float
    miny: float
    minz: float
    maxx: float
    maxy: float
    maxz: float

    def __post_init__(self) -> None:
        if self.minx > self.maxx or self.miny > self.maxy or self.minz > self.maxz:
            raise GeometryError(f"degenerate box: {self!r}")

    # -- measures ---------------------------------------------------------

    @property
    def volume(self) -> float:
        return (
            (self.maxx - self.minx)
            * (self.maxy - self.miny)
            * (self.maxz - self.minz)
        )

    @property
    def margin(self) -> float:
        """Sum of the three side lengths (R*-tree split heuristic)."""
        return (
            (self.maxx - self.minx)
            + (self.maxy - self.miny)
            + (self.maxz - self.minz)
        )

    @property
    def center(self) -> tuple[float, float, float]:
        return (
            (self.minx + self.maxx) / 2.0,
            (self.miny + self.maxy) / 2.0,
            (self.minz + self.maxz) / 2.0,
        )

    def side(self, dim: int) -> tuple[float, float]:
        """The ``[lo, hi]`` interval on dimension ``dim`` (0, 1 or 2)."""
        if dim == 0:
            return (self.minx, self.maxx)
        if dim == 1:
            return (self.miny, self.maxy)
        if dim == 2:
            return (self.minz, self.maxz)
        raise GeometryError(f"bad dimension {dim}")

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "Box3") -> bool:
        return not (
            other.minx > self.maxx
            or other.maxx < self.minx
            or other.miny > self.maxy
            or other.maxy < self.miny
            or other.minz > self.maxz
            or other.maxz < self.minz
        )

    def contains_box(self, other: "Box3") -> bool:
        return (
            self.minx <= other.minx
            and self.miny <= other.miny
            and self.minz <= other.minz
            and self.maxx >= other.maxx
            and self.maxy >= other.maxy
            and self.maxz >= other.maxz
        )

    # -- constructions --------------------------------------------------------

    def union(self, other: "Box3") -> "Box3":
        return Box3(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            min(self.minz, other.minz),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
            max(self.maxz, other.maxz),
        )

    def intersection_volume(self, other: "Box3") -> float:
        dx = min(self.maxx, other.maxx) - max(self.minx, other.minx)
        dy = min(self.maxy, other.maxy) - max(self.miny, other.miny)
        dz = min(self.maxz, other.maxz) - max(self.minz, other.minz)
        if dx <= 0.0 or dy <= 0.0 or dz <= 0.0:
            return 0.0
        return dx * dy * dz

    def flattened(self) -> "Box3":
        """Query-phase view: vertical extent collapsed to ``[minz, minz]``.

        This is the paper's 1 cm trick — the box is stored with a tiny
        vertical extent so R*-tree volume heuristics work, but distances
        treat the partition as a 2-D rectangle at its floor elevation.
        """
        return Box3(self.minx, self.miny, self.minz, self.maxx, self.maxy, self.minz)

    def rect(self) -> Rect:
        """Planar footprint."""
        return Rect(self.minx, self.miny, self.maxx, self.maxy)

    # -- distances -------------------------------------------------------------

    def min_distance_xyz(self, x: float, y: float, z: float) -> float:
        """3-D MINDIST from a point to this box (0 when inside)."""
        dx = max(self.minx - x, 0.0, x - self.maxx)
        dy = max(self.miny - y, 0.0, y - self.maxy)
        dz = max(self.minz - z, 0.0, z - self.maxz)
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def min_distance_to(self, other: "Box3") -> float:
        """3-D MINDIST between two boxes (0 when they intersect)."""
        dx = max(self.minx - other.maxx, 0.0, other.minx - self.maxx)
        dy = max(self.miny - other.maxy, 0.0, other.miny - self.maxy)
        dz = max(self.minz - other.maxz, 0.0, other.minz - self.maxz)
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    @staticmethod
    def from_rect(
        rect: Rect, floor: int, floor_height: float, vertical_extent: float = 0.01
    ) -> "Box3":
        """Build the indR-tree box for a partition footprint.

        ``vertical_extent`` is the paper's 1 cm: large enough for R*-tree
        volume math, negligible for distances.
        """
        z = floor * floor_height
        return Box3(rect.minx, rect.miny, z, rect.maxx, rect.maxy, z + vertical_extent)
