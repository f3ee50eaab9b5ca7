"""Geometric primitives for indoor spaces.

Everything downstream (space model, index, distances) is built on these
types.  The package is dependency-free apart from numpy.

Coordinate convention
---------------------
An indoor position is a planar coordinate ``(x, y)`` plus an integer
``floor``.  The vertical elevation of a floor is ``floor *
floor_height`` where ``floor_height`` defaults to
:data:`DEFAULT_FLOOR_HEIGHT` (4 m, the paper's setup).
"""

from repro.geometry.point import DEFAULT_FLOOR_HEIGHT, Point, euclidean_distance
from repro.geometry.rect import Box3, Rect
from repro.geometry.segment import Segment
from repro.geometry.circle import Circle
from repro.geometry.polygon import Polygon
from repro.geometry.decompose import decompose_partition_geometry

__all__ = [
    "DEFAULT_FLOOR_HEIGHT",
    "Point",
    "euclidean_distance",
    "Rect",
    "Box3",
    "Segment",
    "Circle",
    "Polygon",
    "decompose_partition_geometry",
]
