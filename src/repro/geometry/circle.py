"""Circles — the uncertainty-region shape used in the paper's evaluation.

An uncertain object's region is a circle on a single floor (positioning
readers report planar regions); its instances are sampled inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True, slots=True)
class Circle:
    """A planar circle ``(center, radius)`` on the center's floor."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise GeometryError(f"negative radius {self.radius}")

    @property
    def floor(self) -> int:
        return self.center.floor

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def bounds(self) -> Rect:
        """Planar bounding rectangle."""
        return Rect(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def contains_xy(self, x: float, y: float) -> bool:
        return (
            math.hypot(x - self.center.x, y - self.center.y) <= self.radius
        )

    def polygonize(self, n: int = 16) -> list[tuple[float, float]]:
        """Approximate the circle by an ``n``-gon (CCW vertex list).

        The paper polygonises circular partitions before decomposition
        (Section III-A.2); the same helper serves tests and examples.
        """
        if n < 3:
            raise GeometryError(f"need >= 3 vertices, got {n}")
        return [
            (
                self.center.x + self.radius * math.cos(2.0 * math.pi * i / n),
                self.center.y + self.radius * math.sin(2.0 * math.pi * i / n),
            )
            for i in range(n)
        ]
