"""Planar line segments.

Used for door placement on shared walls and for polygon edge iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass



@dataclass(frozen=True, slots=True)
class Segment:
    """A planar segment from ``(x1, y1)`` to ``(x2, y2)``."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def length(self) -> float:
        return math.hypot(self.x2 - self.x1, self.y2 - self.y1)

    @property
    def midpoint(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def is_axis_aligned(self) -> bool:
        return self.x1 == self.x2 or self.y1 == self.y2

    def overlap_1d(self, other: "Segment") -> "Segment | None":
        """Shared collinear sub-segment of two axis-aligned segments.

        Returns ``None`` when the segments are not collinear or do not
        overlap.  This is how the space builder finds the wall shared by
        two adjacent rectangular partitions.
        """
        if not (self.is_axis_aligned() and other.is_axis_aligned()):
            return None
        if self.x1 == self.x2 and other.x1 == other.x2 and self.x1 == other.x1:
            lo = max(min(self.y1, self.y2), min(other.y1, other.y2))
            hi = min(max(self.y1, self.y2), max(other.y1, other.y2))
            if lo < hi:
                return Segment(self.x1, lo, self.x1, hi)
            return None
        if self.y1 == self.y2 and other.y1 == other.y2 and self.y1 == other.y1:
            lo = max(min(self.x1, self.x2), min(other.x1, other.x2))
            hi = min(max(self.x1, self.x2), max(other.x1, other.x2))
            if lo < hi:
                return Segment(lo, self.y1, hi, self.y1)
            return None
        return None
