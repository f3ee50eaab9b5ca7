"""Index units — the leaf level of the paper's indR-tree (Section III-A.2).

Irregular partitions are decomposed into regular *index units* by
Algorithm 3; a staircase spanning several floors contributes one unit
per floor.  :class:`~repro.index.composite.CompositeIndex` keeps the
unit list, and the columnar table
(:class:`~repro.index.columns.ObjectColumns`) flattens it into the
arrays RangeSearch and every write read.  No run path builds the tree
the paper holds the units in: :class:`repro.reference.tree.IndRTree`
packs an R*-tree over a unit list on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class IndexUnit:
    """One leaf-level entry: a regular rectangle on one floor, belonging
    to exactly one partition."""

    unit_id: str
    partition_id: str
    rect: Rect
    floor: int

    def contains_point(self, p: Point) -> bool:
        return p.floor == self.floor and self.rect.contains_xy(p.x, p.y)
