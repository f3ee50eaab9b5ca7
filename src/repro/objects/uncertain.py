"""Uncertain objects and their per-partition split.

An :class:`UncertainObject` bundles an uncertainty region (circle) and
the discrete instance set.  Resolved against a space, its instances
fall into the *uncertainty subregions* ``S[j]`` of Section II-B, one
per partition they lie in: :meth:`UncertainObject.pieces` names them
(the index's columnar table stores the instances in that order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.objects.instances import InstanceSet
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid
from repro.space.partition import Partition


@dataclass(eq=False)
class UncertainObject:
    """An indoor moving object with an imprecise location.

    Parameters
    ----------
    object_id:
        Unique identifier.
    region:
        The circular uncertainty region reported by positioning.
    instances:
        The discrete pdf ``{(s_i, p_i)}``; all instances lie inside the
        region on the region's floor.
    """

    object_id: str
    region: Circle
    instances: InstanceSet

    def __post_init__(self) -> None:
        if self.instances.floor != self.region.floor:
            raise ReproError(
                f"object {self.object_id!r}: instances on floor "
                f"{self.instances.floor} but region on {self.region.floor}"
            )

    def __hash__(self) -> int:
        return hash(self.object_id)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UncertainObject)
            and other.object_id == self.object_id
        )

    # ------------------------------------------------------------------

    @property
    def floor(self) -> int:
        return self.region.floor

    def bounds(self) -> Rect:
        """Planar bounding rectangle of the instances (tighter than the
        region's, and exact for distance filtering)."""
        return self.instances.bounds()

    def __len__(self) -> int:
        """``|O|`` — the number of instances."""
        return len(self.instances)

    # ------------------------------------------------------------------
    # the per-partition split
    # ------------------------------------------------------------------

    def pieces(
        self,
        space: IndoorSpace,
        grid: PartitionGrid | None = None,
    ) -> tuple[list[str], np.ndarray | None]:
        """The subregions ``S[j]`` as an assignment: the partition ids
        in subregion order and the piece vector (instance ``i`` lies in
        partition ``ids[pieces[i]]``; ``None`` for a single partition).

        Every instance goes to exactly one partition: the first
        candidate, in ``partition_id`` order, whose footprint contains
        it (stacked staircase shafts share a footprint).  Instances in
        no partition — inside a wall, an artifact of sampling — are
        attached to the partition containing the region's center,
        preserving total probability mass.  Not cached."""
        rect = self.bounds()
        if grid is not None:
            candidates = grid.candidates_for_rect(rect, self.floor)
        else:
            candidates = [
                p
                for p in space.partitions_on_floor(self.floor)
                if p.bounds.intersects(rect)
            ]
        # Deterministic order: where footprints overlap (stacked
        # staircase shafts), every code path must pick the same owner.
        candidates = sorted(candidates, key=lambda p: p.partition_id)
        xy = self.instances.xy
        n = xy.shape[0]
        unassigned = np.ones(n, dtype=bool)
        pieces: list[tuple[str, np.ndarray]] = []
        for partition in candidates:
            if not unassigned.any():
                break
            mask = unassigned & _contains_many(partition, xy)
            if mask.any():
                pieces.append((partition.partition_id, mask))
                unassigned &= ~mask
        if unassigned.any():
            # Wall-clipped stragglers: attach to the center's partition,
            # or to the first candidate when the center is in a wall too.
            center_part = None
            for partition in candidates:
                if partition.contains_xy(
                    self.region.center.x, self.region.center.y
                ):
                    center_part = partition.partition_id
                    break
            if center_part is None:
                if not candidates:
                    raise ReproError(
                        f"object {self.object_id!r} overlaps no partition"
                    )
                center_part = candidates[0].partition_id
            for i, (pid, mask) in enumerate(pieces):
                if pid == center_part:
                    pieces[i] = (pid, mask | unassigned)
                    break
            else:
                pieces.append((center_part, unassigned.copy()))
        vector = None
        if len(pieces) > 1:
            vector = np.empty(n, dtype=np.min_scalar_type(len(pieces)))
            for k, (_, mask) in enumerate(pieces):
                vector[mask] = k
        return [pid for pid, _ in pieces], vector

    # ------------------------------------------------------------------

    def overlapped_partitions(
        self, space: IndoorSpace, grid: PartitionGrid | None = None
    ) -> list[str]:
        """``P(O)`` — ids of partitions the object overlaps."""
        return self.pieces(space, grid)[0]


def _contains_many(partition: Partition, xy: np.ndarray) -> np.ndarray:
    """Vectorised containment of many planar points in a partition."""
    footprint = partition.footprint
    if isinstance(footprint, Rect):
        return (
            (xy[:, 0] >= footprint.minx)
            & (xy[:, 0] <= footprint.maxx)
            & (xy[:, 1] >= footprint.miny)
            & (xy[:, 1] <= footprint.maxy)
        )
    return np.fromiter(
        (footprint.contains_xy(float(x), float(y)) for x, y in xy),
        dtype=bool,
        count=xy.shape[0],
    )
