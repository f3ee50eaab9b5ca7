"""Uncertain objects and their per-partition subregions.

An :class:`UncertainObject` bundles an uncertainty region (circle), the
discrete instance set, and — once resolved against a space — the
*uncertainty subregions* ``S[j]`` of Section II-B: one
:class:`Subregion` per partition the instances fall into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.objects.instances import InstanceSet, checked_mass
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid
from repro.space.partition import Partition


class Subregion:
    """``S[j]`` — the instances of one object inside one partition.

    When one partition holds every instance the subregion *is* the
    object's instance set (``pieces is None``).  A piece of a
    multi-partition object instead holds the parent set, the object's
    per-instance piece vector (shared by its subregions; instance ``i``
    belongs to subregion ``pieces[i]``) and its own mass, and builds —
    and validates — the :class:`InstanceSet` copy the first time
    :attr:`instances` is read.  No ingest or query path reads it (the
    kernels gather from ``parent`` and ``pieces``); scalar references do.
    """

    __slots__ = (
        "partition_id", "mass", "parent", "pieces", "piece", "_instances"
    )

    def __init__(
        self,
        partition_id: str,
        parent: InstanceSet,
        mass: float,
        pieces: np.ndarray | None = None,
        piece: int = 0,
    ) -> None:
        self.partition_id = partition_id
        #: ``sum_{s_i in S[j]} p_i`` — the subregion's probability.
        self.mass = mass
        self.parent = parent
        self.pieces = pieces
        self.piece = piece
        self._instances = parent if pieces is None else None

    @property
    def instances(self) -> InstanceSet:
        instances = self._instances
        if instances is None:
            # Built from locals and published by one assignment: two
            # pool threads racing on a first read both get a valid,
            # equal set.
            instances = self.parent.subset(self.pieces == self.piece)
            self._instances = instances
        return instances

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subregion({self.partition_id!r}, mass={self.mass!r})"


def split_subregions(
    instances: InstanceSet,
    partition_ids: list[str],
    masses: list[float],
    pieces: np.ndarray | None,
) -> list[Subregion]:
    """The subregion list of an object whose instance ``i`` falls in
    partition ``partition_ids[pieces[i]]`` (``pieces`` may be ``None``
    when there is one partition)."""
    if len(partition_ids) == 1:
        # One partition holds every instance: the subregion *is* the
        # instance set (immutable), no per-object copy to keep alive.
        return [Subregion(partition_ids[0], instances, masses[0])]
    return [
        Subregion(pid, instances, mass, pieces, k)
        for k, (pid, mass) in enumerate(zip(partition_ids, masses))
    ]


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
    _subregions: list[Subregion] | None = field(default=None, repr=False)
    _subregions_version: int = field(default=-1, repr=False)

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
    # subregions
    # ------------------------------------------------------------------

    def subregions(
        self,
        space: IndoorSpace,
        grid: PartitionGrid | None = None,
    ) -> list[Subregion]:
        """Divide the instances into per-partition subregions (cached
        until the space's topology changes).

        Every instance is assigned to exactly one partition (overlapping
        staircase shafts are disambiguated by assignment order).
        Instances falling into no partition — inside a wall, an artifact
        of sampling — are attached to the partition containing the
        region's center, preserving total probability mass.
        """
        if (
            self._subregions is not None
            and self._subregions_version == space.topology_version
        ):
            return self._subregions
        if grid is not None:
            candidates = grid.candidates_for_rect(self.bounds(), self.floor)
        else:
            rect = self.bounds()
            candidates = [
                p
                for p in space.partitions_on_floor(self.floor)
                if p.bounds.intersects(rect)
            ]
        subregions = self._assign(candidates, space)
        self.adopt_subregions(subregions, space.topology_version)
        return subregions

    def adopt_subregions(
        self, subregions: list[Subregion], topology_version: int
    ) -> None:
        """Install subregions computed elsewhere for this topology —
        the index's batched write resolves a whole batch at once."""
        self._subregions = subregions
        self._subregions_version = topology_version

    def invalidate_subregions(self) -> None:
        """Drop the cached subregions (e.g. after the object moved)."""
        self._subregions = None
        self._subregions_version = -1

    def _assign(
        self, candidates: list[Partition], space: IndoorSpace
    ) -> list[Subregion]:
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
                if partition.contains_xy(self.region.center.x, self.region.center.y):
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
        probs = self.instances.probs
        vector = None
        if len(pieces) > 1:
            vector = np.empty(n, dtype=np.min_scalar_type(len(pieces)))
            for k, (_, mask) in enumerate(pieces):
                vector[mask] = k
        return split_subregions(
            self.instances,
            [pid for pid, _ in pieces],
            [checked_mass(probs[mask]) for _, mask in pieces],
            vector,
        )

    # ------------------------------------------------------------------

    def overlapped_partitions(
        self, space: IndoorSpace, grid: PartitionGrid | None = None
    ) -> list[str]:
        """``P(O)`` — ids of partitions the object overlaps."""
        return [s.partition_id for s in self.subregions(space, grid)]


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
