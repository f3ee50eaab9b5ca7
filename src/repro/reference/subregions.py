"""Uncertainty subregions as objects (Section II-B): the scalar split.

An object's instances fall into one *uncertainty subregion* ``S[j]``
per partition they lie in.  The system never builds one: the index's
columnar table stores each object's instances in subregion-row order
and the kernels read those rows.  :func:`subregions` is the assignment
those rows are held to, and the input of every scalar reference in
this package.
"""

from __future__ import annotations

import numpy as np

from repro.objects.instances import InstanceSet, checked_mass
from repro.objects.uncertain import UncertainObject
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid


class Subregion:
    """``S[j]`` — the instances of one object inside one partition.

    When one partition holds every instance the subregion *is* the
    object's instance set (``pieces is None``).  A piece of a
    multi-partition object instead holds the parent set, the object's
    per-instance piece vector (shared by its subregions; instance ``i``
    belongs to subregion ``pieces[i]``) and its own mass, and builds —
    and validates — the :class:`InstanceSet` copy the first time
    :attr:`instances` is read.
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
        if self._instances is None:
            self._instances = self.parent.subset(self.pieces == self.piece)
        return self._instances

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subregion({self.partition_id!r}, mass={self.mass!r})"


def subregions(
    obj: UncertainObject,
    space: IndoorSpace,
    grid: PartitionGrid | None = None,
) -> list[Subregion]:
    """Divide ``obj``'s instances into per-partition subregions, in the
    order of :meth:`~repro.objects.uncertain.UncertainObject.pieces`.

    Every instance is assigned to exactly one partition (overlapping
    staircase shafts are disambiguated by assignment order).
    Instances falling into no partition — inside a wall, an artifact
    of sampling — are attached to the partition containing the
    region's center, preserving total probability mass.
    """
    ids, vector = obj.pieces(space, grid)
    instances = obj.instances
    if vector is None:
        # One partition holds every instance: the subregion *is* the
        # instance set (immutable), no per-object copy.
        return [Subregion(ids[0], instances, checked_mass(instances.probs))]
    return [
        Subregion(
            pid, instances, checked_mass(instances.probs[vector == k]),
            vector, k,
        )
        for k, pid in enumerate(ids)
    ]
