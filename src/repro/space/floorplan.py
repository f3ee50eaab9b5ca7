"""The :class:`IndoorSpace` — registry of partitions and doors.

This is the authoritative model the composite index and the queries are
built over.  It offers topology accessors (doors of a partition, adjacent
partitions), point location, intra-partition metrics, and the low-level
mutators the topology events use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import SpaceError
from repro.geometry.point import DEFAULT_FLOOR_HEIGHT, Point
from repro.geometry.rect import Rect
from repro.space.door import Door
from repro.space.partition import Partition, PartitionKind


@dataclass
class IndoorSpace:
    """A multi-floor indoor space.

    Attributes
    ----------
    floor_height:
        Vertical distance between consecutive floors (4 m in the paper's
        evaluation).
    """

    floor_height: float = DEFAULT_FLOOR_HEIGHT
    partitions: dict[str, Partition] = field(default_factory=dict)
    doors: dict[str, Door] = field(default_factory=dict)
    #: monotonically increasing counter, bumped by every topology mutation;
    #: lets derived structures (doors graph, composite index) detect
    #: staleness cheaply.
    topology_version: int = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_partition(self, partition: Partition) -> Partition:
        if partition.partition_id in self.partitions:
            raise SpaceError(f"duplicate partition id {partition.partition_id!r}")
        self.partitions[partition.partition_id] = partition
        self.topology_version += 1
        return partition

    def add_door(self, door: Door) -> Door:
        if door.door_id in self.doors:
            raise SpaceError(f"duplicate door id {door.door_id!r}")
        for pid in door.partitions:
            if pid not in self.partitions:
                raise SpaceError(
                    f"door {door.door_id!r} references unknown partition {pid!r}"
                )
        self.doors[door.door_id] = door
        for pid in door.partitions:
            self.partitions[pid].door_ids.append(door.door_id)
        self.topology_version += 1
        return door

    def remove_door(self, door_id: str) -> Door:
        door = self.doors.pop(door_id, None)
        if door is None:
            raise SpaceError(f"unknown door {door_id!r}")
        for pid in door.partitions:
            partition = self.partitions.get(pid)
            if partition and door_id in partition.door_ids:
                partition.door_ids.remove(door_id)
        self.topology_version += 1
        return door

    def remove_partition(self, partition_id: str) -> Partition:
        """Remove a partition and all doors attached to it."""
        partition = self.partitions.get(partition_id)
        if partition is None:
            raise SpaceError(f"unknown partition {partition_id!r}")
        for door_id in list(partition.door_ids):
            self.remove_door(door_id)
        del self.partitions[partition_id]
        self.topology_version += 1
        return partition

    # ------------------------------------------------------------------
    # topology accessors
    # ------------------------------------------------------------------

    def partition(self, partition_id: str) -> Partition:
        try:
            return self.partitions[partition_id]
        except KeyError:
            raise SpaceError(f"unknown partition {partition_id!r}") from None

    def door(self, door_id: str) -> Door:
        try:
            return self.doors[door_id]
        except KeyError:
            raise SpaceError(f"unknown door {door_id!r}") from None

    def doors_of(self, partition_id: str) -> list[Door]:
        """``D(p)`` — the doors of a partition."""
        return [self.doors[d] for d in self.partition(partition_id).door_ids]

    def exit_doors(self, partition_id: str) -> list[Door]:
        """Doors through which one may *leave* the partition."""
        return [
            d for d in self.doors_of(partition_id) if d.allows_exit(partition_id)
        ]

    def entry_doors(self, partition_id: str) -> list[Door]:
        """Doors through which one may *enter* the partition."""
        return [
            d for d in self.doors_of(partition_id) if d.allows_entry(partition_id)
        ]

    def adjacent_partitions(self, partition_id: str) -> list[str]:
        """Partitions reachable from this one through a single open door."""
        out = []
        for door in self.doors_of(partition_id):
            if door.allows_exit(partition_id):
                out.append(door.other_side(partition_id))
        return out

    def staircases(self) -> list[Partition]:
        return [
            p
            for p in self.partitions.values()
            if p.kind is PartitionKind.STAIRCASE
        ]

    def partitions_on_floor(self, floor: int) -> list[Partition]:
        return [p for p in self.partitions.values() if p.spans_floor(floor)]

    @property
    def num_floors(self) -> int:
        if not self.partitions:
            return 0
        return 1 + max(p.upper_floor for p in self.partitions.values())

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    def bounds(self) -> Rect:
        """Planar bounding rectangle over all partitions."""
        if not self.partitions:
            raise SpaceError("empty space has no bounds")
        rects = [p.bounds for p in self.partitions.values()]
        out = rects[0]
        for r in rects[1:]:
            out = out.union(r)
        return out

    def locate(self, point: Point) -> Partition | None:
        """``P(q)`` — the partition containing a point (linear scan).

        Tie rule: a point on a shared wall or corner lies in several
        partitions, and the first of them in :attr:`partitions` order
        is returned.  Every locator follows it — the grid version
        :meth:`repro.space.grid.PartitionGrid.locate`, which the
        composite index and the queries use, is this scan restricted to
        one cell, and a checkpoint keeps the partition order.
        """
        for partition in self.partitions.values():
            if partition.contains_point(point):
                return partition
        return None

    def door_to_door(self, d1: Door, d2: Door) -> float:
        """Intra-partition distance between two door midpoints."""
        return d1.midpoint.distance(d2.midpoint, self.floor_height)

    def random_point(
        self, seed: int | None = None, rng: random.Random | None = None
    ) -> Point:
        """A uniform-ish random point: pick a non-staircase partition at
        random, then a uniform point inside its footprint."""
        if rng is None:
            rng = random.Random(seed)
        candidates = [
            p
            for p in self.partitions.values()
            if p.kind is not PartitionKind.STAIRCASE
        ]
        if not candidates:
            raise SpaceError("no non-staircase partitions to sample from")
        for _ in range(1000):
            partition = rng.choice(candidates)
            x, y = partition.bounds.random_xy(rng)
            if partition.contains_xy(x, y):
                return Point(x, y, partition.floor)
        raise SpaceError("failed to sample a point (degenerate footprints?)")

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> list[str]:
        """Check model consistency; returns a list of problem strings
        (empty means the space is well-formed)."""
        problems = []
        for door in self.doors.values():
            for pid in door.partitions:
                if pid not in self.partitions:
                    problems.append(
                        f"door {door.door_id} references missing partition {pid}"
                    )
                    continue
                partition = self.partitions[pid]
                if door.door_id not in partition.door_ids:
                    problems.append(
                        f"door {door.door_id} missing from partition "
                        f"{pid}'s door list"
                    )
                if not partition.spans_floor(door.midpoint.floor):
                    problems.append(
                        f"door {door.door_id} midpoint floor "
                        f"{door.midpoint.floor} outside partition {pid}'s span"
                    )
        for partition in self.partitions.values():
            for door_id in partition.door_ids:
                if door_id not in self.doors:
                    problems.append(
                        f"partition {partition.partition_id} lists missing "
                        f"door {door_id}"
                    )
            if not partition.door_ids:
                problems.append(
                    f"partition {partition.partition_id} has no doors (isolated)"
                )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndoorSpace({len(self.partitions)} partitions, "
            f"{len(self.doors)} doors, {self.num_floors} floors)"
        )
