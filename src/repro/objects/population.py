"""Object populations — the mutable set ``O`` of uncertain objects.

The population is the source of truth the composite index's object layer
is built from; insert/delete/move here mirror the paper's object-update
workload (Section III-C.2), and the index mirrors them incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ReproError
from repro.geometry.circle import Circle
from repro.objects.instances import InstanceSet
from repro.objects.uncertain import UncertainObject
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid


@dataclass(frozen=True)
class ObjectMove:
    """One positioning update: object ``object_id`` was re-observed at
    ``new_region`` with pdf ``new_instances``.

    The unit of the streaming update workload: movement generators emit
    them, :meth:`repro.index.composite.CompositeIndex.update_objects`
    absorbs them in batches, and the continuous query monitor consumes
    the absorbed results.
    """

    object_id: str
    new_region: Circle
    new_instances: InstanceSet


@dataclass
class ObjectPopulation:
    """The object set ``O`` living inside one space."""

    space: IndoorSpace
    grid: PartitionGrid | None = None
    _objects: dict[str, UncertainObject] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid is None:
            self.grid = PartitionGrid.build(self.space)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self._objects.values())

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def ids(self) -> list[str]:
        return list(self._objects)

    def get(self, object_id: str) -> UncertainObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise ReproError(f"unknown object {object_id!r}") from None

    # ------------------------------------------------------------------

    def insert(self, obj: UncertainObject) -> UncertainObject:
        if obj.object_id in self._objects:
            raise ReproError(f"duplicate object id {obj.object_id!r}")
        self._objects[obj.object_id] = obj
        return obj

    def delete(self, object_id: str) -> UncertainObject:
        obj = self._objects.pop(object_id, None)
        if obj is None:
            raise ReproError(f"unknown object {object_id!r}")
        return obj

    def move(
        self, object_id: str, new_region: Circle, new_instances
    ) -> UncertainObject:
        """Replace an object's location (delete + insert semantics,
        Section III-C.2), keeping its identity."""
        old = self.delete(object_id)
        moved = UncertainObject(old.object_id, new_region, new_instances)
        return self.insert(moved)

    # ------------------------------------------------------------------

    def on_floor(self, floor: int) -> list[UncertainObject]:
        return [o for o in self if o.floor == floor]
