"""The ``h-table`` of the object layer (Section III-A): an index unit
-> the indoor partition it belongs to (the inverse of decomposition).

The layer's other mapping, the ``o-table`` (object -> the index units it
overlaps, so object deletion never searches the tree), is the unit rows
of the columnar table (:class:`repro.index.columns.ObjectColumns`):
stored once, as integer rows, with each leaf's bucket derived from them
on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IndexError_


@dataclass
class HTable:
    """``{index unit} -> indoor partition`` (and the reverse view)."""

    _unit_to_partition: dict[str, str] = field(default_factory=dict)
    _partition_to_units: dict[str, set[str]] = field(default_factory=dict)

    def add(self, unit_id: str, partition_id: str) -> None:
        if unit_id in self._unit_to_partition:
            raise IndexError_(f"unit {unit_id!r} already mapped")
        self._unit_to_partition[unit_id] = partition_id
        self._partition_to_units.setdefault(partition_id, set()).add(unit_id)

    def remove_unit(self, unit_id: str) -> str:
        partition_id = self._unit_to_partition.pop(unit_id, None)
        if partition_id is None:
            raise IndexError_(f"unknown unit {unit_id!r}")
        units = self._partition_to_units.get(partition_id)
        if units:
            units.discard(unit_id)
            if not units:
                del self._partition_to_units[partition_id]
        return partition_id

    def remove_partition(self, partition_id: str) -> set[str]:
        units = self._partition_to_units.pop(partition_id, set())
        for unit_id in units:
            self._unit_to_partition.pop(unit_id, None)
        return units

    def partition_of(self, unit_id: str) -> str:
        try:
            return self._unit_to_partition[unit_id]
        except KeyError:
            raise IndexError_(f"unknown unit {unit_id!r}") from None

    def units_of(self, partition_id: str) -> set[str]:
        return set(self._partition_to_units.get(partition_id, set()))

    def __len__(self) -> int:
        return len(self._unit_to_partition)

    def __contains__(self, unit_id: str) -> bool:
        return unit_id in self._unit_to_partition
