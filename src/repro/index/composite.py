"""The composite index (Section III, Figure 8) and RangeSearch (Alg. 4).

Ties the four pieces together:

* tree tier — the partitions' index units (Algorithm 3; the paper's
  indR-tree holds them in an R*-tree, which only
  :mod:`repro.reference.tree` builds);
* skeleton tier (:class:`SkeletonTier`) — ``M_s2s`` and Lemma 6;
* topological layer (:class:`DoorsGraph` adjacency, derived lazily from
  the space and annotated per partition) — inter-partition links;
* object layer — the columnar
  :class:`~repro.index.columns.ObjectColumns` table, whose unit rows are
  the o-table and whose derived bucket CSR is each leaf's bucket list,
  that RangeSearch and the bounds kernel read.  The paper's h-table
  (unit -> partition) is :attr:`IndexUnit.partition_id`.

Dynamic operations (Section III-C) mutate the layers incrementally; the
doors graph and the columns refresh themselves from the space's
``topology_version``.  Object updates (III-C.2) are batched array code:
the columnar table resolves a whole batch — every unit each region
overlaps, exactly what an indR-tree search returns, plus subregions and
packed rows — before the population or the columns are touched, so an
index that has absorbed moves equals a freshly built one and a batch it
cannot hold changes nothing.  A structural change drops the table and
edits no object's units: the next read resolves every object afresh.
Point location is the population's :class:`~repro.space.grid.
PartitionGrid`, which follows :meth:`IndoorSpace.locate`'s tie rule.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import IndexError_
from repro.geometry.circle import Circle
from repro.geometry.decompose import (
    DEFAULT_T_SHAPE,
    decompose_partition_geometry,
)
from repro.geometry.point import Point
from repro.index.columns import ObjectColumns
from repro.index.indr import IndexUnit
from repro.index.skeleton import SkeletonTier
from repro.objects.instances import InstanceSet
from repro.objects.population import ObjectMove, ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.space.doors_graph import DoorsGraph
from repro.space.events import EventResult, TopologyEvent
from repro.space.floorplan import IndoorSpace
from repro.space.partition import Partition, PartitionKind


@dataclass
class RangeSearchResult:
    """Output of Algorithm 4: candidate objects ``R^o`` and candidate
    partitions ``R^p``, plus the number of index units checked."""

    objects: list[UncertainObject] = field(default_factory=list)
    partitions: set[str] = field(default_factory=set)
    units_checked: int = 0


class CompositeIndex:
    """The paper's composite indoor index over a space + population."""

    def __init__(
        self,
        space: IndoorSpace,
        population: ObjectPopulation,
        skeleton: SkeletonTier,
        doors_graph: DoorsGraph,
        build_times: dict[str, float],
        fanout: int,
        t_shape: float,
    ) -> None:
        self.space = space
        self.population = population
        self.skeleton = skeleton
        self.doors_graph = doors_graph
        self.build_times = build_times
        #: Inert: recorded in checkpoints' index shape and otherwise
        #: ignored — no run path builds the R*-tree it would shape.
        self.fanout = fanout
        self.t_shape = t_shape
        #: The index units (Algorithm 3), by id and by partition.
        self.units: dict[str, IndexUnit] = {}
        self.units_of_partition: dict[str, list[IndexUnit]] = {}
        self._unit_ids = itertools.count(1)
        #: Per-object packed state (the o-table among it) + the
        #: flattened leaf level; written by the object mutation paths
        #: below, rebuilt on the first read after a structural change.
        self.columns = ObjectColumns(
            space, population, self.units, skeleton, doors_graph
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        space: IndoorSpace,
        population: ObjectPopulation | None = None,
        fanout: int = 20,
        t_shape: float = DEFAULT_T_SHAPE,
    ) -> "CompositeIndex":
        """Build all layers; per-layer wall-clock times are recorded in
        ``build_times`` (Figure 15(b); ``tree_tier`` is the unit
        decomposition).  ``fanout`` is inert (see :attr:`fanout`)."""
        if population is None:
            population = ObjectPopulation(space)
        times: dict[str, float] = {}

        t0 = time.perf_counter()
        doors_graph = DoorsGraph.from_space(space)
        times["topological_layer"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        skeleton = SkeletonTier(space)
        times["skeleton_tier"] = time.perf_counter() - t0

        index = CompositeIndex(
            space, population, skeleton, doors_graph, times, fanout, t_shape
        )
        t0 = time.perf_counter()
        for partition in space.partitions.values():
            index._add_units(partition)
        times["tree_tier"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        # Strict: an object off the map raises here.
        index.columns.build()
        times["object_layer"] = time.perf_counter() - t0
        return index

    def objects(self) -> Iterable[UncertainObject]:
        """The indexed objects in population insertion order — the
        order a checkpoint records them in (and must, for a restored
        engine to emit deltas in the same order; see
        :mod:`repro.persist.checkpoint`)."""
        return iter(self.population)

    # ------------------------------------------------------------------
    # RangeSearch (Algorithm 4)
    # ------------------------------------------------------------------

    def range_search(
        self, q: Point, r: float, use_skeleton: bool = True
    ) -> RangeSearchResult:
        """Candidate objects and partitions within skeleton distance
        ``r`` of ``q`` — no false negatives by Lemma 6.

        ``use_skeleton=False`` degrades the bound to the plain
        Euclidean MINDIST (the "withoutSkeleton" ablation of
        Figure 15(a)).

        Evaluated over the columnar table
        (:meth:`repro.index.columns.ObjectColumns.search`): the leaf
        criterion for every index unit at once, then the instance bound
        for every object bucketed in a surviving unit.  Candidates come
        back in ascending slot order — the same order in every
        interpreter; ``units_checked`` is the number of index units.
        Same candidates and partitions as
        :func:`repro.reference.tree.range_search_tree`.
        """
        objects, partitions, n_units = self.columns.search(
            q, r, use_skeleton
        )
        return RangeSearchResult(
            objects=objects, partitions=partitions, units_checked=n_units
        )

    # ------------------------------------------------------------------
    # point location
    # ------------------------------------------------------------------

    def locate(self, q: Point) -> Partition | None:
        """``P(q)`` through the population's partition grid: the
        partition :meth:`IndoorSpace.locate` returns, shared walls
        included."""
        return self.population.grid.locate(q)

    # ------------------------------------------------------------------
    # object-layer operations (Section III-C.2)
    # ------------------------------------------------------------------

    def insert_object(self, obj: UncertainObject) -> None:
        """Insert an object (population + its table row).  An object the
        index cannot hold raises before anything changes."""
        if obj.object_id in self.population:
            raise IndexError_(f"object {obj.object_id!r} already indexed")
        staged = self.columns.stage([obj])
        self.population.insert(obj)
        self.columns.commit(staged)

    def delete_object(self, object_id: str) -> UncertainObject:
        """Delete an object: its table row names its slot (no tree
        search).  An object the table does not hold — stranded off the
        map — leaves the population all the same."""
        if object_id not in self.population:
            raise IndexError_(f"unknown object {object_id!r}")
        self.columns.drop(object_id)
        return self.population.delete(object_id)

    def move_object(
        self,
        object_id: str,
        new_region: Circle,
        new_instances: InstanceSet,
    ) -> UncertainObject:
        """Object update (Section III-C.2): :meth:`update_objects` for
        one move, with the same guarantees."""
        return self.update_objects(
            [ObjectMove(object_id, new_region, new_instances)]
        )[0]

    def update_objects(self, moves: Iterable[ObjectMove]) -> list[UncertainObject]:
        """Absorb a batch of streamed position updates.

        The whole batch is resolved in one array pass over the columnar
        table's topology arrays (:meth:`ObjectColumns.stage`): each
        object's leaf units, its subregions and its packed table rows,
        written by one :meth:`ObjectColumns.commit`.  The unit rows are
        the o-table; no second copy is maintained — the leaf buckets
        are derived from them on the next read that wants them.
        Returns the moved objects in input order — the continuous query
        monitor consumes them to maintain standing result sets
        incrementally.

        **Exact.**  The recorded unit set of a moved object is
        :func:`repro.reference.tree.resolve_units` of its new region —
        every same-floor
        unit its instances' bounding rectangle overlaps, door-adjacent
        to the old position or not — so an index that has absorbed any
        number of moves equals :meth:`build` over the same population,
        and Algorithm 4 keeps Lemma 6's "no false negatives" on it.

        **Atomic.**  Every move is resolved before the population or
        the columns are touched: an unknown id, a region
        overlapping no index unit and a subregion without probability
        mass all raise here and leave the index exactly as it was — a
        bad batch never leaves a half-applied prefix behind.

        A batch may carry several moves for the same object (a fast
        positioning system can re-observe an object twice within one
        collection window): the *last* move wins and the object is
        written/returned exactly once, so consumers never see a stale
        intermediate position.
        """
        population = self.population
        last_write: dict[str, ObjectMove] = {
            move.object_id: move for move in moves
        }
        if not last_write:
            return []
        for object_id in last_write:
            if object_id not in population:
                raise IndexError_(f"unknown object {object_id!r}")
        moved_objects = [
            UncertainObject(
                move.object_id, move.new_region, move.new_instances
            )
            for move in last_write.values()
        ]
        staged = self.columns.stage(moved_objects)
        for moved in moved_objects:
            population.delete(moved.object_id)
            population.insert(moved)
        self.columns.commit(staged)
        return moved_objects

    # ------------------------------------------------------------------
    # topological-layer operations (Section III-C.1)
    # ------------------------------------------------------------------

    def _add_units(self, partition: Partition) -> None:
        """Decompose a partition into index units (Algorithm 3), one
        set per floor of its span."""
        rects = decompose_partition_geometry(partition.footprint, self.t_shape)
        units = [
            IndexUnit(
                f"u{next(self._unit_ids)}", partition.partition_id, rect, floor
            )
            for floor in range(partition.floor, partition.upper_floor + 1)
            for rect in rects
        ]
        for unit in units:
            self.units[unit.unit_id] = unit
        self.units_of_partition[partition.partition_id] = units

    def insert_partition(self, partition: Partition) -> None:
        """Index a partition that was just added to the space (the
        table's rebuild puts the objects over it in its buckets)."""
        if partition.partition_id in self.units_of_partition:
            raise IndexError_(
                f"partition {partition.partition_id!r} already indexed"
            )
        self.columns.invalidate()
        self._add_units(partition)
        if partition.kind is PartitionKind.STAIRCASE:
            self.skeleton.rebuild()

    def delete_partition(self, partition_id: str) -> list[str]:
        """Un-index a partition; returns the ids of the objects its
        units held in the table this drops (none when an earlier
        structural change already dropped it).  The rebuild resolves
        them afresh; one left on no unit is out of the table until it
        moves back onto the map."""
        units = self.units_of_partition.get(partition_id)
        if units is None:
            raise IndexError_(f"partition {partition_id!r} not indexed")
        held = self.columns.held_in([unit.unit_id for unit in units])
        self.columns.invalidate()
        del self.units_of_partition[partition_id]
        for unit in units:
            del self.units[unit.unit_id]
        was_staircase = (
            partition_id in self.space.partitions
            and self.space.partition(partition_id).kind
            is PartitionKind.STAIRCASE
        )
        if was_staircase:
            self.skeleton.rebuild()
        else:
            # The partition is usually already gone from the space (the
            # event mutates the space first), bumping topology_version —
            # let the skeleton resynchronise from that.
            self.skeleton.ensure_fresh()
        return sorted(held)

    def apply_event(self, event: TopologyEvent) -> EventResult:
        """Apply a topology event to the space and mirror it here; the
        next read re-homes every object in the new partitions."""
        self.columns.invalidate()
        result = event.apply(self.space)
        for partition in result.removed_partitions:
            self.delete_partition(partition.partition_id)
        for partition in result.added_partitions:
            self.insert_partition(partition)
        if result.modified_doors:
            # Doors graph and skeleton refresh lazily off topology_version;
            # nothing structural to do in the unit list or object layer.
            self.skeleton.ensure_fresh()
        return result

    # ------------------------------------------------------------------

    def validate(self) -> list[str]:
        """Cross-layer consistency check (tests + debugging): the
        columnar table against the scalar references
        (:meth:`ObjectColumns.validate`)."""
        return self.columns.validate()
