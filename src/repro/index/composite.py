"""The composite index (Section III, Figure 8) and RangeSearch (Alg. 4).

Ties the four pieces together:

* tree tier (:class:`IndRTree`) — geometric pruning via the skeleton
  distance bound;
* skeleton tier (:class:`SkeletonTier`) — ``M_s2s`` and Lemma 6;
* topological layer (:class:`DoorsGraph` adjacency, derived lazily from
  the space and annotated per partition) — inter-partition links;
* object layer (:class:`OTable` buckets + :class:`HTable` unit mapping),
  mirrored into the columnar :class:`~repro.index.columns.ObjectColumns`
  table that RangeSearch and the bounds kernel read.

Dynamic operations (Section III-C) mutate the layers incrementally; the
doors graph and the columns refresh themselves from the space's
``topology_version``.  Object updates (III-C.2) are batched array code:
the columnar table resolves a whole batch — every unit each region
overlaps, exactly what an indR-tree search returns, plus subregions and
packed rows — before the population, the o-table or the columns are
touched, so an index that has absorbed moves equals a freshly built one
and a batch it cannot hold changes nothing.  The tree serves partition
maintenance, point location and the reference walk
:meth:`~CompositeIndex.range_search_tree`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import IndexError_
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Box3
from repro.index.columns import ObjectColumns
from repro.index.indr import IndexUnit, IndRTree
from repro.index.skeleton import SkeletonTier
from repro.index.tables import HTable, OTable
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
    partitions ``R^p``, plus traversal statistics."""

    objects: list[UncertainObject] = field(default_factory=list)
    partitions: set[str] = field(default_factory=set)
    nodes_visited: int = 0
    units_checked: int = 0


class CompositeIndex:
    """The paper's composite indoor index over a space + population."""

    def __init__(
        self,
        space: IndoorSpace,
        population: ObjectPopulation,
        indr: IndRTree,
        skeleton: SkeletonTier,
        doors_graph: DoorsGraph,
        otable: OTable,
        htable: HTable,
        build_times: dict[str, float],
    ) -> None:
        self.space = space
        self.population = population
        self.indr = indr
        self.skeleton = skeleton
        self.doors_graph = doors_graph
        self.otable = otable
        self.htable = htable
        self.build_times = build_times
        #: Per-object packed state + the flattened leaf level; written
        #: by the object mutation paths below, built on first read.
        self.columns = ObjectColumns(
            space, population, indr, skeleton, otable
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        space: IndoorSpace,
        population: ObjectPopulation | None = None,
        fanout: int = 20,
        t_shape: float = 0.5,
        bulk: bool = True,
    ) -> "CompositeIndex":
        """Build all layers; per-layer wall-clock times are recorded in
        ``build_times`` (Figure 15(b))."""
        if population is None:
            population = ObjectPopulation(space)
        times: dict[str, float] = {}

        t0 = time.perf_counter()
        indr = IndRTree.from_space(space, fanout=fanout, t_shape=t_shape, bulk=bulk)
        times["tree_tier"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        htable = HTable()
        for unit in indr.units.values():
            htable.add(unit.unit_id, unit.partition_id)
        doors_graph = DoorsGraph.from_space(space)
        times["topological_layer"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        skeleton = SkeletonTier(space)
        times["skeleton_tier"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        otable = OTable()
        index = CompositeIndex(
            space, population, indr, skeleton, doors_graph, otable, htable, times
        )
        objects = list(population)
        for obj, units in zip(objects, index.columns.unit_sets(objects)):
            otable.add(obj.object_id, units)
        times["object_layer"] = time.perf_counter() - t0
        return index

    def objects(self) -> Iterable[UncertainObject]:
        """The indexed objects in population insertion order — the
        order a checkpoint records them in (and must, for a restored
        engine to emit deltas in the same order; see
        :mod:`repro.persist.checkpoint`)."""
        return iter(self.population)

    # ------------------------------------------------------------------
    # geometric-layer distances
    # ------------------------------------------------------------------

    def min_skeleton_distance_to_node(self, q: Point, node) -> float:
        """``|q, e|_K^min`` for a tree node (Eq. 10)."""
        lf, uf = self.indr.node_floor_span(node)
        return self.skeleton.min_distance_to_box(q, node.box, lf, uf)

    def min_skeleton_distance_to_unit(self, q: Point, unit: IndexUnit) -> float:
        box = unit.box(self.space.floor_height)
        return self.skeleton.min_distance_to_box(q, box, unit.floor, unit.floor)

    def min_skeleton_distance_to_object(
        self, q: Point, obj: UncertainObject
    ) -> float:
        """``|q, O|_K^min`` over the object's instances."""
        return self.skeleton.min_distance_to_point_set(
            q, obj.instances, obj.floor
        )

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
        interpreter; ``units_checked`` is the number of index units and
        ``nodes_visited`` stays 0 (no tree node is read).  Same
        candidates and partitions as :meth:`range_search_tree`.
        """
        objects, partitions, n_units = self.columns.search(
            q, r, use_skeleton
        )
        return RangeSearchResult(
            objects=objects, partitions=partitions, units_checked=n_units
        )

    def range_search_tree(
        self, q: Point, r: float, use_skeleton: bool = True
    ) -> RangeSearchResult:
        """Algorithm 4 as the paper states it: a stack walk over the
        indR-tree with per-entry bounds.  The reference the columnar
        :meth:`range_search` is tested against, and the source of
        ``nodes_visited`` for the index-cost figure (Figure 15)."""
        result = RangeSearchResult()
        fh = self.space.floor_height
        seen_objects: set[str] = set()
        stack = [self.indr.root]
        while stack:
            node = stack.pop()
            result.nodes_visited += 1
            if node.is_leaf:
                for entry in node.entries:
                    unit: IndexUnit = entry.item
                    result.units_checked += 1
                    if self._node_bound(q, entry.box, unit.floor, unit.floor,
                                        use_skeleton) > r:
                        continue
                    result.partitions.add(unit.partition_id)
                    for object_id in self.otable.objects_in(unit.unit_id):
                        if object_id in seen_objects:
                            continue
                        obj = self.population.get(object_id)
                        if use_skeleton:
                            d = self.min_skeleton_distance_to_object(q, obj)
                        else:
                            d = obj.instances.min_distance_to(q, fh)
                        if d <= r:
                            seen_objects.add(object_id)
                            result.objects.append(obj)
                continue
            for entry in node.entries:
                child = entry.child
                lf, uf = self.indr.node_floor_span(child)
                if self._node_bound(q, entry.box, lf, uf, use_skeleton) <= r:
                    stack.append(child)
        return result

    def _node_bound(
        self, q: Point, box: Box3, lf: int, uf: int, use_skeleton: bool
    ) -> float:
        if use_skeleton:
            return self.skeleton.min_distance_to_box(q, box, lf, uf)
        fh = self.space.floor_height
        # Flattening (dropping the 1 cm vertical extent) is only valid
        # for single-floor boxes; a multi-floor node's z-range must stay
        # intact or upper floors would be wrongly pruned.
        flat = box.flattened() if lf == uf else box
        return flat.min_distance_xyz(q.x, q.y, q.z(fh))

    # ------------------------------------------------------------------
    # point location
    # ------------------------------------------------------------------

    def locate(self, q: Point) -> Partition | None:
        """Tree-based point location (the r = 0 degenerate range query)."""
        unit = self.indr.locate_point(q)
        if unit is None:
            return None
        return self.space.partition(self.htable.partition_of(unit.unit_id))

    # ------------------------------------------------------------------
    # object-layer operations (Section III-C.2)
    # ------------------------------------------------------------------

    def _resolve_units(self, obj: UncertainObject) -> set[str]:
        """Index units overlapping the object's uncertainty region, by
        indR-tree search.  Partition maintenance re-homes objects with
        it; the object update paths compute the same set for a whole
        batch without the tree (:meth:`ObjectColumns.stage`)."""
        units = self.indr.units_overlapping_rect(obj.bounds(), obj.floor)
        out = {u.unit_id for u in units}
        if not out:
            raise IndexError_(
                f"object {obj.object_id!r} overlaps no index unit"
            )
        return out

    def insert_object(self, obj: UncertainObject) -> None:
        """Insert an object (population + o-table + leaf buckets).  An
        object the index cannot hold raises before anything changes."""
        staged = self.columns.stage([obj])
        if obj.object_id not in self.population:
            self.population.insert(obj)
        self.otable.add(obj.object_id, staged.unit_ids[0])
        self.columns.commit(staged)

    def delete_object(self, object_id: str) -> UncertainObject:
        """Delete an object using the o-table (no tree search)."""
        self.otable.remove(object_id)
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
        object's leaf units, its subregions and its packed table rows.
        The o-table is then maintained by set *diffing*
        (:meth:`repro.index.tables.OTable.update`) instead of
        delete+insert, so an object that stays within its leaf units
        costs no bucket churn at all.  Returns the moved objects in
        input order — the continuous query monitor consumes them to
        maintain standing result sets incrementally.

        **Exact.**  The recorded unit set of a moved object is
        :meth:`_resolve_units` of its new region — every same-floor
        unit its instances' bounding rectangle overlaps, door-adjacent
        to the old position or not — so an index that has absorbed any
        number of moves equals :meth:`build` over the same population,
        and Algorithm 4 keeps Lemma 6's "no false negatives" on it.

        **Atomic.**  Every move is resolved before the population, the
        o-table or the columns are touched: an unknown id, a region
        overlapping no index unit and a subregion without probability
        mass all raise here and leave the index exactly as it was — a
        bad batch never leaves a half-applied prefix behind.

        A batch may carry several moves for the same object (a fast
        positioning system can re-observe an object twice within one
        collection window): the *last* move wins and the object is
        diffed/returned exactly once, so consumers never see a stale
        intermediate position.
        """
        otable = self.otable
        population = self.population
        last_write: dict[str, ObjectMove] = {
            move.object_id: move for move in moves
        }
        if not last_write:
            return []
        for object_id in last_write:
            if object_id not in otable or object_id not in population:
                raise IndexError_(f"unknown object {object_id!r}")
        moved_objects = [
            UncertainObject(
                move.object_id, move.new_region, move.new_instances
            )
            for move in last_write.values()
        ]
        staged = self.columns.stage(moved_objects)
        for moved, units in zip(moved_objects, staged.unit_ids):
            population.delete(moved.object_id)
            population.insert(moved)
            otable.update(moved.object_id, units)
        self.columns.commit(staged)
        return moved_objects

    # ------------------------------------------------------------------
    # topological-layer operations (Section III-C.1)
    # ------------------------------------------------------------------

    def insert_partition(self, partition: Partition) -> None:
        """Index a partition that was just added to the space."""
        self.columns.invalidate()
        units = self.indr.insert_partition(partition)
        for unit in units:
            self.htable.add(unit.unit_id, unit.partition_id)
        if partition.kind is PartitionKind.STAIRCASE:
            self.skeleton.rebuild()

    def delete_partition(self, partition_id: str) -> list[str]:
        """Un-index a partition; returns ids of objects that overlapped
        it (their unit sets were re-resolved)."""
        self.columns.invalidate()
        was_staircase = (
            partition_id in self.space.partitions
            and self.space.partition(partition_id).kind
            is PartitionKind.STAIRCASE
        )
        units = self.indr.delete_partition(partition_id)
        affected: set[str] = set()
        for unit in units:
            self.htable.remove_unit(unit.unit_id)
            affected |= self.otable.drop_unit(unit.unit_id)
        for object_id in affected:
            obj = self.population.get(object_id)
            obj.invalidate_subregions()
            remaining = self.otable.units_of(object_id)
            self.otable.remove(object_id)
            try:
                self.otable.add(object_id, self._resolve_units(obj))
            except IndexError_:
                # Object stranded in removed space: keep its remaining
                # units if any, else drop it from the index.
                if remaining:
                    self.otable.add(object_id, remaining)
        if was_staircase:
            self.skeleton.rebuild()
        else:
            # The partition is usually already gone from the space (the
            # event mutates the space first), bumping topology_version —
            # let the skeleton resynchronise from that.
            self.skeleton.ensure_fresh()
        return sorted(affected)

    def apply_event(self, event: TopologyEvent) -> EventResult:
        """Apply a topology event to the space and mirror it here."""
        removed_ids = set()
        self.columns.invalidate()
        result = event.apply(self.space)
        for partition in result.removed_partitions:
            removed_ids.add(partition.partition_id)
            self.delete_partition(partition.partition_id)
        for partition in result.added_partitions:
            self.insert_partition(partition)
        # Re-home objects that sat in replaced partitions.
        for partition in result.added_partitions:
            for unit in self.indr.units_of_partition[partition.partition_id]:
                for object_id in self._objects_needing(unit):
                    obj = self.population.get(object_id)
                    obj.invalidate_subregions()
                    if object_id in self.otable:
                        self.otable.remove(object_id)
                    self.otable.add(object_id, self._resolve_units(obj))
        if result.modified_doors:
            # Doors graph and skeleton refresh lazily off topology_version;
            # nothing structural to do in the tree/object layers.
            self.skeleton.ensure_fresh()
        return result

    def _objects_needing(self, unit: IndexUnit) -> list[str]:
        """Objects whose region overlaps a newly added unit but whose
        o-table entry does not yet reference it."""
        out = []
        for obj in self.population:
            if obj.floor != unit.floor:
                continue
            if not unit.rect.intersects(obj.bounds()):
                continue
            if (
                obj.object_id not in self.otable
                or unit.unit_id not in self.otable.units_of(obj.object_id)
            ):
                out.append(obj.object_id)
        return out

    # ------------------------------------------------------------------

    def validate(self) -> list[str]:
        """Cross-layer consistency check (tests + debugging)."""
        problems = self.indr.tree.validate(check_fill=False)
        for unit_id in self.indr.units:
            if unit_id not in self.htable:
                problems.append(f"unit {unit_id} missing from h-table")
        for obj in self.population:
            if obj.object_id not in self.otable:
                problems.append(f"object {obj.object_id} missing from o-table")
                continue
            for unit_id in self.otable.units_of(obj.object_id):
                if unit_id not in self.indr.units:
                    problems.append(
                        f"object {obj.object_id} references dead unit {unit_id}"
                    )
        if not problems:
            problems = self.columns.validate()
        return problems
