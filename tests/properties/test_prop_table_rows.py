"""The columnar table's instance rows, held to the scalar references.

The table stores each live object's instances in subregion-row order
(``inst_x`` / ``inst_y`` / ``inst_p``, one bump-allocated span per
slot, ``sub_len`` instances per row), and every block — hence every
refinement on the ingest and query paths — reads them there.  After
each path that writes, moves or drops those spans:

* ``validate()`` is empty — it checks each slot's slices against the
  scalar split's pieces (partition order, instance order within a
  piece, ``checked_mass(probs[mask])``);
* block refinement of every held object ``==`` the scalar
  ``expected_indoor_distance``.

The paths: move batches with ragged instance counts until a compaction
pass has run over every column group, a topology rebuild, and a
partition delete + re-insert that strands an object and brings it
back.  A block taken before a compacting write keeps refining to its
pre-write values: a gather copies.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import build_world
from repro.distances.batch import QueryStack, block_expected_distances
from repro.geometry import Circle, Point
from repro.index.columns import _State
from repro.objects import InstanceSet, ObjectMove, UncertainObject
from repro.reference.expected import expected_indoor_distance
from repro.space.events import CloseDoor, OpenDoor
from repro.space.partition import Partition, PartitionKind

GROUPS = {
    ("sub_part", "sub_mass", "sub_len"),
    ("ent_min", "ent_max"),
    ("inst_x", "inst_y", "inst_p"),
}


def _ragged_move(space, gen, rng, object_id):
    """A move to a random spot keeping 1..n of the generator's
    instances: the slot's instance count changes, so its span moves."""
    center = space.random_point(rng=rng)
    region = Circle(center, gen.radius)
    full = gen.sample_instances(region)
    k = rng.randint(1, len(full))
    return ObjectMove(
        object_id, region, InstanceSet.uniform(full.xy[:k], center.floor)
    )


def _held(index):
    """The population objects the table holds (a stranded one is
    out until its partition comes back)."""
    held = index.columns.units_of
    return [o for o in index.population if held(o.object_id)]


def _searches(index, rng, n=2):
    space, graph = index.space, index.doors_graph
    return [
        graph.dijkstra_from_point(space.random_point(rng=rng))
        for _ in range(n)
    ]


def _refine(index, block, searches):
    fh = index.space.floor_height
    pairs = [(0, j) for j in range(len(block))]
    return [
        block_expected_distances(
            QueryStack(block.layout, [dd], [None]),
            block.rows,
            block.obj_offsets,
            pairs,
            fh,
        )
        for dd in searches
    ]


def _scalar(index, objects, searches):
    space, grid = index.space, index.population.grid
    return [
        [
            expected_indoor_distance(dd.source, o, dd, space, grid).value
            for o in objects
        ]
        for dd in searches
    ]


def assert_rows_are_the_references(index, rng):
    assert index.validate() == []
    held = _held(index)
    searches = _searches(index, rng)
    block = index.columns.block(held)
    assert _refine(index, block, searches) == _scalar(index, held, searches)


def _compacting(index, space, gen, rng, ids, groups):
    """Move batches of ``ids`` until a compaction pass has run over
    each column group of ``groups``; returns the groups packed."""
    packed = set()
    original = _State._pack

    def counted(state, start, count, columns):
        packed.add(columns)
        return original(state, start, count, columns)

    with mock.patch.object(_State, "_pack", counted):
        for _ in range(400):
            batch = rng.sample(ids, rng.randint(1, min(6, len(ids))))
            index.update_objects(
                [_ragged_move(space, gen, rng, oid) for oid in batch]
            )
            if groups <= packed:
                break
    return packed


def _pinned_in_a_room(index, space):
    """A room and a new object lying wholly inside it."""
    room = next(
        p
        for pid, p in sorted(space.partitions.items())
        if p.kind is PartitionKind.ROOM
    )
    cx, cy = room.bounds.center
    xy = np.array([[cx, cy], [cx + 0.25, cy], [cx, cy + 0.25]])
    obj = UncertainObject(
        "pinned",
        Circle(Point(cx, cy, room.floor), 0.5),
        InstanceSet.uniform(xy, room.floor),
    )
    index.insert_object(obj)
    return room, obj


class TestInstanceRowsThroughEveryWritePath:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_compaction_rebuild_strand_and_restore(self, seed):
        space, gen, pop, index = build_world(seed, 24)
        rng = random.Random(seed)
        index.columns.layout()
        assert_rows_are_the_references(index, rng)

        ids = sorted(pop.ids())
        assert GROUPS <= _compacting(index, space, gen, rng, ids, GROUPS)
        assert_rows_are_the_references(index, rng)

        # A topology change: the next read rebuilds every row.
        door = sorted(space.doors)[0]
        for event in (CloseDoor(door), OpenDoor(door)):
            index.apply_event(event)
            assert_rows_are_the_references(index, rng)

        # Strand an object with its room, then bring both back.
        room, pinned = _pinned_in_a_room(index, space)
        doors = [space.doors[d] for d in sorted(room.door_ids)]
        space.remove_partition(room.partition_id)
        index.delete_partition(room.partition_id)
        assert_rows_are_the_references(index, rng)
        assert pinned not in _held(index)
        restored = Partition(
            room.partition_id,
            room.footprint,
            room.floor,
            room.kind,
            upper_floor=room.upper_floor,
        )
        space.add_partition(restored)
        for door in doors:
            space.add_door(door)
        index.insert_partition(restored)
        assert_rows_are_the_references(index, rng)
        assert pinned in _held(index)

        # ...and the rows keep up with moves after all of it.
        index.update_objects(
            [_ragged_move(space, gen, rng, oid) for oid in ids[:5]]
        )
        assert_rows_are_the_references(index, rng)


class TestBlockAcrossAWrite:
    def test_a_block_refines_to_its_pre_write_values(self):
        """Compaction moves the live spans down over the dead ones —
        spans a block taken earlier read.  The block holds copies, so
        it refines as before the writes."""
        space, gen, pop, index = build_world(7, 24)
        rng = random.Random(7)
        index.columns.layout()
        held = list(pop)
        searches = _searches(index, rng)
        block = index.columns.block(held)
        before = _refine(index, block, searches)
        assert before == _scalar(index, held, searches)

        state = index.columns._state
        slots = [state.slot_of[o.object_id] for o in held]
        starts = state.inst_start[slots].copy()
        groups = {("inst_x", "inst_y", "inst_p")}
        ids = sorted(pop.ids())
        assert groups <= _compacting(index, space, gen, rng, ids, groups)
        assert not np.array_equal(state.inst_start[slots], starts)
        assert _refine(index, block, searches) == before
