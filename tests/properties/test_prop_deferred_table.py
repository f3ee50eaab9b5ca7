"""The table's queued writes and the block taken from a write's staging.

``ObjectColumns.commit`` claims a batch's slots and queues its rows;
the queue is written, as one batch, by the first reader, by a drop, by
a structural read of a table about to be dropped (``held_in``), by a
batch that repeats a queued object, or before it would pass
``_BUILD_CHUNK`` objects, and a topology change discards it.  The
monitor's read of the batch it is absorbing — ``block(moved)``
straight after the write — is built from that write's staging, with
nothing written or gathered.

A rule-based machine interleaves runs of move batches (an id repeated
inside a batch and across consecutive batches), inserts and deletes,
door closes and opens, a partition delete and re-insert, and one-shot
queries.  After each write of a run, with nothing read in between, the
block of the batch equals field for field the scalar ``pack_block``
(and, when drawn, the block gathered from the table) and refines and
bounds to the same floats, and the queue holds at most
``_BUILD_CHUNK`` objects.  After every step the table validates and
its buckets equal the reference tree walk.  Two readers released by a
barrier after a write both see the whole table.
"""

import math
import random
import threading

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from monitor_world import (
    assert_buckets_are_the_tree_walk,
    assert_same_block,
    build_world,
)

from repro.distances.batch import (
    QueryStack,
    block_expected_distances,
    block_object_bounds,
)
from repro.index.columns import _BUILD_CHUNK, _State
from repro.objects import ObjectMove
from repro.queries import iRQ
from repro.reference import NaiveEvaluator
from repro.reference.pack import pack_block
from repro.reference.tree import range_search_tree, resolve_units
from repro.space.events import CloseDoor, OpenDoor
from repro.space.partition import Partition, PartitionKind


def _location(gen):
    obj = gen.generate_one()
    return obj.region, obj.instances


def _queued(columns) -> int:
    return sum(len(staged.objects) for staged, _ in columns._queued)


def _refined(index, block, searches):
    """Expected distances of every (search, object) pair of ``block``
    and its kernel bounds, per search."""
    fh = index.space.floor_height
    stack = QueryStack(block.layout, searches, [None] * len(searches))
    pairs = [(i, j) for i in range(len(searches)) for j in range(len(block))]
    bounds = block_object_bounds(stack, block, fh)
    return (
        block_expected_distances(
            stack, block.rows, block.obj_offsets, pairs, fh
        ),
        bounds.tmin.tolist(),
        bounds.tmax.tolist(),
    )


class DeferredTableMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 3))
    def build(self, seed):
        self.space, self.gen, self.pop, self.index = build_world(seed, 24)
        self.rng = random.Random(seed)
        self.closed: list[str] = []
        self.previous: list[str] = []

    def _location(self):
        return _location(self.gen)

    def _written(self, moved, gather):
        """The block of a batch straight after its write, against the
        scalar pack and (when ``gather``) the table's gather."""
        columns = self.index.columns
        queued = list(columns._queued)
        block = columns.block(moved)
        assert columns._queued == queued  # nothing written to build it
        assert _queued(columns) <= _BUILD_CHUNK
        packed = pack_block(moved, self.space, self.pop.grid, block.layout)
        assert_same_block(block, packed)
        graph = self.index.doors_graph
        searches = [
            graph.dijkstra_from_point(self.space.random_point(rng=self.rng))
            for _ in range(2)
        ]
        want = _refined(self.index, packed, searches)
        assert _refined(self.index, block, searches) == want
        if gather:
            gathered = columns._gathered_block(moved)
            assert not columns._queued
            assert_same_block(block, gathered)
            assert _refined(self.index, gathered, searches) == want

    @rule(
        sizes=st.lists(st.integers(1, 24), min_size=1, max_size=4),
        repeat=st.booleans(),
        gather=st.booleans(),
    )
    def move_run(self, sizes, repeat, gather):
        """Consecutive batches with nothing read between them; a batch
        may repeat an id of its own and of the batch before it."""
        for size in sizes:
            ids = sorted(self.pop.ids())
            batch = self.rng.sample(ids, min(size, len(ids)))
            if repeat:
                batch += batch[:1] + self.previous[:2]
            moves = [ObjectMove(oid, *self._location()) for oid in batch]
            moved = self.index.update_objects(moves)
            self.previous = [obj.object_id for obj in moved]
            self._written(moved, gather and size % 2 == 0)

    @rule(gather=st.booleans())
    def insert(self, gather):
        obj = self.gen.generate_one()
        self.index.insert_object(obj)
        self._written([obj], gather)

    @rule()
    @precondition(lambda self: len(self.pop) > 12)
    def delete(self):
        victim = self.rng.choice(sorted(self.pop.ids()))
        self.index.delete_object(victim)
        assert not self.index.columns._queued
        # A later run repeats only live ids (moving a deleted one raises).
        self.previous = [oid for oid in self.previous if oid != victim]

    @rule()
    def toggle_door(self):
        if self.closed:
            self.index.apply_event(OpenDoor(self.closed.pop()))
        else:
            door = self.rng.choice(sorted(self.space.doors))
            self.index.apply_event(CloseDoor(door))
            self.closed.append(door)
        assert not self.index.columns._queued

    @rule(moves_between=st.booleans())
    @precondition(lambda self: not self.closed)
    def delete_and_restore_room(self, moves_between):
        """A room leaves the space and the index — the objects it held
        are what the table it drops held, queued writes included — and
        comes back with its doors."""
        space, index = self.space, self.index
        pid = self.rng.choice(
            sorted(
                p.partition_id
                for p in space.partitions.values()
                if p.kind is PartitionKind.ROOM
            )
        )
        partition = space.partitions[pid]
        doors = [space.doors[d] for d in sorted(partition.door_ids)]
        # Queued, not yet written: the drop must count them.
        index.update_objects(
            [
                ObjectMove(oid, *self._location())
                for oid in self.rng.sample(sorted(self.pop.ids()), 2)
            ]
        )
        assert index.columns._queued
        unit_ids = {u.unit_id for u in index.units_of_partition[pid]}
        before = {
            obj.object_id
            for obj in self.pop
            if resolve_units(index, obj) & unit_ids
        }
        space.remove_partition(pid)
        assert set(index.delete_partition(pid)) == before
        if moves_between:
            # To where objects the room did not hold stand (a place
            # drawn afresh might lie in the room, off the map now).
            kept = sorted(set(self.pop.ids()) - before)
            moved = index.update_objects(
                [
                    ObjectMove(oid, there.region, there.instances)
                    for oid, there in zip(
                        self.rng.sample(kept, 3),
                        [self.pop.get(o) for o in self.rng.sample(kept, 3)],
                    )
                ]
            )
            block = index.columns.block(moved)
            assert_same_block(
                block, pack_block(moved, space, self.pop.grid, block.layout)
            )
        space.add_partition(
            Partition(
                pid,
                partition.footprint,
                partition.floor,
                partition.kind,
                upper_floor=partition.upper_floor,
            )
        )
        for door in doors:
            space.add_door(door)
        index.insert_partition(space.partitions[pid])

    @rule(r=st.sampled_from([5.0, 20.0, math.inf]))
    def one_shot(self, r):
        q = self.space.random_point(rng=self.rng)
        oracle = NaiveEvaluator(self.space, self.pop)
        if math.isinf(r):
            r = 1e6
        assert iRQ(q, r, self.index).ids() == oracle.range_query(q, r)

    @invariant()
    def table_is_whole(self):
        assert _queued(self.index.columns) <= _BUILD_CHUNK
        assert self.index.validate() == []
        assert_buckets_are_the_tree_walk(self.index)


DeferredTableMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDeferredTable = DeferredTableMachine.TestCase


def test_queued_writes_coalesce_into_one():
    """Small batches queue until a reader asks: their rows are written
    in one state write, and the first reader sees every one of them."""
    space, gen, pop, index = build_world(2, 40)
    index.columns.layout()
    writes = []
    real = _State.write

    def counted(state, staged, slots, legs=None):
        writes.append(len(staged.objects))
        return real(state, staged, slots, legs)

    _State.write = counted
    try:
        ids = sorted(pop.ids())
        for at in range(0, 30, 5):
            index.update_objects(
                [ObjectMove(oid, *_location(gen)) for oid in ids[at : at + 5]]
            )
        assert writes == []
        assert _queued(index.columns) == 30
        index.columns.layout()
        assert writes == [30]
    finally:
        _State.write = real
    assert index.validate() == []


def test_a_batch_repeating_a_queued_object_writes_the_queue_first():
    space, gen, pop, index = build_world(2, 40)
    index.columns.layout()
    oid = sorted(pop.ids())[0]
    index.update_objects([ObjectMove(oid, *_location(gen))])
    first = pop.get(oid)
    assert _queued(index.columns) == 1
    index.update_objects([ObjectMove(oid, *_location(gen))])
    assert _queued(index.columns) == 1  # only the second move
    assert index.columns._state.objects[
        index.columns._state.slot_of[oid]
    ] is pop.get(oid) is not first
    assert index.validate() == []


def test_two_readers_after_a_write_see_the_whole_table():
    """Two readers released together after a write: the first writes
    the queue under the lock (slowly, here), the second waits for it —
    the queue is emptied only once the write has landed — and both
    find every moved object where the reference tree walk puts it."""
    space, gen, pop, index = build_world(3, 40)
    index.columns.layout()
    real = _State.write

    def slow(state, staged, slots, legs=None):
        threading.Event().wait(0.02)
        return real(state, staged, slots, legs)

    _State.write = slow
    try:
        for trial in range(4):
            ids = sorted(pop.ids())
            moved = index.update_objects(
                [
                    ObjectMove(oid, *_location(gen))
                    for oid in random.Random(trial).sample(ids, 10)
                ]
            )
            assert index.columns._queued
            barrier = threading.Barrier(2)
            seen = [None, None]
            q = space.random_point(seed=trial)

            def read(i):
                barrier.wait()
                found = index.range_search(q, 1e9).objects
                seen[i] = (
                    {o.object_id: o for o in found},
                    {
                        o.object_id: index.columns.units_of(o.object_id)
                        for o in moved
                    },
                )

            threads = [
                threading.Thread(target=read, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            want_units = {o.object_id: resolve_units(index, o) for o in moved}
            want = {
                o.object_id for o in range_search_tree(index, q, 1e9).objects
            }
            for found, units in seen:
                assert set(found) == want
                assert all(found[o.object_id] is o for o in moved)
                assert units == want_units
    finally:
        _State.write = real
    assert not index.columns._queued
    assert index.validate() == []


def test_a_batch_above_the_bound_is_written_at_once():
    """A batch of more than ``_BUILD_CHUNK`` objects is written by its
    commit (the queue before it first); its block is still the
    staging's."""
    space, gen, pop, index = build_world(1, 2 * _BUILD_CHUNK)
    index.columns.layout()
    ids = sorted(pop.ids())
    index.update_objects([ObjectMove(ids[0], *_location(gen))])
    assert _queued(index.columns) == 1
    moved = index.update_objects(
        [ObjectMove(oid, *_location(gen)) for oid in ids[1 : _BUILD_CHUNK + 2]]
    )
    assert not index.columns._queued
    block = index.columns.block(moved)
    assert_same_block(block, index.columns._gathered_block(moved))
    assert index.validate() == []
