"""Property: the columnar RangeSearch equals the tree walk.

``CompositeIndex.range_search`` evaluates Algorithm 4 over the index's
columnar table; ``range_search_tree`` is the paper's stack walk over
the indR-tree.  After any interleaving of the index's mutation paths —
move batches, inserts, deletes, door close/open and a
partition-replacing split — both must return the same candidate
objects and the same candidate partitions, for the skeleton bound and
the Euclidean ablation, and the table must still mirror the population
(``CompositeIndex.validate``).

Agreeing with each other is not enough — both searches read the same
unit rows (the tree walk through the bucket CSR derived from them), so
a bucket that lost an object fools them alike.  Every probe is
therefore also held to the ground truth neither can fake, Lemma 6
itself: each indexed object whose lower bound to ``q`` is within ``r``
is a candidate; and after every step each bucket is held to the
inverse of the objects' own indR-tree walks.

The columnar search decides a same-floor object from its stored
instance box where the box lies wholly within or beyond ``r``, and
skips a floor none of whose staircase entrances ``q`` reaches within
``r``.  Both decisions are exact only to the last float, so the probes
include radii equal to an object's min instance distance and to a
floor's nearest entrance reach, one ulp either side of each, query
points on box corners and edges, and an object whose box is within
``r`` while neither of its two instances is; near objects are held to
their min instance distance itself.

A deleted partition strands the objects it held until it is restored
(Fig. 15(c)'s sequence); after the restore every one of them is back in
the table."""

import math
import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import assert_buckets_are_the_tree_walk, build_world
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index import CompositeIndex
from repro.index.columns import _State
from repro.objects import InstanceSet, MovementStream, UncertainObject
from repro.reference import NaiveEvaluator
from repro.reference.tree import (
    min_distance_to_point_set,
    range_search_tree,
    resolve_units,
)
from repro.space.events import CloseDoor, OpenDoor, SplitPartition
from repro.space.partition import Partition, PartitionKind

#: 0 (point location), room scale, one floor's reach (the test malls
#: are 100 m wide with 4 m floors, so this straddles the stairs), the
#: whole venue, and no bound at all.
RADII = (0.0, 12.0, 55.0, 400.0, math.inf)


#: Room-scale radii for the probes standing on an object's instances:
#: small enough that only the unit the instance is in passes.
NEAR_RADII = (0.5, 2.0, 4.0, 8.0)

#: Id of the scripted object :func:`_insert_corner_object` adds.
CORNERS = "corners"


def _around(d):
    """``d`` and its float neighbours toward 0 and toward infinity."""
    return (float(np.nextafter(d, 0.0)), d, float(np.nextafter(d, np.inf)))


def _insert_corner_object(index, space, rng):
    """Two instances at opposite corners of a 2 m square in a room: from
    a free corner of that square its box is within 1 m, neither
    instance is."""
    room = rng.choice(
        sorted(
            p.partition_id
            for p in space.partitions.values()
            if p.kind is PartitionKind.ROOM and isinstance(p.footprint, Rect)
        )
    )
    partition = space.partition(room)
    cx, cy = partition.footprint.center
    xy = np.array([[cx - 1.0, cy - 1.0], [cx + 1.0, cy + 1.0]])
    center = Point(cx, cy, partition.floor)
    index.insert_object(
        UncertainObject(
            CORNERS,
            Circle(center, 1.5),
            InstanceSet(xy, partition.floor, np.array([0.5, 0.5])),
        )
    )


def _boundary_probes(index, space, points, indexed, rng):
    """Probes on the float boundaries of the search's box and floor
    decisions (see the module docstring)."""
    fh = space.floor_height
    probes = []
    q = points[0]
    for obj in rng.sample(indexed, min(2, len(indexed))):
        probes.append((q, _around(obj.instances.min_distance_to(q, fh))))
    for obj in rng.sample(indexed, min(2, len(indexed))):
        b = obj.bounds()
        for x, y in ((b.minx, b.miny), ((b.minx + b.maxx) / 2.0, b.maxy)):
            corner = Point(x, y, obj.floor)
            if space.locate(corner) is not None:
                d = obj.instances.min_distance_to(corner, fh)
                probes.append((corner, _around(d) + NEAR_RADII))
    for obj in indexed:
        if obj.object_id == CORNERS:
            b = obj.bounds()
            corner = Point(b.maxx, b.miny, obj.floor)
            d = obj.instances.min_distance_to(corner, fh)
            probes.append((corner, (d / 2.0,) + _around(d)))
    # r exactly a floor's nearest entrance reach from q: the floor's
    # units touching that entrance pass, so the floor is not skipped.
    skeleton = index.skeleton
    skeleton.ensure_fresh()
    ms2s = skeleton.ms2s
    sqs = skeleton.entrances_on_floor(q.floor)
    for floor, entrances in sorted(skeleton.by_floor.items()):
        if floor == q.floor or not sqs or not entrances:
            continue
        reach = min(
            q.distance(s.midpoint, fh) + float(ms2s[s.index, e.index])
            for s in sqs
            for e in entrances
        )
        probes.append((q, _around(reach)))
    return probes


def _assert_search_agrees(index, space, rng):
    fh = space.floor_height
    indexed = [
        o for o in index.population if index.columns.units_of(o.object_id)
    ]
    points = [space.random_point(rng=rng) for _ in range(3)]
    probes = [(q, RADII) for q in points]
    if indexed:
        # ...plus one standing exactly on an object,
        probes.append((indexed[0].region.center, RADII))
        # ...and some on the outermost instances of a few objects — the
        # ones that reach across a wall into a room the object has no
        # door to, where only that room's bucket can produce it.
        for obj in rng.sample(indexed, min(4, len(indexed))):
            xy = obj.instances.xy
            for i in {int(xy[:, 0].argmin()), int(xy[:, 1].argmax())}:
                q = Point(float(xy[i, 0]), float(xy[i, 1]), obj.floor)
                if space.locate(q) is not None:
                    probes.append((q, NEAR_RADII))
        probes += _boundary_probes(index, space, points, indexed, rng)
    for q, radii in probes:
        bounds = {
            True: [
                min_distance_to_point_set(
                    index.skeleton, q, o.instances, o.floor
                )
                for o in indexed
            ],
            False: [o.instances.min_distance_to(q, fh) for o in indexed],
        }
        exact = {o.object_id: d for o, d in zip(indexed, bounds[False])}
        for r in radii:
            for use_skeleton in (True, False):
                got = index.range_search(q, r, use_skeleton)
                want = range_search_tree(index, q, r, use_skeleton)
                ids = [o.object_id for o in got.objects]
                assert len(ids) == len(set(ids))
                assert set(ids) == {o.object_id for o in want.objects}
                assert all(
                    index.population.get(o.object_id) is o
                    for o in got.objects
                )
                assert got.partitions == want.partitions
                assert got.units_checked == len(index.indr.units)
                assert want.nodes_visited >= 1
                # Lemma 6: no false negatives.
                assert {
                    o.object_id
                    for o, d in zip(indexed, bounds[use_skeleton])
                    if d <= r
                } <= set(ids)
                # A near object is decided by its instances themselves.
                assert all(
                    exact[o.object_id] <= r
                    for o in got.objects
                    if o.floor == q.floor or not use_skeleton
                )


def _split_a_room(index, space, rng):
    """Replace one rectangular room by its two halves."""
    room = rng.choice(
        sorted(
            p.partition_id
            for p in space.partitions.values()
            if p.kind is PartitionKind.ROOM and isinstance(p.footprint, Rect)
        )
    )
    rect = space.partition(room).footprint
    index.apply_event(
        SplitPartition(
            room,
            axis="x",
            coord=(rect.minx + rect.maxx) / 2.0,
            connecting_door=True,
        )
    )


class TestColumnarSearchEqualsTreeWalk:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_after_random_mutations(self, seed):
        space, gen, pop, index = build_world(seed, n_objects=30)
        rng = random.Random(seed ^ 0xC01)
        _insert_corner_object(index, space, rng)
        _assert_search_agrees(index, space, rng)  # builds the table
        assert index.validate() == []
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        closed: list[str] = []
        split_at = rng.randrange(6)
        for step, batch in enumerate(stream.batches(6, 8)):
            index.update_objects(batch)
            action = rng.random()
            if step == split_at:
                _split_a_room(index, space, rng)
            elif action < 0.25:
                if closed and rng.random() < 0.5:
                    index.apply_event(OpenDoor(closed.pop()))
                else:
                    door = rng.choice(sorted(space.doors))
                    if space.door(door).is_open:
                        index.apply_event(CloseDoor(door))
                        closed.append(door)
            elif action < 0.5:
                index.insert_object(gen.generate_one())
            elif action < 0.75 and len(pop) > 10:
                index.delete_object(rng.choice(sorted(pop.ids())))
            else:
                oid = rng.choice(sorted(pop.ids()))
                moved = gen.generate_one()
                index.move_object(oid, moved.region, moved.instances)
            # Object writes land on the table the previous search built;
            # a topology event drops it and this first read rebuilds.
            assert_buckets_are_the_tree_walk(index)
            assert index.validate() == []
            _assert_search_agrees(index, space, rng)

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_after_many_move_batches(self, seed):
        """Moves alone, enough of them that most objects have crossed a
        wall: the buckets must still hold every object for every unit
        its region overlaps (an update that only looked at door-adjacent
        partitions recorded short unit sets, and both searches then
        missed the object from the room across the wall)."""
        space, gen, pop, index = build_world(seed, n_objects=40)
        rng = random.Random(seed ^ 0xB0C)
        _insert_corner_object(index, space, rng)
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        for batch in stream.batches(40, 20):
            index.update_objects(batch)
        assert index.validate() == []
        for _ in range(3):
            _assert_search_agrees(index, space, rng)


class TestBucketsEqualTheTreeWalk:
    def test_scripted_interleaving(self, count_calls):
        """Each path that rewrites or drops the unit rows, at least once:
        moves until a compaction pass ran, a door closed and reopened, a
        split, and a delete whose slot the next insert reuses.  A CSR
        that a write does not invalidate fails the check after it."""
        space, gen, pop, index = build_world(7, n_objects=30)
        rng = random.Random(7)
        packs = count_calls(_State, "_pack")
        assert_buckets_are_the_tree_walk(index)
        stream = MovementStream(space, pop, gen, seed=8)
        for batch in stream.batches(60, 10):
            index.update_objects(batch)
            assert_buckets_are_the_tree_walk(index)
            if packs:
                break
        assert packs
        door = sorted(space.doors)[0]
        for event in (CloseDoor(door), OpenDoor(door)):
            index.apply_event(event)
            assert_buckets_are_the_tree_walk(index)
        _split_a_room(index, space, rng)
        assert_buckets_are_the_tree_walk(index)
        victim = sorted(pop.ids())[3]
        slot = index.columns._state.slot_of[victim]
        index.delete_object(victim)
        assert_buckets_are_the_tree_walk(index)
        new = gen.generate_one()
        index.insert_object(new)
        assert index.columns._state.slot_of[new.object_id] == slot
        assert_buckets_are_the_tree_walk(index)
        for batch in stream.batches(3, 10):
            index.update_objects(batch)
            assert_buckets_are_the_tree_walk(index)
        assert index.validate() == []


def _delete_and_restore(index, space, pids, read_between=False):
    """Fig. 15(c)'s sequence: remove partitions from the space and the
    index, then add the same partitions and doors back."""
    removed = []
    for pid in pids:
        partition = space.partitions[pid]
        doors = [space.doors[d] for d in sorted(partition.door_ids)]
        space.remove_partition(pid)
        index.delete_partition(pid)
        removed.append((partition, doors))
    if read_between:
        # The rebuild in between leaves the stranded objects out.
        assert index.validate() == []
    for partition, doors in removed:
        restored = Partition(
            partition.partition_id,
            partition.footprint,
            partition.floor,
            partition.kind,
            upper_floor=partition.upper_floor,
        )
        space.add_partition(restored)
        for door in doors:
            space.add_door(door)
        index.insert_partition(restored)


class TestStrandedObjectsComeBack:
    def test_object_inside_a_deleted_room(self, five_rooms):
        index = CompositeIndex.build(five_rooms)
        p = Point(15, 5, 0)  # fully inside r2
        index.insert_object(
            UncertainObject("a", Circle(p, 1.0), InstanceSet.single(p))
        )
        _delete_and_restore(index, five_rooms, ["r2"])
        units = index.columns.units_of("a")
        assert {index.htable.partition_of(u) for u in units} == {"r2"}
        found = {o.object_id for o in index.range_search(p, 3.0).objects}
        oracle = NaiveEvaluator(five_rooms, index.population)
        assert found == oracle.range_query(p, 3.0) == {"a"}
        assert index.validate() == []
        index.delete_object("a")
        assert len(index.population) == 0
        assert index.validate() == []

    def test_object_off_the_map_is_out_until_it_comes_back(self, five_rooms):
        index = CompositeIndex.build(five_rooms)
        p = Point(15, 5, 0)
        index.insert_object(
            UncertainObject("a", Circle(p, 1.0), InstanceSet.single(p))
        )
        five_rooms.remove_partition("r2")
        assert index.delete_partition("r2") == ["a"]
        assert index.columns.units_of("a") == set()
        assert index.range_search(Point(5, 5, 0), math.inf).objects == []
        assert index.validate() == []
        index.delete_object("a")  # the population is the truth
        assert "a" not in index.population
        assert index.validate() == []

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mall_rooms_deleted_and_restored(self, seed):
        space, gen, pop, index = build_world(seed, n_objects=40)
        rng = random.Random(seed ^ 0x15C)
        rooms = sorted(
            pid
            for pid, p in space.partitions.items()
            if p.kind is PartitionKind.ROOM
        )
        victims = rng.sample(rooms, min(3, len(rooms)))
        _delete_and_restore(index, space, victims, rng.random() < 0.5)
        assert all(
            index.columns.units_of(o.object_id)
            == resolve_units(index, o)
            != set()
            for o in pop
        )
        assert_buckets_are_the_tree_walk(index)
        assert index.validate() == []
        _assert_search_agrees(index, space, rng)
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        for batch in stream.batches(3, 10):
            index.update_objects(batch)
            assert_buckets_are_the_tree_walk(index)
        _assert_search_agrees(index, space, rng)
