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
leaf buckets, so a bucket that lost an object fools them alike.  Every
probe is therefore also held to the ground truth neither can fake,
Lemma 6 itself: each indexed object whose lower bound to ``q`` is
within ``r`` is a candidate."""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import build_world
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.objects import MovementStream
from repro.space.events import CloseDoor, OpenDoor, SplitPartition
from repro.space.partition import PartitionKind

#: 0 (point location), room scale, one floor's reach (the test malls
#: are 100 m wide with 4 m floors, so this straddles the stairs), the
#: whole venue, and no bound at all.
RADII = (0.0, 12.0, 55.0, 400.0, math.inf)


#: Room-scale radii for the probes standing on an object's instances:
#: small enough that only the unit the instance is in passes.
NEAR_RADII = (0.5, 2.0, 4.0, 8.0)


def _assert_search_agrees(index, space, rng):
    fh = space.floor_height
    indexed = [o for o in index.population if o.object_id in index.otable]
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
    for q, radii in probes:
        bounds = {
            True: [
                index.min_skeleton_distance_to_object(q, o) for o in indexed
            ],
            False: [o.instances.min_distance_to(q, fh) for o in indexed],
        }
        for r in radii:
            for use_skeleton in (True, False):
                got = index.range_search(q, r, use_skeleton)
                want = index.range_search_tree(q, r, use_skeleton)
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
            # Object writes land on the table the previous search built
            # (checked here, row by row); a topology event drops it and
            # the next search rebuilds (checked after).
            assert index.validate() == []
            _assert_search_agrees(index, space, rng)
            assert index.validate() == []

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
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        for batch in stream.batches(40, 20):
            index.update_objects(batch)
        assert index.validate() == []
        for _ in range(3):
            _assert_search_agrees(index, space, rng)
