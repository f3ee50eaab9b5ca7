"""The columnar table's batched write, held to its scalar references.

``CompositeIndex.update_objects`` / ``move_object`` / ``insert_object``
and the table's own rebuild resolve a list of objects in one array pass
(``repro.index.columns._Topology.stage``): index units, subregions,
packed rows, the instances in row order.  The scalar code it replaced
on those paths survives in ``repro.reference`` —
``tree.resolve_units`` (an indR-tree search, the tree packed on demand),
``subregions.subregions`` (the split of ``UncertainObject.pieces``)
and ``pack.pack_block`` — and every comparison here is ``==``, never a
tolerance: a standing result and a one-shot run must not disagree on
a pruning decision.
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Circle, Point, Rect
from repro.geometry.polygon import Polygon
from repro.index import CompositeIndex
from repro.index.columns import _BUILD_CHUNK, _DEAD_SHARE, _State, _Topology
from repro.objects import (
    InstanceSet,
    MovementStream,
    ObjectGenerator,
    ObjectMove,
    ObjectPopulation,
    UncertainObject,
)
from repro.reference.pack import pack_block
from repro.reference.subregions import Subregion, subregions
from repro.reference.tree import range_search_tree, resolve_units
from repro.space import SpaceBuilder
from repro.space.mall import build_mall
from repro.space.partition import PartitionKind


def _twin(obj):
    """The same object as one no index owns: its subregions come from
    the scalar split."""
    return UncertainObject(obj.object_id, obj.region, obj.instances)


def assert_equals_references(idx, objects):
    """``objects`` — live objects of ``idx`` — carry the unit sets and
    table rows the scalar references give: each row's partition, mass
    and instances those of the scalar split's subregion."""
    space, grid = idx.space, idx.population.grid
    twins = [_twin(obj) for obj in objects]
    layout = idx.columns.layout()
    got = idx.columns.block(objects)
    rows = got.rows
    for j, (obj, twin) in enumerate(zip(objects, twins)):
        assert idx.columns.units_of(obj.object_id) == resolve_units(idx, obj)
        ref = subregions(twin, space, grid)
        mine = range(got.obj_offsets[j], got.obj_offsets[j + 1])
        assert [layout.part_ids[rows.part[a]] for a in mine] == [
            s.partition_id for s in ref
        ]
        assert [rows.mass[a] for a in mine] == [s.mass for s in ref]
        for a, t in zip(mine, ref):
            x, y, probs, _ = rows.instances(np.array([a]))
            assert x.tolist() == t.instances.xy[:, 0].tolist()
            assert y.tolist() == t.instances.xy[:, 1].tolist()
            assert probs.tolist() == t.instances.probs.tolist()
            assert rows.floor[a] == t.instances.floor
    want = pack_block(twins, space, grid, layout)
    assert got.ent_door.tolist() == want.ent_door.tolist()
    assert got.ent_min.tolist() == want.ent_min.tolist()
    assert got.ent_max.tolist() == want.ent_max.tolist()
    assert got.row_n.tolist() == want.row_n.tolist()
    assert got.ent_start.tolist() == want.ent_start.tolist()
    assert got.sub_part.tolist() == want.sub_part.tolist()
    assert got.sub_mass == want.sub_mass
    assert got.obj_offsets.tolist() == want.obj_offsets.tolist()


def _located(space, x, y, floor):
    return space.locate(Point(x, y, floor)) is not None


def _random_location(space, gen, rng):
    """A region and an instance set: half the time the generator's
    (instances clipped to the partitions), half the time raw draws in
    the region's bounding square — ragged counts, non-uniform
    probabilities, instances across walls and outside the building."""
    center = space.random_point(rng=rng)
    region = Circle(center, rng.uniform(0.5, 6.0))
    if rng.random() < 0.5:
        return region, gen.sample_instances(region)
    n = rng.randint(1, 12)
    # The centre itself first: the object overlaps the venue at all.
    xy = np.array(
        [[center.x, center.y]]
        + [
            [
                center.x + rng.uniform(-region.radius, region.radius),
                center.y + rng.uniform(-region.radius, region.radius),
            ]
            for _ in range(n - 1)
        ]
    )
    weights = np.array([rng.uniform(0.1, 1.0) for _ in range(n)])
    return region, InstanceSet(xy, center.floor, weights / weights.sum())


def _random_world(seed, n_objects):
    space = build_mall(
        floors=1 + seed % 3,
        bands=2,
        rooms_per_band_side=2 + seed % 2,
        floor_size=100.0,
        hallway_width=4.0,
        stair_size=10.0,
        seed=seed,
    )
    gen = ObjectGenerator(space, radius=3.0, n_instances=6, seed=seed)
    rng = random.Random(seed)
    pop = ObjectPopulation(space, grid=gen.grid)
    for j in range(n_objects):
        location = _random_location(space, gen, rng)
        pop.insert(UncertainObject(f"o{j}", *location))
    return space, gen, rng, pop


class TestBatchedWriteEqualsScalarReferences:
    @given(
        seed=st.integers(0, 10_000), size=st.sampled_from([1, 5, 20])
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_malls(self, seed, size):
        space, gen, rng, pop = _random_world(seed, 24)
        idx = CompositeIndex.build(space, pop)
        idx.columns.layout()  # the rebuild path wrote every row
        assert_equals_references(idx, list(pop))
        ids = sorted(pop.ids())
        for _ in range(3):
            moves = [
                ObjectMove(oid, *_random_location(space, gen, rng))
                for oid in rng.sample(ids, size)
            ]
            moved = idx.update_objects(moves)
            assert [o.object_id for o in moved] == [
                m.object_id for m in moves
            ]
            assert_equals_references(idx, moved)
        new = UncertainObject("new", *_random_location(space, gen, rng))
        idx.insert_object(new)
        one = idx.move_object(ids[0], *_random_location(space, gen, rng))
        assert_equals_references(idx, [new, one])
        assert idx.validate() == []

    def test_a_whole_build_chunk(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=8, seed=2)
        pop = gen.generate(_BUILD_CHUNK + 40)
        idx = CompositeIndex.build(small_mall, pop)
        idx.columns.layout()
        assert_equals_references(idx, list(pop))

    def test_stacked_staircase_shafts_first_id_wins(self, medium_mall):
        """On the middle floor two shafts (0-1 and 1-2) share one
        footprint: both contain the instance, the smaller id owns it."""
        space = medium_mall
        lower = next(
            p
            for p in space.partitions.values()
            if p.kind is PartitionKind.STAIRCASE and p.floor == 0
        )
        upper = next(
            p
            for p in space.partitions.values()
            if p.kind is PartitionKind.STAIRCASE
            and p.floor == 1
            and p.footprint == lower.footprint
        )
        box = lower.bounds
        cx, cy = box.center
        inside = [[cx, cy], [cx + 1.0, cy], [cx, cy - 1.0]]
        # ...and instances around the shaft, in whatever adjoins it.
        around = [
            [x, y]
            for x, y in (
                (box.minx - 1.0, cy), (box.maxx + 1.0, cy),
                (cx, box.miny - 1.0), (cx, box.maxy + 1.0),
            )
            if _located(space, x, y, 1)
        ]
        assert around
        obj = UncertainObject(
            "s",
            Circle(Point(cx, cy, 1), box.width),
            InstanceSet.uniform(np.array(inside + around), 1),
        )
        idx = CompositeIndex.build(space)
        idx.columns.layout()
        idx.insert_object(obj)
        owner, other = sorted([lower.partition_id, upper.partition_id])
        subs = {
            s.partition_id: s
            for s in subregions(obj, space, idx.population.grid)
        }
        assert len(subs) >= 2 and other not in subs
        assert len(subs[owner].instances) == 3
        assert_equals_references(idx, [obj])

    def test_partition_without_an_entry_door(self):
        b = SpaceBuilder()
        b.add_hallway("h", Rect(0, 10, 20, 14))
        b.add_room("r1", Rect(0, 0, 10, 10))
        b.add_room("r2", Rect(10, 0, 20, 10))
        b.connect("r1", "h")
        b.one_way("r2", "r1")  # r2 can be left, never entered
        space = b.build(validate=False)
        assert space.entry_doors("r2") == []
        idx = CompositeIndex.build(space)
        idx.columns.layout()
        closed_in = UncertainObject(
            "in",
            Circle(Point(15, 5, 0), 2.0),
            InstanceSet.uniform(np.array([[15.0, 5.0], [16.0, 4.0]]), 0),
        )
        straddling = UncertainObject(
            "across",
            Circle(Point(10, 5, 0), 3.0),
            InstanceSet.uniform(
                np.array([[8.0, 5.0], [12.0, 5.0], [9.0, 11.0]]), 0
            ),
        )
        idx.insert_object(closed_in)
        idx.insert_object(straddling)
        assert_equals_references(idx, [closed_in, straddling])
        assert idx.validate() == []

    def test_wall_clipped_straggler_takes_the_scalar_route(self, five_rooms):
        """An instance in no partition is attached to the partition of
        the region's centre — or, with the centre in a wall too, to the
        first candidate: the scalar rule, applied to that object only."""
        idx = CompositeIndex.build(five_rooms)
        idx.columns.layout()
        objects = [
            UncertainObject(  # straggler joins the centre's piece
                "edge",
                Circle(Point(5, 1, 0), 3.0),
                InstanceSet.uniform(np.array([[5.0, 1.0], [5.0, -1.0]]), 0),
            ),
            UncertainObject(  # centre's partition holds no instance
                "corner",
                Circle(Point(11, 1, 0), 3.0),
                InstanceSet.uniform(np.array([[9.0, 1.0], [10.5, -1.0]]), 0),
            ),
            UncertainObject(  # ...and sorts before the piece there is
                "reversed",
                Circle(Point(9, 1, 0), 3.0),
                InstanceSet.uniform(np.array([[12.0, 1.0], [9.5, -1.0]]), 0),
            ),
            UncertainObject(  # centre outside too: first candidate
                "out",
                Circle(Point(10, -1, 0), 3.0),
                InstanceSet.uniform(np.array([[9.0, 1.0], [11.0, -0.5]]), 0),
            ),
            UncertainObject(  # a clean neighbour in the same batch
                "clean",
                Circle(Point(10, 5, 0), 3.0),
                InstanceSet.uniform(np.array([[8.0, 5.0], [12.0, 5.0]]), 0),
            ),
        ]
        for obj in objects:
            idx.insert_object(_twin(obj))
        moved = idx.update_objects(
            [ObjectMove(o.object_id, o.region, o.instances) for o in objects]
        )
        grid = idx.population.grid
        assert [
            [s.partition_id for s in subregions(o, five_rooms, grid)]
            for o in moved
        ] == [["r1"], ["r1", "r2"], ["r2", "r1"], ["r1"], ["r1", "r2"]]
        assert_equals_references(idx, moved)

    def test_non_rectangular_footprint_takes_the_scalar_route(self):
        b = SpaceBuilder()
        b.add_hallway("h", Rect(0, 10, 30, 14))
        b.add_room(
            "L",
            Polygon([(0, 0), (20, 0), (20, 5), (10, 5), (10, 10), (0, 10)]),
        )
        b.add_room("r2", Rect(10, 5, 20, 10))  # fills the L's notch
        b.connect("L", "h", at=Point(5, 10, 0))
        b.connect("r2", "h", at=Point(15, 10, 0))
        space = b.build()
        idx = CompositeIndex.build(space)
        idx.columns.layout()
        obj = UncertainObject(
            "o",
            Circle(Point(11, 6, 0), 6.0),
            # (11, 7) is inside L's bounds but not inside L.
            InstanceSet(
                np.array([[9.0, 7.0], [11.0, 7.0], [15.0, 3.0], [12.0, 11.0]]),
                0,
                np.array([0.1, 0.2, 0.3, 0.4]),
            ),
        )
        idx.insert_object(obj)
        subs = subregions(obj, space, idx.population.grid)
        assert [(s.partition_id, len(s.instances)) for s in subs] == [
            ("L", 2), ("h", 1), ("r2", 1),
        ]
        assert_equals_references(idx, [obj])
        assert idx.validate() == []

    def test_duplicate_id_in_one_batch_last_write_wins(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.columns.layout()
        for oid, x in (("a", 5.0), ("b", 25.0)):
            p = Point(x, 5.0, 0)
            idx.insert_object(
                UncertainObject(oid, Circle(p, 1.0), InstanceSet.single(p))
            )

        def move(oid, points):
            xy = np.array(points)
            return ObjectMove(
                oid,
                Circle(Point(*xy.mean(axis=0), 0), 4.0),
                InstanceSet.uniform(xy, 0),
            )

        last = move("a", [[8.0, 5.0], [12.0, 5.0], [9.0, 11.0]])
        moved = idx.update_objects(
            [move("a", [[15.0, 12.0]]), move("b", [[26.0, 5.0]]), last]
        )
        assert [o.object_id for o in moved] == ["a", "b"]
        assert moved[0].instances is last.new_instances
        assert_equals_references(idx, moved)
        found = idx.range_search(Point(9, 5, 0), 50.0).objects
        assert sorted(o.object_id for o in found) == ["a", "b"]
        assert idx.validate() == []


class TestNoPerObjectGeometryOnTheWritePath:
    def test_a_straggler_free_batch_makes_no_scalar_calls(
        self, small_mall, monkeypatch, count_calls
    ):
        """The per-object loops the batched write replaced — one
        ``Rect.intersects`` per (object, unit), one ``InstanceSet``
        copy per subregion, the scalar assignment, a ``Subregion`` per
        piece — cannot come back unnoticed."""
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=20, seed=4)
        pop = gen.generate(80)
        idx = CompositeIndex.build(small_mall, pop)
        idx.columns.layout()
        batch = MovementStream(small_mall, pop, gen, seed=6).next_moves(20)
        intersects = count_calls(Rect, "intersects")
        subset = count_calls(InstanceSet, "subset")
        assign = count_calls(UncertainObject, "pieces")
        built = count_calls(Subregion, "__init__")
        moved = idx.update_objects(batch)
        assert len(moved) == 20
        calls = (intersects, subset, assign, built)
        assert [len(c) for c in calls] == [0, 0, 0, 0]
        monkeypatch.undo()
        assert any(
            len(subregions(o, small_mall, pop.grid)) > 1 for o in moved
        )
        assert_equals_references(idx, moved)

    def test_a_move_stream_computes_no_entrance_legs(
        self, small_mall, count_calls
    ):
        """Legs are filled by the build and then on first read only: a
        stream of moves no search reads never computes one."""
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=20, seed=4)
        pop = gen.generate(80)
        idx = CompositeIndex.build(small_mall, pop)
        idx.columns.layout()
        state = idx.columns._state
        assert not state.legs_stale[: len(state.objects)].any()
        legs = count_calls(_Topology, "legs")
        for batch in MovementStream(small_mall, pop, gen, seed=6).batches(
            10, 20
        ):
            idx.update_objects(batch)
        assert legs == []
        assert state.legs_stale[: len(state.objects)].any()


def _far_floor_point(space, obj):
    """A query point on a floor other than ``obj``'s."""
    rng = random.Random(1)
    while True:
        q = space.random_point(rng=rng)
        if q.floor != obj.floor:
            return q


class TestEntranceLegsOnFirstRead:
    @pytest.fixture
    def world(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=12, seed=8)
        pop = gen.generate(2 * _BUILD_CHUNK + 30)
        idx = CompositeIndex.build(small_mall, pop)
        idx.columns.layout()
        return idx, pop, gen

    def test_a_cross_floor_search_refills_before_reading(
        self, world, small_mall
    ):
        idx, pop, gen = world
        stream = MovementStream(small_mall, pop, gen, seed=9)
        (moved,) = idx.update_objects(stream.next_moves(1))
        idx.columns.layout()  # a read: the queued write lands
        state = idx.columns._state
        slot = state.slot_of[moved.object_id]
        assert state.legs_stale[slot]
        q = _far_floor_point(small_mall, moved)
        found = idx.range_search(q, 1e9).objects
        assert moved in found
        assert not state.legs_stale[slot]
        fh = small_mall.floor_height
        entrances = idx.skeleton.entrances_on_floor(moved.floor)
        assert state.legs[slot, : len(entrances)].tolist() == [
            moved.instances.min_distance_to(e.midpoint, fh)
            for e in entrances
        ]
        for r in (20.0, 60.0, 120.0):
            got = idx.range_search(q, r).objects
            want = range_search_tree(idx, q, r).objects
            assert {o.object_id for o in got} == {o.object_id for o in want}
        assert idx.validate() == []

    def test_refill_passes_are_bounded(self, world, small_mall, count_calls):
        idx, pop, gen = world
        stream = MovementStream(small_mall, pop, gen, seed=10)
        idx.update_objects(stream.next_moves(len(pop)))
        idx.columns.layout()  # a read: the queued write lands
        state = idx.columns._state
        stale = int(state.legs_stale[: len(state.objects)].sum())
        assert stale > 2 * _BUILD_CHUNK
        legs = count_calls(_Topology, "legs")
        q = _far_floor_point(small_mall, next(iter(pop)))
        idx.range_search(q, 1e9)
        sizes = [len(objects) for _, objects, _ in legs]
        assert sizes and max(sizes) <= _BUILD_CHUNK
        # Every far object was refilled once; the near floor's never.
        far = sum(o.floor != q.floor for o in pop)
        assert sum(sizes) == far
        assert not state.legs_stale[
            [state.slot_of[o.object_id] for o in pop if o.floor != q.floor]
        ].any()


class TestBumpAllocatedSpans:
    def test_churn_keeps_spans_dense_and_compacts(self, count_calls):
        """A few hundred random move / insert / delete batches: every
        live span lies below the top and overlaps no other, dead
        entries never outlast a write above a quarter of the live ones
        (so compaction fires), the table validates, and it stays within
        the bound ``docs/operations.md`` states — 1.6x the ``nbytes``
        of a fresh build over the same population."""
        space, gen, rng, pop = _random_world(5, 40)
        idx = CompositeIndex.build(space, pop)
        idx.columns.layout()
        packs = count_calls(_State, "_pack")
        state = idx.columns._state
        fresh = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.1 and len(pop) > 30:
                idx.delete_object(rng.choice(sorted(pop.ids())))
                continue
            if roll < 0.2:
                fresh += 1
                location = _random_location(space, gen, rng)
                idx.insert_object(UncertainObject(f"new{fresh}", *location))
            else:
                idx.update_objects(
                    [
                        ObjectMove(oid, *_random_location(space, gen, rng))
                        for oid in rng.sample(
                            sorted(pop.ids()), rng.randint(1, 8)
                        )
                    ]
                )
            idx.columns.layout()  # a read: the queued writes land
            live = np.fromiter(state.slot_of.values(), dtype=np.intp)
            for start, count, top, in_use in (
                (state.row_start, state.row_count, state.row_top,
                 state.row_live),
                (state.ent_start, state.ent_count, state.ent_top,
                 state.ent_live),
            ):
                held = live[count[live] > 0]
                order = np.argsort(start[held])
                lo = start[held][order]
                hi = lo + count[held][order]
                assert (lo[1:] >= hi[:-1]).all() and (hi <= top).all()
                assert in_use == count[live].sum()
                assert top - in_use <= _DEAD_SHARE * in_use
        assert len(packs) > 0
        assert idx.validate() == []
        twin = ObjectPopulation(space, grid=pop.grid)
        for obj in pop:
            twin.insert(_twin(obj))
        rebuilt = CompositeIndex.build(space, twin)
        rebuilt.columns.layout()
        assert idx.columns.nbytes <= 1.6 * rebuilt.columns.nbytes


def assert_boxes_are_the_instance_bounds(idx):
    """Every held object's stored instance box is ``obj.bounds()``
    (read through the table, so the queued writes land first)."""
    idx.columns.layout()
    state = idx.columns._state
    for obj in idx.population:
        slot = state.slot_of.get(obj.object_id)
        if slot is None:
            continue
        b = obj.bounds()
        assert state.box_lo[slot].tolist() == [b.minx, b.miny]
        assert state.box_hi[slot].tolist() == [b.maxx, b.maxy]


class TestStoredInstanceBox:
    """The search decides most same-floor objects from the instance box
    the write stores; it must be ``obj.bounds()`` after every path that
    writes or rebuilds a slot."""

    def test_every_write_path(self, count_calls):
        space, gen, rng, pop = _random_world(11, 40)
        idx = CompositeIndex.build(space, pop)
        idx.columns.layout()
        assert_boxes_are_the_instance_bounds(idx)
        packs = count_calls(_State, "_pack")
        for _ in range(200):
            idx.update_objects(
                [
                    ObjectMove(oid, *_random_location(space, gen, rng))
                    for oid in rng.sample(sorted(pop.ids()), 8)
                ]
            )
            assert_boxes_are_the_instance_bounds(idx)
            if packs:
                break
        assert packs  # a compaction pass ran
        state = idx.columns._state
        victim = sorted(pop.ids())[5]
        slot = state.slot_of[victim]
        idx.delete_object(victim)
        new = UncertainObject("new", *_random_location(space, gen, rng))
        idx.insert_object(new)
        assert state.slot_of["new"] == slot
        assert_boxes_are_the_instance_bounds(idx)
        assert idx.validate() == []

    def test_rebuild_that_strands_objects(self):
        """A partition deletion strands the objects it held: the rebuild
        frames such a chunk twice and must store the second frame's
        boxes, one per object it keeps."""
        space, gen, rng, pop = _random_world(3, 60)
        idx = CompositeIndex.build(space, pop)
        idx.columns.layout()
        rooms = sorted(
            pid
            for pid, p in space.partitions.items()
            if p.kind is PartitionKind.ROOM
            and idx.columns.partition_objects(pid)
        )
        victim = rooms[0]
        space.remove_partition(victim)
        idx.delete_partition(victim)
        idx.columns.layout()  # the rebuild
        state = idx.columns._state
        assert len(state.slot_of) < len(pop)
        assert_boxes_are_the_instance_bounds(idx)
        assert idx.validate() == []

    def test_validate_reports_a_corrupted_box(self):
        space, gen, rng, pop = _random_world(4, 20)
        idx = CompositeIndex.build(space, pop)
        idx.columns.layout()
        assert idx.validate() == []
        victim = sorted(pop.ids())[2]
        state = idx.columns._state
        state.box_hi[state.slot_of[victim], 1] += 0.5
        assert idx.validate() == [
            f"object {victim}: columns disagree on instance box"
        ]

    def test_validate_reports_a_corrupted_index(self):
        space, gen, rng, pop = _random_world(4, 20)
        idx = CompositeIndex.build(space, pop)
        idx.columns.layout()
        assert idx.validate() == []
        victim = next(
            o
            for o in sorted(pop, key=lambda o: o.object_id)
            if len(np.unique(o.instances.xy, axis=0)) == len(o) > 1
        )
        oid = victim.object_id
        state = idx.columns._state
        span = state.inst_start[state.slot_of[oid]] + np.arange(len(victim))
        good = state.inst_idx[span].copy()
        # Still a permutation, but the rows gathered through it are not
        # the object's subregions.
        state.inst_idx[span] = np.roll(good, 1)
        assert idx.validate() == [
            f"object {oid}: columns disagree on instance rows"
        ]
        # Not a permutation: one instance read twice, one never.
        state.inst_idx[span] = good
        state.inst_idx[span[0]] = good[1]
        assert idx.validate() == [
            f"object {oid}: columns disagree on instance index",
            f"object {oid}: columns disagree on instance rows",
        ]
        state.inst_idx[span] = good
        assert idx.validate() == []


class TestLazySubregion:
    @pytest.fixture
    def wide(self, five_rooms):
        """Three instances: two in r1, one across the wall in r2."""
        obj = UncertainObject(
            "wide",
            Circle(Point(10, 5, 0), 4.0),
            InstanceSet(
                np.array([[8.0, 5.0], [12.0, 5.0], [9.0, 4.0]]),
                0,
                np.array([0.2, 0.5, 0.3]),
            ),
        )
        return obj, subregions(obj, five_rooms)

    def test_copy_is_built_on_first_read_and_only_once(
        self, wide, count_calls
    ):
        obj, (left, right) = wide
        subset = count_calls(InstanceSet, "subset")
        # Everything the prune phase reads is there without a copy.
        assert (left.partition_id, right.partition_id) == ("r1", "r2")
        assert left.mass == float(np.array([0.2, 0.3]).sum())
        assert right.mass == 0.5
        assert left.parent is obj.instances and left.pieces is right.pieces
        assert left.pieces.tolist() == [0, 1, 0]
        assert subset == []
        first = left.instances
        assert len(subset) == 1
        assert left.instances is first and len(subset) == 1
        eager = obj.instances.subset(np.array([True, False, True]))
        assert first.xy.tolist() == eager.xy.tolist()
        assert first.probs.tolist() == eager.probs.tolist()
        assert first.floor == eager.floor
        assert first.mass == left.mass
        assert right.instances.xy.tolist() == [[12.0, 5.0]]

    def test_single_piece_subregion_is_the_instance_set(self, five_rooms):
        p = Point(5, 5, 0)
        obj = UncertainObject("a", Circle(p, 1.0), InstanceSet.single(p))
        (only,) = subregions(obj, five_rooms)
        assert only.instances is obj.instances and only.pieces is None
        assert only.mass == 1.0

    def test_concurrent_first_reads_both_get_the_copy(self, five_rooms):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(50):
                obj = UncertainObject(
                    f"w{round_}",
                    Circle(Point(10, 5, 0), 4.0),
                    InstanceSet.uniform(
                        np.array([[8.0, 5.0], [12.0, 5.0], [9.0, 4.0]]), 0
                    ),
                )
                left = subregions(obj, five_rooms)[0]
                barrier = threading.Barrier(2)
                seen = []

                def read():
                    barrier.wait(timeout=5)
                    seen.append(left.instances)

                threads = [threading.Thread(target=read) for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=5)
                    assert not t.is_alive()
                assert len(seen) == 2
                for got in seen:
                    assert got.xy.tolist() == [[8.0, 5.0], [9.0, 4.0]]
                    assert got.floor == 0
                assert any(left.instances is got for got in seen)
                assert left.instances is left.instances
        finally:
            sys.setswitchinterval(interval)
