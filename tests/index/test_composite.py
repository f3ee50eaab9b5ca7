"""Unit tests for the composite index (build, RangeSearch, dynamic ops)."""

import numpy as np
import pytest

from monitor_world import assert_buckets_are_the_tree_walk
from repro.errors import IndexError_, ReproError
from repro.geometry import Circle, Point, Rect
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    MovementStream,
    ObjectGenerator,
    ObjectMove,
    ObjectPopulation,
    UncertainObject,
)
from repro.reference.tree import min_distance_to_point_set, resolve_units
from repro.space import DoorsGraph, Partition, SplitPartition, MergePartitions


def point_obj(oid, x, y, floor=0):
    return UncertainObject(
        oid,
        Circle(Point(x, y, floor), 1.0),
        InstanceSet.uniform(np.array([[x, y]]), floor),
    )


@pytest.fixture
def mall_index(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=20, seed=11)
    pop = gen.generate(60)
    return CompositeIndex.build(small_mall, pop)


class TestBuild:
    def test_layers_built(self, mall_index):
        assert len(mall_index.indr) > 0
        assert mall_index.skeleton.num_entrances == 8
        assert all(
            mall_index.columns.units_of(o.object_id)
            for o in mall_index.population
        )
        assert mall_index.validate() == []

    def test_build_times_recorded(self, mall_index):
        assert set(mall_index.build_times) == {
            "tree_tier", "topological_layer", "skeleton_tier", "object_layer",
        }
        assert all(t >= 0 for t in mall_index.build_times.values())

    def test_empty_population(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        assert idx.columns.objects_in(next(iter(idx.indr.units))) == set()
        assert idx.validate() == []


class TestPointLocation:
    def test_locate(self, mall_index, small_mall):
        p = small_mall.random_point(seed=5)
        part = mall_index.locate(p)
        assert part is not None and part.contains_point(p)

    def test_locate_outside(self, mall_index):
        assert mall_index.locate(Point(-100, -100, 0)) is None


class TestRangeSearch:
    def test_no_false_negatives(self, mall_index, small_mall):
        """Every object within true indoor distance r must be returned
        (Lemma 6 guarantee)."""
        graph = DoorsGraph.from_space(small_mall)
        q = small_mall.random_point(seed=21)
        r = 40.0
        result = mall_index.range_search(q, r)
        got = {o.object_id for o in result.objects}
        for obj in mall_index.population:
            # Min indoor distance to any instance lower-bounds the
            # expected distance; check candidates cover everything whose
            # *skeleton* min distance is within r.
            d = min_distance_to_point_set(
                mall_index.skeleton, q, obj.instances, obj.floor
            )
            if d <= r:
                assert obj.object_id in got

    def test_r_zero_degenerates_to_point_location(self, mall_index, small_mall):
        q = small_mall.random_point(seed=22)
        result = mall_index.range_search(q, 0.0)
        pid = mall_index.locate(q).partition_id
        assert pid in result.partitions

    def test_without_skeleton_retrieves_more(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=10, seed=12)
        idx = CompositeIndex.build(small_mall, gen.generate(40))
        q = small_mall.random_point(seed=23)
        r = 50.0
        with_sk = idx.range_search(q, r, use_skeleton=True)
        without_sk = idx.range_search(q, r, use_skeleton=False)
        assert len(without_sk.partitions) >= len(with_sk.partitions)
        assert {o.object_id for o in with_sk.objects} <= {
            o.object_id for o in without_sk.objects
        }

    def test_big_radius_returns_everything(self, mall_index):
        q = mall_index.space.random_point(seed=24)
        result = mall_index.range_search(q, 1e6)
        assert len(result.objects) == 60


class TestObjectOps:
    def test_insert_object(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))
        units = idx.columns.units_of("a")
        assert units and all(idx.htable.partition_of(u) == "r1" for u in units)

    def test_delete_object(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))
        idx.delete_object("a")
        assert idx.columns.units_of("a") == set()
        assert len(idx.population) == 0

    def test_move_object_adjacent(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))  # r1
        # Move into the hallway (adjacent to r1).
        idx.move_object(
            "a",
            Circle(Point(15, 12, 0), 1.0),
            InstanceSet.uniform(np.array([[15.0, 12.0]]), 0),
        )
        units = idx.columns.units_of("a")
        assert {idx.htable.partition_of(u) for u in units} == {"h"}

    def test_move_object_teleport_falls_back(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))  # r1
        # Jump to r5, which is not adjacent to r1: resolved all the same.
        idx.move_object(
            "a",
            Circle(Point(25, 20, 0), 1.0),
            InstanceSet.uniform(np.array([[25.0, 20.0]]), 0),
        )
        units = idx.columns.units_of("a")
        assert {idx.htable.partition_of(u) for u in units} == {"r5"}

    def test_update_objects_dedupes_duplicate_moves(self, five_rooms):
        """A batch carrying several moves for one object applies
        last-write-wins and diffs the object exactly once."""
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))  # r1
        moves = [
            ObjectMove(
                "a",
                Circle(Point(15, 12, 0), 1.0),
                InstanceSet.uniform(np.array([[15.0, 12.0]]), 0),
            ),
            ObjectMove(  # last write: back into r1
                "a",
                Circle(Point(6, 5, 0), 1.0),
                InstanceSet.uniform(np.array([[6.0, 5.0]]), 0),
            ),
        ]
        moved = idx.update_objects(moves)
        assert [obj.object_id for obj in moved] == ["a"]
        assert idx.population.get("a").region.center == Point(6.0, 5.0, 0)
        units = idx.columns.units_of("a")
        assert {idx.htable.partition_of(u) for u in units} == {"r1"}
        assert not idx.validate()

    def test_straddling_object_in_multiple_buckets(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        obj = UncertainObject(
            "wide",
            Circle(Point(10, 5, 0), 4.0),
            InstanceSet.uniform(np.array([[8.0, 5.0], [12.0, 5.0]]), 0),
        )
        idx.insert_object(obj)
        pids = {
            idx.htable.partition_of(u) for u in idx.columns.units_of("wide")
        }
        assert {"r1", "r2"} <= pids


class TestOTableLookups:
    """The paper's two o-table lookups, read off the table's unit rows
    (object -> units) and the bucket CSR derived from them (unit ->
    objects) — no second copy to keep in step."""

    def test_views_follow_inserts_moves_and_deletes(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))  # r1
        wide = UncertainObject(
            "wide",
            Circle(Point(10, 5, 0), 4.0),
            InstanceSet.uniform(np.array([[8.0, 5.0], [12.0, 5.0]]), 0),
        )
        idx.insert_object(wide)
        r1 = idx.columns.units_of("a")
        for unit_id in r1:
            assert "a" in idx.columns.objects_in(unit_id)
        for unit_id in idx.columns.units_of("wide"):
            assert "wide" in idx.columns.objects_in(unit_id)
        with pytest.raises(IndexError_):
            idx.insert_object(point_obj("a", 6, 6))
        idx.move_object(
            "a",
            Circle(Point(25, 20, 0), 1.0),
            InstanceSet.uniform(np.array([[25.0, 20.0]]), 0),
        )
        assert all("a" not in idx.columns.objects_in(u) for u in r1)
        r5 = idx.columns.units_of("a")
        assert {idx.htable.partition_of(u) for u in r5} == {"r5"}
        idx.delete_object("a")
        assert idx.columns.units_of("a") == set()
        assert all("a" not in idx.columns.objects_in(u) for u in r5)
        with pytest.raises(IndexError_):
            idx.delete_object("a")
        assert idx.columns.objects_in("no such unit") == set()
        assert_buckets_are_the_tree_walk(idx)
        assert idx.validate() == []


def _block_arrays(idx, objects):
    block = idx.columns.block(objects)
    return [
        a.tolist()
        for a in (
            block.ent_door,
            block.ent_min,
            block.ent_max,
            block.row_n,
            block.sub_part,
            block.obj_offsets,
        )
    ] + [block.sub_mass]


def _snapshot(idx):
    """Everything an object update writes: population order and object
    identity, the unit rows (the o-table), the columnar rows."""
    objects = list(idx.population)
    return (
        [(o.object_id, id(o)) for o in objects],
        {o.object_id: idx.columns.units_of(o.object_id) for o in objects},
        _block_arrays(idx, objects),
    )


def _move(oid, points, probs=None, floor=0):
    xy = np.array(points, dtype=float)
    if probs is None:
        instances = InstanceSet.uniform(xy, floor)
    else:
        instances = InstanceSet(xy, floor, np.array(probs))
    cx, cy = xy.mean(axis=0)
    return ObjectMove(oid, Circle(Point(cx, cy, floor), 5.0), instances)


class TestUpdateObjectsIsAtomic:
    """A batch whose *last* move cannot be applied raises and leaves
    the population, the columns and every object's
    identity exactly as they were — the good moves before it included."""

    @pytest.fixture
    def idx(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))
        idx.insert_object(point_obj("b", 25, 5))
        idx.columns.layout()  # the table is built: writes land on it
        return idx

    @pytest.mark.parametrize(
        "bad, error",
        [
            # A valid instance set whose zero-probability instance is
            # the only one in the neighbouring room r2.
            (_move("b", [[8.0, 5.0], [12.0, 5.0]], [1.0, 0.0]), ReproError),
            # A region overlapping no index unit.
            (_move("b", [[100.0, 100.0]]), IndexError_),
            (_move("ghost", [[5.0, 5.0]]), IndexError_),
        ],
        ids=["zero-mass subregion", "no index unit", "unknown id"],
    )
    def test_failing_batch_changes_nothing(self, idx, bad, error):
        before = _snapshot(idx)
        good = _move("a", [[15.0, 12.0], [16.0, 12.0]])
        with pytest.raises(error):
            idx.update_objects([good, bad])
        assert _snapshot(idx) == before
        assert idx.validate() == []
        # The same good move on its own goes through.
        idx.update_objects([good])
        assert idx.population.get("a").region is good.new_region
        assert idx.validate() == []

    def test_failing_insert_changes_nothing(self, idx):
        before = _snapshot(idx)
        with pytest.raises(IndexError_):
            idx.insert_object(point_obj("c", 100, 100))
        assert _snapshot(idx) == before
        assert idx.validate() == []


class TestMovedIndexEqualsBuild:
    def test_units_and_rows_after_many_move_batches(self):
        """Rooms in a mall share door-less walls, and an uncertainty
        region overlaps the room across the wall.  After any number of
        move batches every object is bucketed in *every* unit its region
        overlaps — the set a tree search gives — and the index is the
        one ``CompositeIndex.build`` makes over the same population."""
        from repro.space.mall import build_mall

        space = build_mall(
            floors=2, bands=2, rooms_per_band_side=3, floor_size=100.0,
            hallway_width=4.0, stair_size=10.0, seed=3,
        )
        gen = ObjectGenerator(space, radius=4.0, n_instances=12, seed=5)
        pop = gen.generate(60)
        idx = CompositeIndex.build(space, pop)
        idx.columns.layout()
        stream = MovementStream(space, pop, gen, seed=9)
        for batch in stream.batches(45, 20):
            idx.update_objects(batch)
            assert_buckets_are_the_tree_walk(idx)
        assert idx.validate() == []
        for obj in pop:
            units = idx.columns.units_of(obj.object_id)
            assert units == resolve_units(idx, obj)

        copy = ObjectPopulation(space, grid=pop.grid)
        for obj in pop:
            copy.insert(
                UncertainObject(obj.object_id, obj.region, obj.instances)
            )
        fresh = CompositeIndex.build(space, copy)
        for obj in pop:
            oid = obj.object_id
            assert idx.columns.units_of(oid) == fresh.columns.units_of(oid)
            assert _block_arrays(idx, [obj]) == _block_arrays(
                fresh, [copy.get(oid)]
            )


class TestTopologyOps:
    def test_insert_partition(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        new = Partition("annex", Rect(30, 0, 40, 10), 0)
        five_rooms.add_partition(new)
        idx.insert_partition(new)
        assert idx.locate(Point(35, 5, 0)).partition_id == "annex"
        assert idx.validate() == []

    def test_delete_partition_reresolves_objects(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        obj = UncertainObject(
            "wide",
            Circle(Point(10, 5, 0), 4.0),
            InstanceSet.uniform(np.array([[8.0, 5.0], [12.0, 5.0]]), 0),
        )
        idx.insert_object(obj)
        affected = idx.delete_partition("r2")
        assert affected == ["wide"]
        pids = {
            idx.htable.partition_of(u) for u in idx.columns.units_of("wide")
        }
        assert pids == {"r1"}

    def test_apply_split_event(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))  # in r1
        idx.apply_event(SplitPartition("r1", axis="x", coord=5.0))
        assert idx.locate(Point(2, 5, 0)).partition_id == "r1_a"
        assert idx.locate(Point(8, 5, 0)).partition_id == "r1_b"
        # The object sat at x=5: it must live in exactly the units of the
        # half containing it.
        pids = {idx.htable.partition_of(u) for u in idx.columns.units_of("a")}
        assert pids <= {"r1_a", "r1_b"}
        assert idx.validate() == []

    def test_apply_merge_event(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        idx.insert_object(point_obj("a", 5, 5))
        idx.apply_event(SplitPartition("r1", axis="x", coord=5.0))
        idx.apply_event(MergePartitions(("r1_a", "r1_b"), "r1"))
        assert idx.locate(Point(2, 5, 0)).partition_id == "r1"
        pids = {idx.htable.partition_of(u) for u in idx.columns.units_of("a")}
        assert pids == {"r1"}
        assert idx.validate() == []

    def test_staircase_delete_refreshes_skeleton(self, two_floor_space):
        idx = CompositeIndex.build(two_floor_space)
        assert idx.skeleton.num_entrances == 2
        two_floor_space.remove_partition("stair")
        idx.delete_partition("stair")
        assert idx.skeleton.num_entrances == 0
