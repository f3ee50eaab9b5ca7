"""End-to-end integration: the full pipeline on a 3-floor mall, with
object churn and topology events interleaved with queries."""

import math

import pytest

from repro.reference import NaiveEvaluator
from repro.geometry import Circle
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import QueryStats, iRQ, ikNNQ
from repro.space import CloseDoor, MergePartitions, OpenDoor, SplitPartition


@pytest.fixture(scope="module")
def pipeline(medium_mall):
    gen = ObjectGenerator(medium_mall, radius=5.0, n_instances=12, seed=101)
    pop = gen.generate(150)
    index = CompositeIndex.build(medium_mall, pop)
    return medium_mall, gen, pop, index


class TestFullPipeline:
    def test_index_consistent(self, pipeline):
        _, _, _, index = pipeline
        assert index.validate() == []

    def test_queries_match_oracle_on_three_floors(self, pipeline):
        space, _, pop, index = pipeline
        oracle = NaiveEvaluator(space, pop)
        for seed in (3, 7, 11):
            q = space.random_point(seed=seed)
            assert iRQ(q, 70.0, index).ids() == oracle.range_query(q, 70.0)
            knn = ikNNQ(q, 15, index)
            exact = oracle.all_distances(q)
            kth = oracle.kth_distance(q, 15)
            assert len(knn) == 15
            for oid in knn.ids():
                assert exact[oid] <= kth + 1e-6

    def test_cross_floor_query_uses_staircases(self, pipeline):
        space, _, pop, index = pipeline
        q = space.random_point(seed=13)
        result = iRQ(q, 1e9, index)
        # Everything reachable; distances of other-floor objects exceed
        # the floor height.
        oracle = NaiveEvaluator(space, pop)
        exact = oracle.all_distances(q)
        for obj in pop:
            if obj.floor != q.floor:
                assert exact[obj.object_id] >= space.floor_height

    def test_churn_then_query(self, pipeline):
        space, gen, pop, index = pipeline
        q = space.random_point(seed=17)
        # Insert 10, move 5, delete 5, and stay oracle-consistent.
        added = [gen.generate_one() for _ in range(10)]
        for obj in added:
            index.insert_object(obj)
        for obj in added[:5]:
            target = space.random_point(seed=hash(obj.object_id) % 1000)
            region = Circle(target, 5.0)
            index.move_object(
                obj.object_id, region, gen.sample_instances(region)
            )
        for obj in added[5:]:
            index.delete_object(obj.object_id)
        assert index.validate() == []
        oracle = NaiveEvaluator(space, pop)
        assert iRQ(q, 60.0, index).ids() == oracle.range_query(q, 60.0)
        # Clean up for other tests in the module.
        for obj in added[:5]:
            index.delete_object(obj.object_id)

    def test_topology_event_cycle(self, pipeline):
        space, _, pop, index = pipeline
        q = space.random_point(seed=19)
        before = iRQ(q, 80.0, index).ids()
        room = next(
            pid for pid, p in space.partitions.items()
            if p.kind.value == "room" and p.floor == q.floor
        )
        rect = space.partition(room).footprint
        mid = (rect.minx + rect.maxx) / 2.0
        index.apply_event(SplitPartition(room, axis="x", coord=mid))
        assert index.validate() == []
        oracle = NaiveEvaluator(space, pop)
        assert iRQ(q, 80.0, index).ids() == oracle.range_query(q, 80.0)
        index.apply_event(MergePartitions((f"{room}_a", f"{room}_b"), room))
        assert index.validate() == []
        after = iRQ(q, 80.0, index).ids()
        assert after == before

    def test_door_closure_reroutes(self, pipeline):
        space, _, pop, index = pipeline
        # Close one room door: objects in that room become unreachable.
        room_door = next(
            d for d in space.doors.values()
            if any(
                space.partition(pid).kind.value == "room"
                for pid in d.partitions
            )
        )
        room = next(
            pid for pid in room_door.partitions
            if space.partition(pid).kind.value == "room"
        )
        q = space.random_point(seed=23)
        while space.locate(q).partition_id == room:
            q = space.random_point(seed=hash((q.x, q.y)) % 1000)
        index.apply_event(CloseDoor(room_door.door_id))
        oracle = NaiveEvaluator(space, pop)
        exact = oracle.all_distances(q)
        trapped = [
            obj.object_id for obj in pop
            if obj.overlapped_partitions(space) == [room]
        ]
        for oid in trapped:
            assert math.isinf(exact[oid])
        got = iRQ(q, 1e12, index).ids()
        assert got == {
            oid for oid, d in exact.items() if d <= 1e12
        }
        index.apply_event(OpenDoor(room_door.door_id))

    def test_stats_shape_on_medium_building(self, pipeline):
        space, _, _, index = pipeline
        q = space.random_point(seed=29)
        stats = QueryStats()
        iRQ(q, 50.0, index, stats=stats)
        assert stats.filtering_ratio > 0.3
        assert stats.pruning_ratio >= stats.filtering_ratio - 1e-9
