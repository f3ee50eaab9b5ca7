"""Unit tests for the naive exhaustive evaluator."""

import math

import numpy as np
import pytest

from repro.errors import QueryError
from repro.geometry import Circle, Point, Rect
from repro.objects import (
    InstanceSet,
    ObjectGenerator,
    ObjectPopulation,
    UncertainObject,
)
from repro.reference import NaiveEvaluator
from repro.reference import naive as naive_module
from repro.space import CloseDoor, Partition


@pytest.fixture(scope="module")
def setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=2.0, n_instances=10, seed=71)
    pop = gen.generate(30)
    return NaiveEvaluator(small_mall, pop), pop


class TestDistances:
    def test_all_distances_complete(self, setup, small_mall):
        oracle, pop = setup
        q = small_mall.random_point(seed=1)
        d = oracle.all_distances(q)
        assert set(d) == set(pop.ids())
        assert all(v > 0 for v in d.values())

    def test_exact_distance_consistent(self, setup, small_mall):
        oracle, pop = setup
        q = small_mall.random_point(seed=2)
        batch = oracle.all_distances(q)
        obj = pop.get(pop.ids()[0])
        assert oracle.exact_distance(q, obj) == pytest.approx(
            batch[obj.object_id]
        )


class TestQueries:
    def test_range_monotone_in_r(self, setup, small_mall):
        oracle, _ = setup
        q = small_mall.random_point(seed=3)
        small = oracle.range_query(q, 20.0)
        large = oracle.range_query(q, 60.0)
        assert small <= large

    def test_negative_range_rejected(self, setup, small_mall):
        oracle, _ = setup
        with pytest.raises(QueryError):
            oracle.range_query(small_mall.random_point(seed=1), -5.0)

    def test_knn_sorted_and_sized(self, setup, small_mall):
        oracle, _ = setup
        q = small_mall.random_point(seed=4)
        ranked = oracle.knn_query(q, 10)
        assert len(ranked) == 10
        dists = [d for _, d in ranked]
        assert dists == sorted(dists)

    def test_knn_k_too_large(self, setup, small_mall):
        oracle, _ = setup
        q = small_mall.random_point(seed=5)
        assert len(oracle.knn_query(q, 999)) == 30

    def test_bad_k_rejected(self, setup, small_mall):
        oracle, _ = setup
        with pytest.raises(QueryError):
            oracle.knn_query(small_mall.random_point(seed=1), 0)

    def test_kth_distance(self, setup, small_mall):
        oracle, _ = setup
        q = small_mall.random_point(seed=6)
        ranked = oracle.knn_query(q, 5)
        assert oracle.kth_distance(q, 5) == pytest.approx(ranked[-1][1])
        assert oracle.kth_distance(q, 999) == math.inf

    def test_prob_range_searches_once_per_query(
        self, setup, small_mall, count_calls
    ):
        """One full search serves every object, and the answer is the
        per-object :meth:`qualifying_probability` filter."""
        oracle, pop = setup
        q = small_mall.random_point(seed=7)
        expected = {
            obj.object_id
            for obj in pop
            if oracle.qualifying_probability(q, obj, 40.0) >= 0.5
        }
        calls = count_calls(oracle.graph, "dijkstra_from_point")
        assert oracle.prob_range_query(q, 40.0, 0.5) == expected
        assert len(calls) == 1
        assert expected  # the radius reaches someone

    def test_respects_topology_changes(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        pop.insert(UncertainObject(
            "t", Circle(Point(25, 5, 0), 1.0),
            InstanceSet.uniform(np.array([[25.0, 5.0]]), 0),
        ))
        oracle = NaiveEvaluator(five_rooms, pop)
        q = Point(5, 5, 0)
        before = oracle.exact_distance(q, pop.get("t"))
        assert math.isfinite(before)
        CloseDoor("d3").apply(five_rooms)
        after = oracle.exact_distance(q, pop.get("t"))
        assert math.isinf(after)


def _at(oid, *xy, floor=0):
    """An object with one uniform instance per ``(x, y)``, its region
    centred on the first."""
    center = Point(xy[0][0], xy[0][1], floor)
    return UncertainObject(
        oid,
        Circle(center, 30.0),
        InstanceSet.uniform(np.array(xy, dtype=float), floor),
    )


def _partitions(subs):
    return [s.partition_id for s in subs]


class TestSubregionCache:
    """The evaluator owns the subregion split of the objects it
    evaluates: one entry per live id, valid for the very object it was
    made for under the topology it was made at."""

    def test_moved_successor_gets_its_own_subregions(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        before = pop.insert(_at("o", (5.0, 5.0)))
        oracle = NaiveEvaluator(five_rooms, pop)
        q = Point(5.0, 5.0, 0)
        assert _partitions(oracle.subregions(before)) == ["r1"]
        assert oracle.exact_distance(q, before) == 0.0
        after = pop.move("o", Circle(Point(25.0, 5.0, 0), 1.0),
                         InstanceSet.uniform(np.array([[25.0, 5.0]]), 0))
        assert after is not before and after.object_id == "o"
        assert _partitions(oracle.subregions(after)) == ["r3"]
        assert oracle.all_distances(q) == {
            "o": oracle.exact_distance(q, after)
        }
        assert oracle.exact_distance(q, after) > 0.0
        # The predecessor, asked about again, is still its own object.
        assert _partitions(oracle.subregions(before)) == ["r1"]
        assert oracle.exact_distance(q, before) == 0.0
        assert _partitions(oracle.subregions(after)) == ["r3"]

    def test_split_once_per_object(self, five_rooms, count_calls):
        pop = ObjectPopulation(five_rooms)
        obj = pop.insert(_at("o", (8.0, 5.0), (12.0, 5.0)))
        oracle = NaiveEvaluator(five_rooms, pop)
        split = count_calls(naive_module, "subregions")
        q = Point(15.0, 12.0, 0)
        oracle.all_distances(q)
        oracle.range_query(q, 50.0)
        oracle.prob_range_query(q, 50.0, 0.5)
        oracle.exact_distance(q, obj)
        assert len(split) == 1
        assert _partitions(oracle.subregions(obj)) == ["r1", "r2"]

    def test_close_door_resolves_again(self, five_rooms, count_calls):
        pop = ObjectPopulation(five_rooms)
        obj = pop.insert(_at("o", (25.0, 5.0)))
        oracle = NaiveEvaluator(five_rooms, pop)
        first = oracle.subregions(obj)
        assert oracle.subregions(obj) is first
        split = count_calls(naive_module, "subregions")
        CloseDoor("d3").apply(five_rooms)
        again = oracle.subregions(obj)
        assert len(split) == 1 and again is not first
        assert _partitions(again) == ["r3"]
        assert math.isinf(oracle.exact_distance(Point(5.0, 5.0, 0), obj))

    def test_partition_insert_resolves_again(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        # (5, 30) lies in no partition: it rides with the centre's r1.
        obj = pop.insert(_at("o", (5.0, 5.0), (5.0, 30.0)))
        oracle = NaiveEvaluator(five_rooms, pop)
        (only,) = oracle.subregions(obj)
        assert only.partition_id == "r1" and only.mass == 1.0
        five_rooms.add_partition(Partition("r6", Rect(0, 24, 15, 34), 0))
        assert _partitions(oracle.subregions(obj)) == ["r1", "r6"]
        assert [s.mass for s in oracle.subregions(obj)] == [0.5, 0.5]

    def test_at_most_one_entry_per_live_id(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        for i, x in enumerate((5.0, 15.0, 25.0)):
            pop.insert(_at(f"o{i}", (x, 5.0)))
        oracle = NaiveEvaluator(five_rooms, pop)
        q = Point(15.0, 12.0, 0)
        oracle.all_distances(q)
        assert set(oracle._split) == {"o0", "o1", "o2"}
        pop.move("o1", Circle(Point(5.0, 20.0, 0), 1.0),
                 InstanceSet.uniform(np.array([[5.0, 20.0]]), 0))
        pop.delete("o2")
        # An object the population does not hold is evaluated, not kept.
        oracle.exact_distance(q, _at("stray", (15.0, 5.0)))
        assert "stray" not in oracle._split
        oracle.range_query(q, 100.0)
        assert set(oracle._split) == {"o0", "o1"}
        for oid, (obj, _, _) in oracle._split.items():
            assert pop.get(oid) is obj
