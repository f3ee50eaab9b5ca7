"""Unit tests for the naive exhaustive evaluator."""

import math

import pytest

from repro.baselines import NaiveEvaluator
from repro.errors import QueryError
from repro.geometry import Point
from repro.objects import ObjectGenerator
from repro.space import CloseDoor


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
        import numpy as np
        from repro.geometry import Circle
        from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
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
