"""Unit tests for the pre-computation baseline."""

import math

import pytest

from repro.reference import NaiveEvaluator, PrecomputedDistanceIndex
from repro.errors import QueryError
from repro.objects import ObjectGenerator
from repro.space import CloseDoor, DoorsGraph


@pytest.fixture(scope="module")
def setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=2.0, n_instances=10, seed=81)
    pop = gen.generate(25)
    pre = PrecomputedDistanceIndex(small_mall, pop)
    oracle = NaiveEvaluator(small_mall, pop)
    return pre, oracle, pop


class TestMatrix:
    def test_self_distance_zero(self, setup, small_mall):
        pre, _, _ = setup
        some = sorted(small_mall.doors)[0]
        assert pre.door_distance(some, some) == 0.0

    def test_matches_fresh_dijkstra(self, setup, small_mall):
        pre, _, _ = setup
        graph = DoorsGraph.from_space(small_mall)
        src = sorted(small_mall.doors)[3]
        fresh = graph.dijkstra_between_doors(src)
        for dst, d in zip(graph.ensure_fresh().door_ids, fresh.tolist()):
            assert pre.door_distance(src, dst) == d

    def test_unknown_door_raises(self, setup):
        pre, _, _ = setup
        with pytest.raises(QueryError):
            pre.door_distance("nope", "nope2")

    def test_build_time_recorded(self, setup):
        pre, _, _ = setup
        assert pre.build_seconds > 0


class TestQueries:
    def test_exact_distance_matches_oracle(self, setup, small_mall):
        pre, oracle, pop = setup
        q = small_mall.random_point(seed=2)
        exact = oracle.all_distances(q)
        for oid in list(pop.ids())[:8]:
            assert pre.exact_distance(q, pop.get(oid)) == pytest.approx(
                exact[oid], rel=1e-9
            )

    def test_range_query_matches_oracle(self, setup, small_mall):
        pre, oracle, _ = setup
        q = small_mall.random_point(seed=3)
        assert pre.range_query(q, 45.0) == oracle.range_query(q, 45.0)

    def test_knn_matches_oracle(self, setup, small_mall):
        pre, oracle, _ = setup
        q = small_mall.random_point(seed=4)
        got = pre.knn_query(q, 8)
        expected = oracle.knn_query(q, 8)
        assert [o for o, _ in got] == [o for o, _ in expected]

    def test_negative_r_rejected(self, setup, small_mall):
        pre, _, _ = setup
        with pytest.raises(QueryError):
            pre.range_query(small_mall.random_point(seed=1), -1.0)


class TestMaintenance:
    def test_rebuild_needed_after_topology_change(self, five_rooms):
        from repro.objects import ObjectPopulation
        pop = ObjectPopulation(five_rooms)
        pre = PrecomputedDistanceIndex(five_rooms, pop)
        before = pre.door_distance("d1", "d3")
        assert math.isfinite(before)
        CloseDoor("d3").apply(five_rooms)
        # Stale matrix still answers with the old value...
        assert pre.door_distance("d1", "d3") == pytest.approx(before)
        # ...until the (expensive) rebuild reflects the change.
        cost = pre.rebuild()
        assert cost > 0
        assert math.isinf(pre.door_distance("d1", "d3"))
