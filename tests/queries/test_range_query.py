"""iRQ tests: exact result-set equality against the naive oracle."""

import pytest

from repro.reference import NaiveEvaluator
from repro.errors import QueryError
from repro.geometry import Point
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import QueryStats, iRQ


@pytest.fixture(scope="module")
def mall_setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=15, seed=41)
    pop = gen.generate(80)
    index = CompositeIndex.build(small_mall, pop)
    oracle = NaiveEvaluator(small_mall, pop)
    return index, oracle


class TestCorrectness:
    @pytest.mark.parametrize("seed,r", [(1, 20.0), (2, 40.0), (3, 60.0), (4, 90.0)])
    def test_matches_oracle(self, mall_setup, small_mall, seed, r):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=seed)
        got = iRQ(q, r, index).ids()
        assert got == oracle.range_query(q, r)

    def test_without_pruning_same_result(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=5)
        a = iRQ(q, 50.0, index).ids()
        b = iRQ(q, 50.0, index, with_pruning=False).ids()
        assert a == b == oracle.range_query(q, 50.0)

    def test_without_skeleton_same_result(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=6)
        a = iRQ(q, 50.0, index).ids()
        b = iRQ(q, 50.0, index, use_skeleton=False).ids()
        assert a == b

    def test_zero_range(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=7)
        assert iRQ(q, 0.0, index).ids() == oracle.range_query(q, 0.0)

    def test_huge_range_returns_all_reachable(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=8)
        got = iRQ(q, 1e9, index).ids()
        assert got == oracle.range_query(q, 1e9)
        assert len(got) == 80  # connected building: everything reachable

    def test_accepted_by_bounds_have_no_exact_distance(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=9)
        result = iRQ(q, 70.0, index)
        for obj in result.objects:
            d = result.distances[obj.object_id]
            assert d is None or d <= 70.0

    def test_negative_range_rejected(self, mall_setup, small_mall):
        index, _ = mall_setup
        with pytest.raises(QueryError):
            iRQ(small_mall.random_point(seed=1), -1.0, index)

    def test_query_point_outside_rejected(self, mall_setup):
        index, _ = mall_setup
        with pytest.raises(QueryError):
            iRQ(Point(-500, -500, 0), 10.0, index)


class TestStats:
    def test_phase_counters(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=10)
        stats = QueryStats()
        iRQ(q, 40.0, index, stats=stats)
        assert stats.total_objects == 80
        assert stats.candidates_after_filtering <= 80
        assert (
            stats.accepted_by_bounds
            + stats.rejected_by_bounds
            + stats.refined
            == stats.candidates_after_filtering
        )
        assert 0.0 <= stats.filtering_ratio <= 1.0
        assert stats.pruning_ratio >= stats.filtering_ratio - 1e-9
        assert stats.total_time > 0

    def test_filtering_prunes_most_objects_small_range(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=11)
        stats = QueryStats()
        iRQ(q, 15.0, index, stats=stats)
        # A 15 m range in a 120 m building should discard most objects.
        assert stats.filtering_ratio > 0.5

    def test_no_pruning_refines_every_candidate(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=12)
        stats = QueryStats()
        iRQ(q, 40.0, index, with_pruning=False, stats=stats)
        assert stats.refined == stats.candidates_after_filtering
        assert stats.accepted_by_bounds == 0

    def test_result_distances_within_range(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=13)
        result = iRQ(q, 55.0, index)
        exact = oracle.all_distances(q)
        for obj in result.objects:
            assert exact[obj.object_id] <= 55.0 + 1e-6


class TestDynamicConsistency:
    def test_result_tracks_object_insert(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=2.0, n_instances=10, seed=55)
        pop = gen.generate(10)
        index = CompositeIndex.build(small_mall, pop)
        q = small_mall.random_point(seed=56)
        before = iRQ(q, 30.0, index).ids()
        new_obj = gen.generate_one(center=q)
        index.insert_object(new_obj)
        after = iRQ(q, 30.0, index).ids()
        assert after == before | {new_obj.object_id}

    def test_result_tracks_object_delete(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=2.0, n_instances=10, seed=57)
        pop = gen.generate(10)
        index = CompositeIndex.build(small_mall, pop)
        q = small_mall.random_point(seed=58)
        before = iRQ(q, 1e9, index).ids()
        victim = next(iter(before))
        index.delete_object(victim)
        after = iRQ(q, 1e9, index).ids()
        assert after == before - {victim}
