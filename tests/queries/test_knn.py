"""ikNNQ tests: result equality (tie-aware) against the naive oracle."""

import math

import pytest

from repro.reference import NaiveEvaluator
from repro.errors import QueryError
from repro.geometry import Point
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import QueryStats, ikNNQ, k_seeds_selection
from repro.queries.engine import locate_source
from repro.queries.knn import SeedExpansion


@pytest.fixture(scope="module")
def mall_setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=15, seed=61)
    pop = gen.generate(70)
    index = CompositeIndex.build(small_mall, pop)
    oracle = NaiveEvaluator(small_mall, pop)
    return index, oracle


def assert_knn_equivalent(result, oracle, q, k):
    """Tie-aware comparison: every returned object's exact distance must
    be <= the oracle's k-th distance, and the result size must match."""
    exact = oracle.all_distances(q)
    kth = oracle.kth_distance(q, k)
    ids = result.ids()
    assert len(ids) == min(k, sum(1 for d in exact.values() if math.isfinite(d)))
    for oid in ids:
        assert exact[oid] <= kth + 1e-6, (oid, exact[oid], kth)


class TestCorrectness:
    @pytest.mark.parametrize("seed,k", [(1, 1), (2, 3), (3, 8), (4, 20), (5, 40)])
    def test_matches_oracle(self, mall_setup, small_mall, seed, k):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=seed)
        result = ikNNQ(q, k, index)
        assert_knn_equivalent(result, oracle, q, k)

    def test_k_exceeds_population(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=6)
        result = ikNNQ(q, 500, index)
        assert result.ids() == {o for o, _ in oracle.knn_query(q, 500)}
        assert len(result) == 70

    def test_without_pruning_same_result(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=7)
        a = ikNNQ(q, 10, index)
        b = ikNNQ(q, 10, index, with_pruning=False)
        assert_knn_equivalent(a, oracle, q, 10)
        assert_knn_equivalent(b, oracle, q, 10)

    def test_without_skeleton_same_result(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=8)
        result = ikNNQ(q, 10, index, use_skeleton=False)
        assert_knn_equivalent(result, oracle, q, 8 + 2)

    def test_k1_is_nearest(self, mall_setup, small_mall):
        index, oracle = mall_setup
        q = small_mall.random_point(seed=9)
        result = ikNNQ(q, 1, index)
        (best_id, best_d) = oracle.knn_query(q, 1)[0]
        got_id = next(iter(result.ids()))
        assert oracle.all_distances(q)[got_id] == pytest.approx(best_d)

    def test_bad_k_rejected(self, mall_setup, small_mall):
        index, _ = mall_setup
        with pytest.raises(QueryError):
            ikNNQ(small_mall.random_point(seed=1), 0, index)

    def test_query_point_outside_rejected(self, mall_setup):
        index, _ = mall_setup
        with pytest.raises(QueryError):
            ikNNQ(Point(999, 999, 0), 5, index)


class TestSeeds:
    def test_seed_selection_returns_k(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=10)
        source = locate_source(index, q)
        seeds, partitions, paths = k_seeds_selection(index, q, 12, source)
        assert len(seeds) >= 12
        assert source in partitions
        assert paths[source][1] == 0.0

    def test_known_paths_are_valid_lengths(self, mall_setup, small_mall):
        """Every known path length must be >= the true indoor distance
        to its arrival point (it is a real path)."""
        index, oracle = mall_setup
        q = small_mall.random_point(seed=11)
        source = locate_source(index, q)
        _, _, paths = k_seeds_selection(index, q, 10, source)
        for pid, (arrival, length) in paths.items():
            if pid == source:
                continue
            true = oracle.graph.indoor_distance(q, arrival)
            assert length >= true - 1e-6

    def test_expansion_is_monotone(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=12)
        source = locate_source(index, q)
        _, small_set, _ = k_seeds_selection(index, q, 3, source)
        _, big_set, _ = k_seeds_selection(index, q, 30, source)
        assert small_set <= big_set

    @pytest.mark.parametrize("q_seed", [14, 15, 16])
    def test_resumed_expansion_is_a_restart(
        self, mall_setup, small_mall, q_seed
    ):
        """ikNNQ widens its seed pool by continuing one expansion; every
        stop must hold the seeds, partitions and paths (arrival point,
        length and order included) a from-scratch selection reaches."""
        index, _ = mall_setup
        q = small_mall.random_point(seed=q_seed)
        source = locate_source(index, q)
        resumed = SeedExpansion(index, q, source)
        for k in (3, 6, 12, 12, 60, 500):
            resumed.extend(k)
            seeds, partitions, paths = k_seeds_selection(index, q, k, source)
            assert [o.object_id for o in resumed.seeds] == [
                o.object_id for o in seeds
            ]
            assert resumed.expanded == partitions
            assert list(resumed.known_paths.items()) == list(paths.items())
            assert set(resumed.arrival_doors) == set(paths) - {source}


class TestStats:
    def test_phase_counters(self, mall_setup, small_mall):
        index, _ = mall_setup
        q = small_mall.random_point(seed=13)
        stats = QueryStats()
        ikNNQ(q, 10, index, stats=stats)
        assert stats.total_objects == 70
        assert stats.result_size == 10
        assert stats.candidates_after_filtering >= 10
        assert stats.total_time > 0

    def test_knn_retrieves_more_partitions_than_small_range(
        self, mall_setup, small_mall
    ):
        """The paper notes ikNNQ needs more partitions than iRQ to find
        enough candidates (Section V-B.2)."""
        from repro.queries import iRQ
        index, _ = mall_setup
        q = small_mall.random_point(seed=14)
        s_knn, s_rq = QueryStats(), QueryStats()
        ikNNQ(q, 30, index, stats=s_knn)
        iRQ(q, 10.0, index, stats=s_rq)
        assert s_knn.partitions_retrieved >= s_rq.partitions_retrieved
