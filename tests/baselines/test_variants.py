"""Ablation variants — the ``with_pruning`` / ``use_skeleton`` switches
of iRQ and ikNNQ — must return exactly the same results, only slower
or with different internal statistics."""

import pytest

from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import QueryStats, iRQ, ikNNQ
from repro.reference import NaiveEvaluator

#: The ablations of Figures 14(b)/(d) and 15(a), by their legend names.
WITHOUT_PRUNING = {"with_pruning": False}
EUCLIDEAN_FILTER = {"use_skeleton": False}


@pytest.fixture(scope="module")
def setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=10, seed=91)
    pop = gen.generate(50)
    index = CompositeIndex.build(small_mall, pop)
    oracle = NaiveEvaluator(small_mall, pop)
    return index, oracle


class TestIRQVariants:
    @pytest.mark.parametrize(
        "switch",
        [WITHOUT_PRUNING, EUCLIDEAN_FILTER],
        ids=["irq_without_pruning", "irq_euclidean_filter"],
    )
    def test_same_results(self, setup, small_mall, switch):
        index, oracle = setup
        q = small_mall.random_point(seed=7)
        expected = oracle.range_query(q, 45.0)
        assert iRQ(q, 45.0, index, **switch).ids() == expected

    def test_no_pruning_refines_more(self, setup, small_mall):
        index, _ = setup
        q = small_mall.random_point(seed=8)
        s_with, s_without = QueryStats(), QueryStats()
        iRQ(q, 45.0, index, stats=s_with)
        iRQ(q, 45.0, index, stats=s_without, **WITHOUT_PRUNING)
        assert s_without.refined >= s_with.refined

    def test_euclidean_filter_retrieves_more_partitions(self, setup, small_mall):
        index, _ = setup
        # Cross-floor queries show the skeleton advantage most clearly.
        q = small_mall.random_point(seed=9)
        s_with, s_without = QueryStats(), QueryStats()
        iRQ(q, 45.0, index, stats=s_with)
        iRQ(q, 45.0, index, stats=s_without, **EUCLIDEAN_FILTER)
        assert s_without.partitions_retrieved >= s_with.partitions_retrieved


class TestIKNNQVariants:
    @pytest.mark.parametrize(
        "switch",
        [WITHOUT_PRUNING, EUCLIDEAN_FILTER],
        ids=["iknnq_without_pruning", "iknnq_euclidean_filter"],
    )
    def test_same_results(self, setup, small_mall, switch):
        index, oracle = setup
        q = small_mall.random_point(seed=10)
        k = 12
        exact = oracle.all_distances(q)
        kth = oracle.kth_distance(q, k)
        result = ikNNQ(q, k, index, **switch)
        assert len(result) == k
        for oid in result.ids():
            assert exact[oid] <= kth + 1e-6

    def test_no_pruning_refines_all_candidates(self, setup, small_mall):
        index, _ = setup
        q = small_mall.random_point(seed=11)
        stats = QueryStats()
        ikNNQ(q, 10, index, stats=stats, **WITHOUT_PRUNING)
        assert stats.refined == stats.candidates_after_filtering
