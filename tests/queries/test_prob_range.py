"""Tests for the probabilistic-threshold range query (iPRQ)."""

import pytest

from repro.errors import QueryError
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import QueryStats, iPRQ
from repro.reference import NaiveEvaluator, qualifying_probability


@pytest.fixture(scope="module")
def setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=4.0, n_instances=20, seed=111)
    pop = gen.generate(60)
    index = CompositeIndex.build(small_mall, pop)
    oracle = NaiveEvaluator(small_mall, pop)
    return index, oracle, pop


def oracle_iprq(oracle, index, q, r, theta):
    """Reference evaluation: per-instance distances via the full graph."""
    out = set()
    dd = oracle.graph.dijkstra_from_point(q)
    for obj in index.population:
        prob = qualifying_probability(
            q, obj, dd, index.space, r, index.population.grid
        )
        if prob >= theta:
            out.add(obj.object_id)
    return out


class TestCorrectness:
    @pytest.mark.parametrize(
        "seed,r,theta",
        [(1, 30.0, 0.5), (2, 50.0, 0.9), (3, 40.0, 0.1), (4, 60.0, 1.0)],
    )
    def test_matches_reference(self, setup, small_mall, seed, r, theta):
        index, oracle, _ = setup
        q = small_mall.random_point(seed=seed)
        got = iPRQ(q, r, theta, index).ids()
        assert got == oracle_iprq(oracle, index, q, r, theta)

    def test_monotone_in_theta(self, setup, small_mall):
        index, _, _ = setup
        q = small_mall.random_point(seed=5)
        loose = iPRQ(q, 45.0, 0.1, index).ids()
        strict = iPRQ(q, 45.0, 0.9, index).ids()
        assert strict <= loose

    def test_monotone_in_r(self, setup, small_mall):
        index, _, _ = setup
        q = small_mall.random_point(seed=6)
        small = iPRQ(q, 25.0, 0.5, index).ids()
        large = iPRQ(q, 70.0, 0.5, index).ids()
        assert small <= large

    def test_theta_one_means_all_instances(self, setup, small_mall):
        index, oracle, _ = setup
        q = small_mall.random_point(seed=7)
        result = iPRQ(q, 50.0, 1.0, index)
        exact = oracle.all_distances(q)
        dd = oracle.graph.dijkstra_from_point(q)
        for obj in result.objects:
            prob = qualifying_probability(
                q, obj, dd, index.space, 50.0, index.population.grid
            )
            assert prob == pytest.approx(1.0)

    def test_probabilities_reported(self, setup, small_mall):
        index, _, _ = setup
        q = small_mall.random_point(seed=8)
        result = iPRQ(q, 45.0, 0.3, index)
        for obj in result.objects:
            prob = result.distances[obj.object_id]
            assert prob is None or 0.3 <= prob <= 1.0


class TestValidation:
    def test_bad_theta(self, setup, small_mall):
        index, _, _ = setup
        q = small_mall.random_point(seed=1)
        with pytest.raises(QueryError):
            iPRQ(q, 10.0, 0.0, index)
        with pytest.raises(QueryError):
            iPRQ(q, 10.0, 1.5, index)

    def test_bad_range(self, setup, small_mall):
        index, _, _ = setup
        with pytest.raises(QueryError):
            iPRQ(small_mall.random_point(seed=1), -2.0, 0.5, index)


class TestStats:
    def test_bounds_do_work(self, setup, small_mall):
        index, _, _ = setup
        q = small_mall.random_point(seed=9)
        stats = QueryStats()
        iPRQ(q, 40.0, 0.5, index, stats=stats)
        decided = stats.accepted_by_bounds + stats.rejected_by_bounds
        assert decided + stats.refined == stats.candidates_after_filtering
