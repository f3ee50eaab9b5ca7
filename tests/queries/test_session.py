"""Tests for query sessions (Dijkstra reuse across related queries)."""

import numpy as np
import pytest

from repro.reference import NaiveEvaluator
from repro.distances.batch import QueryStack
from repro.errors import QueryError
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import QuerySession


@pytest.fixture(scope="module")
def setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=12, seed=121)
    pop = gen.generate(50)
    index = CompositeIndex.build(small_mall, pop)
    oracle = NaiveEvaluator(small_mall, pop)
    return index, oracle


class TestResultEquality:
    def test_irq_same_results(self, setup, small_mall):
        index, oracle = setup
        session = QuerySession(index)
        q = small_mall.random_point(seed=1)
        for r in (20.0, 45.0, 70.0):
            assert session.irq(q, r).ids() == oracle.range_query(q, r)

    def test_iknnq_same_results(self, setup, small_mall):
        index, oracle = setup
        session = QuerySession(index)
        q = small_mall.random_point(seed=2)
        exact = oracle.all_distances(q)
        for k in (3, 8, 15):
            result = session.iknnq(q, k)
            kth = oracle.kth_distance(q, k)
            assert len(result) == k
            for oid in result.ids():
                assert exact[oid] <= kth + 1e-6


class TestReuse:
    def test_cache_hits_accumulate(self, setup, small_mall):
        index, _ = setup
        session = QuerySession(index)
        q = small_mall.random_point(seed=3)
        session.irq(q, 30.0)
        assert (session.hits, session.misses) == (0, 1)
        session.irq(q, 60.0)
        session.iknnq(q, 5)
        assert (session.hits, session.misses) == (2, 1)
        assert session.hit_rate == pytest.approx(2 / 3)

    def test_different_points_miss(self, setup, small_mall):
        index, _ = setup
        session = QuerySession(index)
        session.irq(small_mall.random_point(seed=4), 30.0)
        session.irq(small_mall.random_point(seed=5), 30.0)
        assert session.misses == 2

    def test_topology_change_invalidates(self, setup, small_mall):
        index, _ = setup
        session = QuerySession(index)
        q = small_mall.random_point(seed=6)
        session.irq(q, 30.0)
        small_mall.topology_version += 1  # simulate a change
        session.irq(q, 30.0)
        assert session.misses == 2  # cache was cleared

    def test_session_skips_subgraph_time(self, setup, small_mall):
        from repro.queries import QueryStats
        index, _ = setup
        session = QuerySession(index)
        q = small_mall.random_point(seed=7)
        session.irq(q, 40.0)
        stats = QueryStats()
        session.irq(q, 40.0, stats=stats)
        assert stats.t_subgraph == 0.0  # phase 2 served from the cache

    def test_served_search_counts_as_hit(self, setup, small_mall):
        """The cached search is the kernel's operand itself, so a warm
        standing query reads as hits, not as silence."""
        index, _ = setup
        session = QuerySession(index)
        q = small_mall.random_point(seed=8)
        session.pin(q)
        first = session.door_distances(q)  # pays the search
        assert (session.hits, session.misses) == (0, 1)
        for served in (1, 2, 3):
            assert session.door_distances(q) is first
            assert (session.hits, session.misses) == (served, 1)
        assert session.hit_rate == pytest.approx(3 / 4)
        assert not first.w.flags.writeable  # shared: read-only

    def test_topology_moving_mid_search_searches_again(
        self, setup, small_mall, monkeypatch
    ):
        """A search the topology moved under is over a numbering that
        is gone: the caller gets a search over the current one, and a
        stale search is never stacked."""
        index, _ = setup
        session = QuerySession(index)
        q = small_mall.random_point(seed=9)
        graph = index.doors_graph
        search = graph.dijkstra_from_point
        stale = []

        def moving(*args, **kwargs):
            dd = search(*args, **kwargs)
            if not stale:
                stale.append(dd)
                small_mall.topology_version += 1  # moves mid-search
            return dd

        monkeypatch.setattr(graph, "dijkstra_from_point", moving)
        dd = session.door_distances(q)
        assert dd is not stale[0]
        assert dd.topology_version == small_mall.topology_version
        assert stale[0].topology_version == small_mall.topology_version - 1
        assert np.array_equal(dd.w, stale[0].w)  # no real edit
        assert (session.hits, session.misses) == (0, 2)
        assert session.door_distances(q) is dd
        layout = index.columns.layout()
        assert layout.topology_version == small_mall.topology_version
        QueryStack(layout, [dd], [None])
        with pytest.raises(QueryError, match="topology version"):
            QueryStack(layout, [dd, stale[0]], [None, None])


class TestLRUBound:
    """The unpinned side of the session cache is LRU-bounded
    (``max_unpinned``); pinned standing-query entries are exempt."""

    def _fresh(self, setup, max_unpinned):
        index, _ = setup
        return QuerySession(index, max_unpinned=max_unpinned)

    def test_overflow_evicts_least_recent(self, setup, small_mall):
        session = self._fresh(setup, max_unpinned=2)
        a, b, c = (small_mall.random_point(seed=s) for s in (31, 32, 33))
        session.irq(a, 20.0)
        session.irq(b, 20.0)
        session.irq(c, 20.0)  # over the bound: `a` is the LRU entry
        assert session.cache_size == 2
        assert session.evictions == 1
        session.irq(a, 20.0)  # must re-search
        assert session.misses == 4

    def test_recent_use_refreshes_lru_order(self, setup, small_mall):
        session = self._fresh(setup, max_unpinned=2)
        a, b, c = (small_mall.random_point(seed=s) for s in (34, 35, 36))
        session.irq(a, 20.0)
        session.irq(b, 20.0)
        session.irq(a, 20.0)  # refresh: `b` becomes least recent
        session.irq(c, 20.0)
        session.irq(a, 20.0)  # still cached
        assert session.evictions == 1
        assert (session.hits, session.misses) == (2, 3)

    def test_pinned_entries_exempt_from_bound(self, setup, small_mall):
        session = self._fresh(setup, max_unpinned=1)
        pinned = small_mall.random_point(seed=37)
        session.pin(pinned)
        session.irq(pinned, 20.0)
        for s in (38, 39, 40):  # churn of ad-hoc points
            session.irq(small_mall.random_point(seed=s), 20.0)
        assert session.evictions == 2
        session.irq(pinned, 20.0)  # survived the churn
        assert session.hits == 1
        assert session.cache_size == 2  # the pin + one LRU slot

    def test_pin_eviction_not_counted_as_lru_eviction(
        self, setup, small_mall
    ):
        session = self._fresh(setup, max_unpinned=8)
        q = small_mall.random_point(seed=41)
        session.pin(q)
        session.irq(q, 20.0)
        assert session.unpin(q) is True  # last pin drops the entry
        assert session.evictions == 0
