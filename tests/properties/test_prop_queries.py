"""Property tests for the query processors: randomized queries must
agree with the naive oracle (iRQ: exact set equality; ikNNQ: tie-aware
equivalence), and the envelope-first prune must decide every candidate
as a prune that builds every exact interval does."""

import bisect
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import (
    QuerySession,
    QueryStats,
    iRQ,
    ikNNQ,
    k_seeds_selection,
)
from repro.queries.engine import locate_source, subgraph_phase
from repro.reference import (
    NaiveEvaluator,
    object_bounds,
    subregions,
    topological_looser_upper_bound,
)
from repro.space.events import CloseDoor
from repro.space.mall import build_mall


@pytest.fixture(scope="module")
def world():
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=3, floor_size=120.0,
        hallway_width=4.0, stair_size=10.0, seed=9,
    )
    pop = ObjectGenerator(
        space, radius=4.0, n_instances=8, seed=9
    ).generate(60)
    index = CompositeIndex.build(space, pop)
    oracle = NaiveEvaluator(space, pop)
    return space, index, oracle


class TestIRQAgainstOracle:
    @given(
        q_seed=st.integers(0, 500),
        r=st.floats(0.0, 150.0, allow_nan=False),
        with_pruning=st.booleans(),
        use_skeleton=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_result_set(self, world, q_seed, r, with_pruning, use_skeleton):
        space, index, oracle = world
        q = space.random_point(seed=q_seed)
        got = iRQ(
            q, r, index,
            with_pruning=with_pruning, use_skeleton=use_skeleton,
        ).ids()
        assert got == oracle.range_query(q, r)


class TestIKNNQAgainstOracle:
    @given(
        q_seed=st.integers(0, 500),
        k=st.integers(1, 59),
        with_pruning=st.booleans(),
        use_skeleton=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_tie_aware_top_k(self, world, q_seed, k, with_pruning, use_skeleton):
        space, index, oracle = world
        q = space.random_point(seed=q_seed)
        result = ikNNQ(
            q, k, index,
            with_pruning=with_pruning, use_skeleton=use_skeleton,
        )
        exact = oracle.all_distances(q)
        kth = oracle.kth_distance(q, k)
        reachable = sum(1 for d in exact.values() if math.isfinite(d))
        assert len(result) == min(k, reachable)
        for oid in result.ids():
            assert exact[oid] <= kth + 1e-6

    @given(q_seed=st.integers(0, 500), k=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_knn_subset_of_range(self, world, q_seed, k):
        """Every kNN member lies within range of the k-th distance."""
        space, index, oracle = world
        q = space.random_point(seed=q_seed)
        kth = oracle.kth_distance(q, k)
        if not math.isfinite(kth):
            return
        knn_ids = ikNNQ(q, k, index).ids()
        range_ids = iRQ(q, kth + 1e-9, index).ids()
        assert knn_ids <= range_ids


@functools.lru_cache(maxsize=None)
def _straddling_world(seed):
    """A small mall whose objects are wide against its rooms: most of
    them overlap two partitions or more (the Eq. 8 case, where the
    envelope and the exact interval part ways)."""
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=3, floor_size=60.0,
        hallway_width=4.0, stair_size=8.0, seed=seed,
    )
    pop = ObjectGenerator(
        space, radius=6.0, n_instances=8, seed=seed
    ).generate(50)
    grid = pop.grid
    assert 2 * sum(len(subregions(o, space, grid)) > 1 for o in pop) > len(pop)
    index = CompositeIndex.build(space, pop)
    return space, index, NaiveEvaluator(space, pop), QuerySession(index)


def _reference_search(index, q, source, session, candidates, cutoff):
    """The search a processor prunes against, and the floor of its
    unreached doors: the session's full search, or the subgraph search
    bounded by ``cutoff``."""
    if session is not None:
        return session.door_distances(q), None
    dd, _ = subgraph_phase(
        index, q, source, candidates.partitions,
        cutoff=cutoff if math.isfinite(cutoff) else None,
    )
    return dd, cutoff if math.isfinite(cutoff) else None


def _all_intervals(index, q, objects, dd, floor):
    return [
        object_bounds(
            q, obj, dd, index.space, index.population.grid,
            unreached_floor=floor,
        )
        for obj in objects
    ]


def _reference_irq_decisions(index, q, r, session):
    """(rejected, accepted, refined) of Algorithm 1 with a scalar
    ``object_bounds`` interval for every candidate."""
    filtered = index.range_search(q, r)
    dd, floor = _reference_search(
        index, q, locate_source(index, q), session, filtered, r
    )
    intervals = _all_intervals(index, q, filtered.objects, dd, floor)
    rejected = sum(iv.entirely_beyond(r) for iv in intervals)
    accepted = sum(iv.entirely_within(r) for iv in intervals)
    return rejected, accepted, len(intervals) - rejected - accepted


def _reference_iknn_decisions(index, q, k, session):
    """(candidates, rejected, accepted, refined) of Algorithm 2 with
    nothing shared with the array path: seed selection restarted per
    widening, scalar Lemma 3 per seed, a scalar interval for every
    candidate."""
    space, grid = index.space, index.population.grid
    source = locate_source(index, q)
    kbound = math.inf
    for k_eff in (k, 2 * k, 4 * k):
        seeds, _, known_paths = k_seeds_selection(index, q, k_eff, source)
        tlus = sorted(
            tlu
            for seed in seeds
            if math.isfinite(
                tlu := topological_looser_upper_bound(
                    q, seed, known_paths, space, grid
                )
            )
        )
        if len(tlus) >= k:
            kbound = tlus[k - 1]
            break
        if len(seeds) < k_eff:
            break
    filtered = index.range_search(q, kbound)
    candidates = filtered.objects
    if len(candidates) <= k:
        return len(candidates), 0, 0, len(candidates)
    dd, floor = _reference_search(index, q, source, session, filtered, kbound)
    intervals = _all_intervals(index, q, candidates, dd, floor)
    ok_upper = sorted(iv.upper for iv in intervals)[k - 1]
    lowers = sorted(iv.lower for iv in intervals)
    rejected = accepted = 0
    for iv in intervals:
        if iv.lower > ok_upper:
            rejected += 1
        elif (
            bisect.bisect_right(lowers, iv.upper) - 1 <= k - 1
            and math.isfinite(iv.upper)
        ):
            accepted += 1
    return (
        len(candidates), rejected, accepted,
        len(candidates) - rejected - accepted,
    )


class TestEnvelopeFirstPrune:
    """Session path (full search, no floor) and subgraph path (cutoff
    search: unreached doors floor ``lo`` at the radius and leave ``hi``
    infinite, and an infinite ``U`` must drop nothing)."""

    @given(
        world_seed=st.integers(0, 3),
        q_seed=st.integers(0, 500),
        r=st.floats(0.0, 90.0, allow_nan=False),
        use_session=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_irq_decides_as_the_all_exact_prune(
        self, world_seed, q_seed, r, use_session
    ):
        space, index, oracle, session = _straddling_world(world_seed)
        q = space.random_point(seed=q_seed)
        session = session if use_session else None
        stats = QueryStats()
        got = iRQ(
            q, r, index, stats=stats,
            precomputed_dd=session and session.door_distances(q),
        )
        assert got.ids() == oracle.range_query(q, r)
        assert (
            stats.rejected_by_bounds, stats.accepted_by_bounds, stats.refined
        ) == _reference_irq_decisions(index, q, r, session)

    @given(
        world_seed=st.integers(0, 3),
        q_seed=st.integers(0, 500),
        k=st.integers(1, 49),
        use_session=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_iknn_decides_as_the_all_exact_prune(
        self, world_seed, q_seed, k, use_session
    ):
        space, index, oracle, session = _straddling_world(world_seed)
        q = space.random_point(seed=q_seed)
        session = session if use_session else None
        stats = QueryStats()
        got = ikNNQ(
            q, k, index, stats=stats,
            precomputed_dd=session and session.door_distances(q),
        )
        exact = oracle.all_distances(q)
        kth = oracle.kth_distance(q, k)
        reachable = sum(1 for d in exact.values() if math.isfinite(d))
        assert len(got) == min(k, reachable)
        for oid in got.ids():
            assert exact[oid] <= kth + 1e-6
        assert (
            stats.candidates_after_filtering,
            stats.rejected_by_bounds,
            stats.accepted_by_bounds,
            stats.refined,
        ) == _reference_iknn_decisions(index, q, k, session)

    @pytest.mark.parametrize("use_session", [False, True])
    def test_infinite_ceiling_drops_nothing(self, five_rooms, use_session):
        """With r3 shut off, fewer than ``k`` candidates have a finite
        ``hi``: ``U`` is infinite and every candidate must reach the
        exact rule, which rejects none of them either."""
        pop = ObjectGenerator(
            five_rooms, radius=2.5, n_instances=8, seed=3
        ).generate(30)
        index = CompositeIndex.build(five_rooms, pop)
        index.apply_event(CloseDoor("d3"))
        oracle = NaiveEvaluator(five_rooms, pop)
        session = QuerySession(index) if use_session else None
        q = five_rooms.random_point(seed=1)
        reachable = sum(
            1 for d in oracle.all_distances(q).values() if math.isfinite(d)
        )
        assert 0 < reachable < len(pop)
        k = reachable + 1
        stats = QueryStats()
        got = ikNNQ(
            q, k, index, stats=stats,
            precomputed_dd=session and session.door_distances(q),
        )
        assert got.ids() == {oid for oid, _ in oracle.knn_query(q, reachable)}
        assert stats.candidates_after_filtering == len(pop)
        assert stats.rejected_by_bounds == 0
        assert (
            stats.candidates_after_filtering,
            stats.rejected_by_bounds,
            stats.accepted_by_bounds,
            stats.refined,
        ) == _reference_iknn_decisions(index, q, k, session)
