"""Unit tests for the sharded monitor: query routing, the bound-based
update router (skip + filter), mutation paths, and stats aggregation."""

import math

import pytest

from repro.baselines import NaiveEvaluator
from repro.errors import QueryError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove
from repro.geometry.rect import Box3
from repro.api.specs import KNNSpec, RangeSpec
from repro.queries import QueryMonitor, QuerySession, ShardedMonitor
from repro.queries.shard import ShardStats, _object_box
from repro.space.events import CloseDoor


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


@pytest.fixture
def five_rooms_index(five_rooms):
    pop = ObjectPopulation(five_rooms)
    pop.insert(_point_object("near", 4.0, 5.0))    # r1
    pop.insert(_point_object("mid", 8.0, 5.0))     # r1
    pop.insert(_point_object("far", 25.0, 5.0))    # r3
    return CompositeIndex.build(five_rooms, pop)


Q_LEFT = Point(5.0, 5.0, 0)    # in r1 (west zone)
Q_RIGHT = Point(25.0, 5.0, 0)  # in r3 (east zone)


class TestGeometryHelpers:
    def test_box_to_box_min_distance(self):
        a = Box3(0, 0, 0, 1, 1, 0)
        b = Box3(4, 4, 3, 5, 5, 3)
        assert a.min_distance_to(b) == pytest.approx(math.sqrt(9 + 9 + 9))
        assert b.min_distance_to(a) == pytest.approx(math.sqrt(27))
        assert a.min_distance_to(a) == 0.0
        # Overlap on some axes: only the separated axis contributes.
        c = Box3(0.5, 0.5, 0, 2, 2, 0)
        assert a.min_distance_to(c) == 0.0

    def test_object_box_sits_at_floor_elevation(self):
        obj = _point_object("o", 3.0, 4.0, floor=2)
        box = _object_box(obj, floor_height=4.0)
        assert (box.minx, box.miny) == (3.0, 4.0)
        assert box.minz == box.maxz == 8.0


class TestRegistrationRouting:
    def test_colocated_queries_share_a_shard(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=4)
        a = sharded.register(RangeSpec(Q_LEFT, 5.0))
        b = sharded.register(KNNSpec(Q_LEFT, 2))
        assert sharded._homes[a] == sharded._homes[b]
        assert sharded.shard_of(Q_LEFT) == sharded._homes[a]

    def test_spatially_separate_queries_split(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 5.0))
        b = sharded.register(RangeSpec(Q_RIGHT, 5.0))
        assert sharded._homes[a] != sharded._homes[b]

    def test_query_surface_mirrors_monitor(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 10.0), query_id="kiosk")
        assert a == "kiosk" and a in sharded and len(sharded) == 1
        assert sharded.query_ids() == ["kiosk"]
        assert sharded.query_spec(a) == RangeSpec(Q_LEFT, 10.0)
        assert sharded.result_ids(a) == {"near", "mid"}
        assert sharded.results() == {"kiosk": {"near", "mid"}}
        sharded.deregister(a)
        assert a not in sharded
        with pytest.raises(QueryError):
            sharded.result_ids(a)

    def test_cross_shard_id_collision_rejected(self, five_rooms_index):
        """Regression: an id held by a shard monitor directly (shards
        are reachable via `.shards`) used to be silently shadowed by a
        same-id registration routed to another shard — results() would
        merge the two under one id.  All claiming now checks every
        shard's registry."""
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        home = sharded.shard_of(Q_RIGHT)
        sharded.shards[home].register(
            RangeSpec(Q_RIGHT, 5.0), query_id="kiosk"
        )
        with pytest.raises(QueryError):
            sharded.register(RangeSpec(Q_LEFT, 5.0), query_id="kiosk")
        # Auto-generated ids skip shard-held ids too.
        sharded.shards[home].register(
            RangeSpec(Q_RIGHT, 5.0), query_id="irq-1"
        )
        auto = sharded.register(RangeSpec(Q_LEFT, 5.0))
        assert auto != "irq-1"

    def test_duplicate_and_unknown_ids_rejected(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        sharded.register(RangeSpec(Q_LEFT, 5.0), query_id="kiosk")
        with pytest.raises(QueryError):
            sharded.register(KNNSpec(Q_RIGHT, 2), query_id="kiosk")
        with pytest.raises(QueryError):
            sharded.deregister("nope")
        with pytest.raises(QueryError):
            ShardedMonitor(five_rooms_index, n_shards=0)

    def test_shared_session_pays_dijkstra_once(self, five_rooms_index):
        session = QuerySession(five_rooms_index)
        sharded = ShardedMonitor(five_rooms_index, n_shards=4,
                                 session=session)
        sharded.register(RangeSpec(Q_LEFT, 5.0))
        sharded.register(KNNSpec(Q_LEFT, 2))
        assert session.misses == 1 and session.hits >= 1


class TestRouter:
    def test_irrelevant_update_skips_the_far_shard(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 4.0))
        b = sharded.register(RangeSpec(Q_RIGHT, 4.0))
        # "near" shuffles within r1: provably outside Q_RIGHT's reach.
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])
        assert sharded.routing.shard_visits == 1
        assert sharded.routing.shards_skipped == 1
        assert sharded.routing.skip_ratio == pytest.approx(0.5)
        # The skipped shard evaluated no pairs at all.
        far_shard = sharded.shards[sharded._homes[b]]
        assert far_shard.stats.pairs_evaluated == 0
        assert sharded.result_ids(a) == {"near", "mid"}
        assert sharded.result_ids(b) == {"far"}

    def test_leaving_object_still_routes(self, five_rooms_index):
        """Both old and new position matter: an object moving *out* of a
        shard's reach must still be routed there (it has to leave)."""
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 10.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.apply_moves([_point_move("near", 25.0, 8.0)])
        assert "near" not in sharded.result_ids(a)

    def test_unfull_knn_makes_shard_unskippable(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        # k=5 > population: tau is infinite, every update is relevant.
        sharded.register(KNNSpec(Q_RIGHT, 5))
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])
        assert sharded.routing.shards_skipped == 0

    def test_insert_and_delete_route_and_skip(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 4.0))
        b = sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.apply_insert(_point_object("new", 24.0, 5.0))
        assert sharded.routing.shards_skipped == 1  # left shard skipped
        assert "new" in sharded.result_ids(b)
        sharded.apply_delete("new")
        assert sharded.routing.shards_skipped == 2
        assert "new" not in sharded.result_ids(b)
        assert sharded.result_ids(a) == {"near", "mid"}

    def test_update_filtering_counts(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        # One move near each query: both shards visited, and each shard
        # filtered the other zone's update out.
        sharded.apply_moves([
            _point_move("near", 4.5, 5.0),
            _point_move("far", 24.5, 5.0),
        ])
        assert sharded.routing.shard_visits == 2
        assert sharded.routing.updates_filtered == 2
        for shard in sharded.shards:
            assert shard.stats.pairs_evaluated <= 1

    def test_duplicate_moves_in_batch_last_write_wins(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 10.0))
        batch = sharded.apply_moves([
            _point_move("far", 6.0, 6.0),
            _point_move("far", 25.0, 5.0),  # last write wins
        ])
        assert [obj.object_id for obj in batch.moved] == ["far"]
        assert "far" not in sharded.result_ids(a)


class TestBucketRouter:
    """The tightened router: per-floor grid buckets exclude updates the
    coarse shard bbox + max radius would admit."""

    def test_update_between_query_clusters_is_bucket_skipped(
        self, five_rooms_index
    ):
        # One shard holding two small-reach queries at opposite ends:
        # the coarse box spans the gap between them, the buckets don't.
        sharded = ShardedMonitor(five_rooms_index, n_shards=1)
        a = sharded.register(RangeSpec(Q_LEFT, 4.0))
        b = sharded.register(RangeSpec(Q_RIGHT, 4.0))
        # Park "mid" in the dead middle first (old box is near Q_LEFT,
        # so this batch still routes).
        sharded.apply_moves([_point_move("mid", 15.0, 5.0)])
        assert sharded.routing.shard_visits == 1
        before = sharded.routing.shards_skipped
        # Now it shuffles within the gap: both old and new boxes sit
        # inside the coarse box but outside every bucket's reach.
        sharded.apply_moves([_point_move("mid", 15.5, 5.0)])
        assert sharded.routing.shards_skipped == before + 1
        assert sharded.routing.bucket_skips >= 1
        assert sharded.result_ids(a) == {"near"}
        assert sharded.result_ids(b) == {"far"}

    def test_coarse_mode_admits_what_buckets_reject(self, five_rooms_index):
        """The bucketed_router=False ablation reproduces the PR-2
        single-bbox behaviour: the gap update wakes the shard."""
        sharded = ShardedMonitor(
            five_rooms_index, n_shards=1, bucketed_router=False
        )
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.apply_moves([_point_move("mid", 15.0, 5.0)])
        sharded.apply_moves([_point_move("mid", 15.5, 5.0)])
        assert sharded.routing.shards_skipped == 0
        assert sharded.routing.bucket_skips == 0

    def test_insert_in_gap_is_bucket_skipped(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=1)
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.apply_insert(_point_object("gap", 15.0, 5.0))
        assert sharded.routing.shards_skipped == 1
        assert sharded.routing.bucket_skips == 1

    def test_unfull_knn_still_unskippable(self, five_rooms_index):
        """An infinite reach short-circuits before any bucket logic."""
        sharded = ShardedMonitor(five_rooms_index, n_shards=1)
        sharded.register(KNNSpec(Q_LEFT, 5))  # k > population: tau = inf
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.apply_moves([_point_move("mid", 15.0, 5.0)])
        assert sharded.routing.shards_skipped == 0

    def test_per_floor_radii_grouping(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q_LEFT, 4.0), query_id="a")
        monitor.register(RangeSpec(Q_RIGHT, 6.0), query_id="b")
        by_floor = monitor.influence_radii_by_floor()
        assert set(by_floor) == {0}
        assert {(qid, r) for qid, _q, r in by_floor[0]} == {
            ("a", 4.0),
            ("b", 6.0),
        }


class TestReachCache:
    """Reach tables are cached per shard and rebuilt only when a
    shard's reach_epoch (registration churn, an ikNNQ rho move) or the
    topology changed — ShardStats.reach_cache_hits counts the reuse."""

    def test_static_reaches_hit_cache(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])  # builds
        assert sharded.routing.reach_cache_hits == 0
        sharded.apply_moves([_point_move("near", 4.0, 5.0)])
        assert sharded.routing.reach_cache_hits == 2
        sharded.apply_insert(_point_object("new", 24.0, 5.0))
        assert sharded.routing.reach_cache_hits == 4

    def test_iprq_reach_is_static_too(self, five_rooms_index):
        from repro.api.specs import ProbRangeSpec

        sharded = ShardedMonitor(five_rooms_index, n_shards=1)
        sharded.register(ProbRangeSpec(Q_LEFT, 4.0, 0.5))
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])  # builds
        sharded.apply_moves([_point_move("near", 4.0, 5.0)])
        assert sharded.routing.reach_cache_hits == 1
        # The cached reach still routes soundly: a far-room jiggle is
        # skipped outright.
        sharded.apply_moves([_point_move("far", 24.5, 5.0)])
        assert sharded.routing.reach_cache_hits == 2
        assert sharded.routing.shards_skipped == 1

    def test_knn_rerank_hits_cache_until_rho_moves(self, crowded_index):
        sharded = ShardedMonitor(crowded_index, n_shards=2)
        qid = sharded.register(KNNSpec(Q_LEFT, 2))  # near + mid
        sharded.apply_moves([_point_move("far", 24.5, 5.0)])  # builds
        assert sharded.routing.reach_cache_hits == 0
        # A member drifts past the k-th distance but stays in the band,
        # then another leaves the band: the result changes both times,
        # rho does not — every batch routes on the cached tables (the
        # kNN shard's and the empty shard's).
        batch = sharded.apply_moves([_point_move("near", 5.0, 1.0)])
        assert batch.for_query(qid)
        assert sharded.result_ids(qid) == {"mid", "b0"}
        batch = sharded.apply_moves([_point_move("mid", 5.0, 9.9)])
        assert batch.for_query(qid)
        assert sharded.result_ids(qid) == {"b0", "b1"}
        sharded.apply_moves([_point_move("far", 25.0, 5.0)])
        assert sharded.routing.reach_cache_hits == 6
        # Deletions promote from the band, still without moving rho...
        for i in range(7):
            assert sharded.apply_delete(f"b{i}").for_query(qid)
        assert sharded.result_ids(qid) == {"near", "b7"}
        assert sharded.routing.reach_cache_hits == 20
        assert sharded.stats.full_recomputes == 0
        # ...until one drains it below k: the refill moves rho, but
        # only *after* this mutation routed on the old table...
        sharded.apply_delete("b7")
        assert sharded.stats.full_recomputes == 1
        assert sharded.routing.reach_cache_hits == 22
        # ...so the next mutation rebuilds the kNN shard's table and
        # reuses only the empty shard's.
        sharded.apply_moves([_point_move("far", 24.5, 5.0)])
        assert sharded.routing.reach_cache_hits == 23

    def test_registration_invalidates(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=1)
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])  # builds
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        # New standing query: the reach table must be rebuilt (the old
        # one would blind the router to the new query's reach).
        sharded.apply_moves([_point_move("far", 24.5, 5.0)])
        assert sharded.routing.reach_cache_hits == 0
        assert sharded.routing.shard_visits >= 2  # far shard now runs

    def test_topology_event_invalidates(self, five_rooms_index):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])  # builds
        sharded.apply_event(CloseDoor("d12"))
        hits_before = sharded.routing.reach_cache_hits
        sharded.apply_moves([_point_move("near", 4.0, 5.0)])
        # Post-event tables are rebuilt, not served stale.
        assert sharded.routing.reach_cache_hits == hits_before
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])
        assert sharded.routing.reach_cache_hits == hits_before + 2

    def test_routing_decisions_match_uncached(self, five_rooms_index,
                                              five_rooms):
        """Caching only removes rebuild work, never changes a routing
        decision: a twin driven with per-batch rebuilds (cache defeated
        by clearing) takes identical skip/filter decisions."""
        def fresh_index():
            pop = ObjectPopulation(five_rooms)
            pop.insert(_point_object("near", 4.0, 5.0))
            pop.insert(_point_object("mid", 8.0, 5.0))
            pop.insert(_point_object("far", 25.0, 5.0))
            return CompositeIndex.build(five_rooms, pop)

        cached = ShardedMonitor(fresh_index(), n_shards=2)
        uncached = ShardedMonitor(fresh_index(), n_shards=2)
        for m in (cached, uncached):
            m.register(RangeSpec(Q_LEFT, 4.0), query_id="a")
            m.register(KNNSpec(Q_RIGHT, 2), query_id="b")
        moves = [
            [_point_move("near", 4.5, 5.0)],
            [_point_move("far", 24.5, 5.0)],
            [_point_move("mid", 15.0, 5.0)],
            [_point_move("mid", 8.0, 5.0)],
        ]
        for batch in moves:
            want = uncached.apply_moves(batch)
            uncached._reach_cache = [None] * uncached.n_shards
            got = cached.apply_moves(batch)
            assert got.deltas == want.deltas
        assert cached.results() == uncached.results()
        s_c, s_u = cached.routing, uncached.routing
        assert (s_c.shard_visits, s_c.shards_skipped,
                s_c.updates_filtered, s_c.bucket_skips) == \
            (s_u.shard_visits, s_u.shards_skipped,
             s_u.updates_filtered, s_u.bucket_skips)
        assert s_c.reach_cache_hits > 0


class TestParallelExecution:
    """workers=N: routed shard maintenance on a thread pool, merged
    bit-identically to serial."""

    def _sequence(self, monitor):
        batches = [monitor.drain_pending_deltas()]
        batches.append(monitor.apply_moves([
            _point_move("near", 4.5, 5.0),
            _point_move("far", 24.5, 5.0),
        ]))
        batches.append(monitor.apply_insert(_point_object("new", 24.0, 5.0)))
        batches.append(monitor.apply_moves([
            _point_move("new", 6.0, 6.0),
            _point_move("mid", 15.0, 5.0),
        ]))
        batches.append(monitor.apply_delete("new"))
        return batches

    def test_parallel_is_bit_identical_to_serial(self, five_rooms):
        def fresh_index():
            pop = ObjectPopulation(five_rooms)
            pop.insert(_point_object("near", 4.0, 5.0))
            pop.insert(_point_object("mid", 8.0, 5.0))
            pop.insert(_point_object("far", 25.0, 5.0))
            return CompositeIndex.build(five_rooms, pop)

        serial = ShardedMonitor(fresh_index(), n_shards=2)
        parallel = ShardedMonitor(fresh_index(), n_shards=2, workers=3)
        for monitor in (serial, parallel):
            monitor.register(RangeSpec(Q_LEFT, 10.0), query_id="left")
            monitor.register(KNNSpec(Q_RIGHT, 2), query_id="right")
        serial_batches = self._sequence(serial)
        parallel_batches = self._sequence(parallel)
        for got, want in zip(parallel_batches, serial_batches):
            assert got.deltas == want.deltas
            assert [o.object_id for o in got.moved] == \
                [o.object_id for o in want.moved]
        for qid in ("left", "right"):
            assert parallel.result_distances(qid) == \
                serial.result_distances(qid)
        assert parallel.routing == serial.routing
        parallel.close()

    def test_workers_validated(self, five_rooms_index):
        with pytest.raises(QueryError):
            ShardedMonitor(five_rooms_index, n_shards=2, workers=0)

    def test_close_is_idempotent_and_degrades_to_serial(
        self, five_rooms_index
    ):
        with ShardedMonitor(
            five_rooms_index, n_shards=2, workers=2
        ) as sharded:
            a = sharded.register(RangeSpec(Q_LEFT, 10.0))
            sharded.apply_moves([_point_move("far", 6.0, 6.0)])
        sharded.close()  # second close is a no-op
        # The pool is gone but the monitor still works (serially).
        sharded.apply_moves([_point_move("far", 25.0, 5.0)])
        assert sharded.result_ids(a) == {"near", "mid"}


class TestEventsAndStats:
    def test_event_resyncs_every_shard(self, five_rooms_index, five_rooms):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 40.0))
        b = sharded.register(RangeSpec(Q_RIGHT, 40.0))
        sharded.drain_pending_deltas()
        batch = sharded.apply_event(CloseDoor("d3"))
        assert batch.event_result is not None
        assert "far" not in sharded.result_ids(a)
        oracle = NaiveEvaluator(five_rooms, five_rooms_index.population)
        assert sharded.result_ids(a) == oracle.range_query(Q_LEFT, 40.0)
        assert sharded.result_ids(b) == oracle.range_query(Q_RIGHT, 40.0)
        causes = {d.cause for d in batch}
        assert causes == {"topology"}

    def test_idle_tick_is_not_a_routing_decision(self, five_rooms_index):
        """An empty move batch must not inflate the skip statistics."""
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.drain_pending_deltas()
        sharded.deregister(a)  # park a delta to prove it still flows
        batch = sharded.apply_moves([])
        assert batch.for_query(a)[0].cause == "deregister"
        assert sharded.routing == ShardStats()
        assert sharded.stats.updates_seen == 0

    def test_one_event_counts_one_invalidation(self, five_rooms_index):
        """Every shard observes the same topology bump; the aggregate
        must report it once, like a single monitor would."""
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        sharded.register(RangeSpec(Q_LEFT, 40.0))
        sharded.register(RangeSpec(Q_RIGHT, 40.0))
        sharded.apply_event(CloseDoor("d3"))
        assert sharded.stats.topology_invalidations == 1
        assert sharded.stats.event_recomputes == 2  # one per query

    def test_stats_aggregate_without_double_counting_updates(
        self, five_rooms_index
    ):
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        sharded.register(KNNSpec(Q_LEFT, 5))   # unfull: both shards run
        sharded.register(KNNSpec(Q_RIGHT, 5))
        sharded.apply_moves([_point_move("near", 4.5, 5.0)])
        # Each shard saw the update, but it was one routed update.
        assert sharded.stats.updates_seen == 1
        total_pairs = sum(s.stats.pairs_evaluated for s in sharded.shards)
        assert sharded.stats.pairs_evaluated == total_pairs == 2

    def test_single_shard_degenerates_to_plain_monitor(
        self, five_rooms_index
    ):
        sharded = ShardedMonitor(five_rooms_index, n_shards=1)
        a = sharded.register(RangeSpec(Q_LEFT, 10.0))
        sharded.apply_moves([_point_move("far", 6.0, 6.0)])
        assert sharded.result_ids(a) == {"near", "mid", "far"}
        assert sharded.routing.shard_visits == 1

    def test_shard_stats_skip_ratio_empty(self):
        assert ShardStats().skip_ratio == 0.0

    def test_emptied_shard_still_flows_parked_deltas(self, five_rooms_index):
        """Regression: deregistering a shard's last query parks its
        deregister delta in that shard; the next mutation must deliver
        it even though the shard holds no standing queries anymore."""
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        a = sharded.register(RangeSpec(Q_LEFT, 10.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        sharded.drain_pending_deltas()
        sharded.deregister(a)  # its shard is empty now, delta parked
        batch = sharded.apply_moves([_point_move("far", 24.5, 5.0)])
        (delta,) = batch.for_query(a)
        assert delta.cause == "deregister"
        assert set(delta.left) == {"near", "mid"}

    def test_updates_filtered_counts_only_visited_shards(
        self, five_rooms_index
    ):
        """A whole-shard skip is its own statistic: its updates are not
        also reported as 'filtered inside a visited shard'."""
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        sharded.register(RangeSpec(Q_LEFT, 4.0))
        sharded.register(RangeSpec(Q_RIGHT, 4.0))
        # Both moves near Q_LEFT: the right shard is skipped outright.
        sharded.apply_moves([
            _point_move("near", 4.5, 5.0),
            _point_move("mid", 8.0, 4.5),
        ])
        assert sharded.routing.shards_skipped == 1
        assert sharded.routing.updates_filtered == 0


class TestShardStacks:
    def test_shards_sharing_a_session_keep_their_own_stacks(
        self, five_rooms_index
    ):
        """Each shard stacks its own standing queries (the session they
        share only serves the packs), a sub-block lands on its shard's
        stack alone, and churn on one shard leaves the other's stack
        in place."""
        single = QueryMonitor(five_rooms_index)
        sharded = ShardedMonitor(five_rooms_index, n_shards=2)
        specs = [
            RangeSpec(Q_LEFT, 30.0),
            KNNSpec(Q_LEFT, 2),
            RangeSpec(Q_RIGHT, 30.0),
        ]
        ids = [sharded.register(spec) for spec in specs]
        for spec, qid in zip(specs, ids):
            single.register(spec, query_id=qid)
        left, right = (sharded.shards[sharded._homes[qid]] for qid in ids[1:])
        assert left is not right and left.session is right.session

        def step(moves):
            sharded.apply_moves(moves)
            # The sharded front-end moved the shared index already.
            single.ingest_moves(
                [five_rooms_index.population.get(m.object_id) for m in moves]
            )
            assert sharded.results() == single.results()

        step([_point_move("mid", 15.0, 5.0), _point_move("far", 24.0, 5.0)])
        assert left._stack is not right._stack
        assert [p.dd.source for p in left._stack.packs] == [Q_LEFT, Q_LEFT]
        assert [p.dd.source for p in right._stack.packs] == [Q_RIGHT]
        kept = right._stack

        extra = sharded.register(RangeSpec(Q_LEFT, 2.0))
        single.register(RangeSpec(Q_LEFT, 2.0), query_id=extra)
        assert left._stack is None and right._stack is kept
        step([_point_move("near", 5.5, 5.0), _point_move("far", 25.0, 6.0)])
        assert len(left._stack) == 3 and right._stack is kept
        assert sharded.result_ids(extra) == {"near"}

        sharded.apply_event(CloseDoor("d12"))
        single.drain_pending_deltas()  # notices the topology bump
        step([_point_move("mid", 15.0, 5.5)])
        layout = five_rooms_index.columns.layout()
        assert left._stack.layout is layout
        assert right._stack.layout is layout and right._stack is not kept
