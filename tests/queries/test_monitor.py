"""Regression tests for the continuous query monitor.

Covers registration/deregistration, incremental maintenance of standing
iRQ/ikNNQ results, the ikNNQ guard band and its refill counter, and the
topology-event interaction with the QuerySession cache
(``_cached_version``)."""

import math

import pytest

from repro.baselines import NaiveEvaluator
from repro.errors import QueryError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    MovementStream,
    ObjectGenerator,
    ObjectMove,
    ObjectPopulation,
    UncertainObject,
)
from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    RangeSpec,
)
from repro.distances.batch import BlockBounds
from repro.queries import QueryMonitor, QuerySession, ikNNQ, maintainers
from repro.space.events import CloseDoor, OpenDoor


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    """A radius-0 object: its expected distance is the exact indoor
    distance to its single instance — deterministic tests."""
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _two_spot(object_id: str, a, b, as_move: bool = False):
    """A half/half two-instance object at planar spots ``a`` and ``b``
    (floor 0): its qualifying probability takes the values 0, 0.5 or 1,
    so iPRQ bounds and refinement paths are all reachable."""
    import numpy as np

    xy = np.array([list(a), list(b)], dtype=float)
    center = Point((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0, 0)
    region = Circle(center, math.dist(a, b) / 2.0 + 0.1)
    instances = InstanceSet.uniform(xy, 0)
    if as_move:
        return ObjectMove(object_id, region, instances)
    return UncertainObject(object_id, region, instances)


@pytest.fixture
def five_rooms_index(five_rooms):
    """Three deterministic point objects in the five_rooms plan."""
    pop = ObjectPopulation(five_rooms)
    pop.insert(_point_object("near", 4.0, 5.0))    # in r1, ~1 m from q
    pop.insert(_point_object("mid", 8.0, 5.0))     # in r1, ~3 m from q
    pop.insert(_point_object("far", 25.0, 5.0))    # in r3, via hallway
    return CompositeIndex.build(five_rooms, pop)


@pytest.fixture
def mall_setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=10, seed=77)
    pop = gen.generate(40)
    index = CompositeIndex.build(small_mall, pop)
    return index, gen, pop


Q1 = Point(5.0, 5.0, 0)  # inside r1


class TestRegistration:
    def test_register_returns_distinct_ids(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        b = monitor.register(KNNSpec(Q1, 2))
        assert a != b
        assert set(monitor.query_ids()) == {a, b}
        assert len(monitor) == 2 and a in monitor

    def test_registration_result_matches_oracle(self, five_rooms_index,
                                                five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        oracle = NaiveEvaluator(five_rooms, five_rooms_index.population)
        a = monitor.register(RangeSpec(Q1, 10.0))
        assert monitor.result_ids(a) == oracle.range_query(Q1, 10.0)
        b = monitor.register(KNNSpec(Q1, 2))
        assert monitor.result_ids(b) == {"near", "mid"}

    def test_explicit_id_and_duplicate_rejected(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        assert (
            monitor.register(RangeSpec(Q1, 5.0), query_id="kiosk")
            == "kiosk"
        )
        with pytest.raises(QueryError):
            monitor.register(KNNSpec(Q1, 2), query_id="kiosk")

    def test_generated_ids_skip_claimed_ones(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q1, 5.0), query_id="irq-1")
        auto = monitor.register(RangeSpec(Q1, 10.0))  # must not collide
        assert auto != "irq-1"
        assert len(monitor) == 2

    def test_invalid_parameters_rejected(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        with pytest.raises(QueryError):
            monitor.register(RangeSpec(Q1, -1.0))
        with pytest.raises(QueryError):
            monitor.register(KNNSpec(Q1, 0))

    def test_failed_registration_leaves_no_trace(self, five_rooms_index):
        """Regression: a query point outside every partition raises on
        first execution; the half-registered query must not linger and
        poison every later mutation (nor hold a session pin)."""
        monitor = QueryMonitor(five_rooms_index)
        outside = Point(-500.0, -500.0, 0)
        with pytest.raises(QueryError):
            monitor.register(RangeSpec(outside, 10.0))
        with pytest.raises(QueryError):
            monitor.register(KNNSpec(outside, 2))
        assert len(monitor) == 0
        assert not monitor.drain_pending_deltas()
        assert monitor.session.cache_size == 0  # nothing cached or pinned
        a = monitor.register(RangeSpec(Q1, 10.0))  # the monitor still works
        monitor.apply_moves([_point_move("far", 6.0, 6.0)])
        assert monitor.result_ids(a) == {"near", "mid", "far"}

    def test_query_spec_round_trip(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        assert monitor.query_spec(a) == RangeSpec(Q1, 10.0)
        b = monitor.register(KNNSpec(Q1, 2))
        assert monitor.query_spec(b) == KNNSpec(Q1, 2)
        # A returned spec is re-registrable as-is (a real value object).
        c = monitor.register(monitor.query_spec(a))
        assert monitor.result_ids(c) == monitor.result_ids(a)

    def test_register_rejects_non_specs(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        with pytest.raises(QueryError):
            monitor.register("irq")  # not a spec at all
        with pytest.raises(AttributeError):
            monitor.register_irq  # the deprecated shims are gone

    def test_prob_range_spec_registers(self, five_rooms_index,
                                       five_rooms):
        """Standing iPRQ through the same register(spec) path: the
        initial result matches the one-shot iPRQ and the oracle."""
        from repro.queries import iPRQ

        monitor = QueryMonitor(five_rooms_index)
        c = monitor.register(ProbRangeSpec(Q1, 10.0, 0.5))
        assert monitor.query_spec(c) == ProbRangeSpec(Q1, 10.0, 0.5)
        oracle = NaiveEvaluator(five_rooms, five_rooms_index.population)
        assert monitor.result_ids(c) == \
            oracle.prob_range_query(Q1, 10.0, 0.5)
        assert monitor.result_ids(c) == \
            iPRQ(Q1, 10.0, 0.5, five_rooms_index).ids()


class TestDeregistration:
    def test_deregister_removes(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.deregister(a)
        assert a not in monitor
        with pytest.raises(QueryError):
            monitor.result_ids(a)

    def test_deregister_unknown_raises(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        with pytest.raises(QueryError):
            monitor.deregister("nope")

    def test_deregistered_query_costs_nothing(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.deregister(a)
        monitor.apply_moves([_point_move("far", 26.0, 6.0)])
        assert monitor.stats.pairs_evaluated == 0


class TestIncrementalIRQ:
    def test_move_in_and_out_of_range(self, five_rooms_index, five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        assert monitor.result_ids(a) == {"near", "mid"}
        # "far" walks into r1, well within range.
        monitor.apply_moves([_point_move("far", 6.0, 6.0)])
        assert monitor.result_ids(a) == {"near", "mid", "far"}
        # ... and leaves again.
        monitor.apply_moves([_point_move("far", 25.0, 5.0)])
        assert monitor.result_ids(a) == {"near", "mid"}
        # Pure movement never needs a full iRQ re-execution.
        assert monitor.stats.full_recomputes == 0

    def test_unknown_id_in_batch_fails_atomically(self, five_rooms_index):
        from repro.errors import IndexError_

        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        before = monitor.result_ids(a)
        with pytest.raises(IndexError_):
            monitor.apply_moves([
                _point_move("far", 6.0, 6.0),   # valid...
                _point_move("ghost", 5.0, 5.0),  # ...but the batch is bad
            ])
        # Nothing was applied: index, population and results unchanged.
        assert monitor.result_ids(a) == before
        obj = five_rooms_index.population.get("far")
        assert obj.region.center == Point(25.0, 5.0, 0)
        assert not five_rooms_index.validate()

    def test_out_of_bounds_move_in_batch_fails_atomically(
        self, five_rooms_index
    ):
        from repro.errors import IndexError_

        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        before = monitor.result_ids(a)
        with pytest.raises(IndexError_):
            monitor.apply_moves([
                _point_move("far", 6.0, 6.0),     # valid...
                _point_move("mid", 90.0, 90.0),   # ...into a wall
            ])
        assert monitor.result_ids(a) == before
        assert five_rooms_index.population.get("far").region.center \
            == Point(25.0, 5.0, 0)
        assert not five_rooms_index.validate()

    def test_unaffected_updates_are_skipped(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q1, 3.0))
        # A far object shuffling around r3 is decided by bounds alone.
        monitor.apply_moves([_point_move("far", 24.0, 4.0)])
        monitor.apply_moves([_point_move("far", 26.0, 6.0)])
        assert monitor.stats.pairs_skipped == 2
        assert monitor.stats.pairs_refined == 0


class TestIncrementalProbRange:
    """Standing iPRQ: the ProbRangeMaintainer keeps the probabilistic-
    threshold result maintained through the same monitor paths as
    iRQ/ikNNQ — bounds decide most pairs, refinement only when the
    probability can cross p_min, deltas annotate with probabilities."""

    def test_point_objects_move_in_and_out(self, five_rooms_index,
                                           five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        c = monitor.register(ProbRangeSpec(Q1, 10.0, 0.5))
        assert monitor.result_ids(c) == {"near", "mid"}
        monitor.apply_moves([_point_move("far", 6.0, 6.0)])
        assert monitor.result_ids(c) == {"near", "mid", "far"}
        monitor.apply_moves([_point_move("far", 25.0, 5.0)])
        assert monitor.result_ids(c) == {"near", "mid"}
        # Point objects are always decided by bounds: no refinement,
        # and pure movement never needs a full re-execution.
        assert monitor.stats.pairs_refined == 0
        assert monitor.stats.full_recomputes == 0
        oracle = NaiveEvaluator(five_rooms, five_rooms_index.population)
        assert monitor.result_ids(c) == \
            oracle.prob_range_query(Q1, 10.0, 0.5)

    def test_split_object_refines_and_annotates(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        c = monitor.register(ProbRangeSpec(Q1, 2.5, 0.4))
        assert monitor.result_distances(c) == {"near": None}
        # Half the mass at distance 1 (within r), half at distance 4:
        # bounds leave [0, 1] straddling p_min, so one exact
        # refinement decides membership with probability 0.5.
        monitor.drain_pending_deltas()
        batch = monitor.apply_insert(
            _two_spot("split", (4.0, 5.0), (9.0, 5.0))
        )
        assert monitor.stats.pairs_refined == 1
        assert monitor.result_distances(c) == {
            "near": None, "split": 0.5,
        }
        (delta,) = batch.for_query(c)
        assert delta.entered == {"split": 0.5}
        # Both instances walk within r: bounds accept outright, and the
        # re-annotation travels in probability_changed, not
        # distance_changed.
        batch = monitor.apply_moves([
            _two_spot("split", (4.0, 5.0), (6.0, 5.0), as_move=True)
        ])
        assert monitor.result_distances(c) == {
            "near": None, "split": None,
        }
        (delta,) = batch.for_query(c)
        assert delta.probability_changed == {"split": None}
        assert delta.distance_changed == {}
        # ...and clean out to the far room: certain non-member.
        batch = monitor.apply_moves([
            _two_spot("split", (24.0, 5.0), (26.0, 5.0), as_move=True)
        ])
        (delta,) = batch.for_query(c)
        assert delta.left == ("split",)
        assert monitor.result_ids(c) == {"near"}

    def test_probability_below_threshold_stays_out(self,
                                                   five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        c = monitor.register(ProbRangeSpec(Q1, 2.5, 0.6))
        monitor.apply_insert(_two_spot("split", (4.0, 5.0), (9.0, 5.0)))
        # Qualifying probability 0.5 < 0.6: refined, then excluded.
        assert monitor.result_ids(c) == {"near"}
        assert monitor.stats.pairs_refined == 1

    def test_delete_member_just_drops(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        c = monitor.register(ProbRangeSpec(Q1, 10.0, 0.5))
        monitor.apply_delete("near")
        assert monitor.result_ids(c) == {"mid"}
        assert monitor.stats.full_recomputes == 0

    def test_topology_event_resyncs(self, five_rooms_index, five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        c = monitor.register(ProbRangeSpec(Q1, 40.0, 0.5))
        assert "far" in monitor.result_ids(c)
        monitor.apply_event(CloseDoor("d3"))  # r3 sealed
        assert "far" not in monitor.result_ids(c)
        oracle = NaiveEvaluator(five_rooms, five_rooms_index.population)
        assert monitor.result_ids(c) == \
            oracle.prob_range_query(Q1, 40.0, 0.5)
        monitor.apply_event(OpenDoor("d3"))
        assert "far" in monitor.result_ids(c)

    def test_influence_radius_is_query_range(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        c = monitor.register(ProbRangeSpec(Q1, 7.5, 0.5))
        assert monitor._queries[c].influence_radius() == 7.5


class TestKNNFallback:
    def test_member_drift_inside_band_reranks(self, crowded_index,
                                              five_rooms):
        monitor = QueryMonitor(crowded_index)
        b = monitor.register(KNNSpec(Q1, 2))
        assert monitor.result_ids(b) == {"near", "mid"}
        # rho: the 10th
        assert monitor._queries[b].influence_radius() == pytest.approx(4.6)
        # The nearest member drifts past the k-th distance (3 m) but
        # stays inside the band: one refinement, and the nearest band
        # entry is promoted from its stored distance — no search.
        monitor.apply_moves([_point_move("near", 5.0, 1.0)])
        assert monitor.result_ids(b) == {"mid", "b0"}
        assert monitor.stats.pairs_refined == 1
        assert monitor.stats.full_recomputes == 0
        # ...and out of the band altogether: still no search, the band
        # holds nine entries for a k of two.
        monitor.apply_moves([_point_move("near", 25.0, 8.0)])
        assert monitor.stats.pairs_refined == 2
        assert monitor.stats.full_recomputes == 0
        oracle = NaiveEvaluator(five_rooms, crowded_index.population)
        assert monitor.result_ids(b) == {
            oid for oid, _ in oracle.knn_query(Q1, 2)
        }

    def test_member_jitter_stays_incremental(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        b = monitor.register(KNNSpec(Q1, 2))
        # A member moving slightly (still within the threshold) is
        # refined in place, no fallback.
        monitor.apply_moves([_point_move("near", 4.5, 5.0)])
        assert monitor.stats.full_recomputes == 0
        assert monitor.stats.pairs_refined == 1
        assert monitor.result_ids(b) == {"near", "mid"}

    def test_outsider_entry_is_incremental(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        b = monitor.register(KNNSpec(Q1, 2))
        # "far" walks right next to q: it must enter, evicting "mid" —
        # incrementally, without re-execution.
        monitor.apply_moves([_point_move("far", 5.0, 6.0)])
        assert monitor.result_ids(b) == {"near", "far"}
        assert monitor.stats.full_recomputes == 0

    def test_far_outsider_is_skipped_by_bounds(self, crowded_index):
        monitor = QueryMonitor(crowded_index)
        monitor.register(KNNSpec(Q1, 2))
        # Its lower bound exceeds rho: decided without refinement.
        monitor.apply_moves([_point_move("far", 26.0, 3.0)])
        assert monitor.stats.pairs_skipped == 1
        assert monitor.stats.pairs_refined == 0

    def test_overgrown_band_is_trimmed(self, crowded_index, five_rooms):
        monitor = QueryMonitor(crowded_index)
        b = monitor.register(KNNSpec(Q1, 2))  # band of 10, rho 4.6
        sq = monitor._queries[b]
        assert len(sq.buffer) == sq.k + sq.m == 10
        # Newcomers inside the band join it; past k + 2m = 18 entries
        # it is cut back to the 10 nearest and rho drops to the 10th.
        for i in range(8):
            monitor.apply_insert(_point_object(f"n{i}", 2.9 - 0.2 * i, 5.0))
        assert len(sq.buffer) == 18 and sq.rho == pytest.approx(4.6)
        monitor.apply_insert(_point_object("n8", 1.3, 5.0))
        assert len(sq.buffer) == 10
        assert sq.rho == max(sq.buffer.values()) == pytest.approx(3.3)
        assert sq.influence_radius() == sq.rho
        assert monitor.stats.full_recomputes == 0
        oracle = NaiveEvaluator(five_rooms, crowded_index.population)
        assert monitor.result_ids(b) == {
            oid for oid, _ in oracle.knn_query(Q1, 2)
        }


class TestInsertDelete:
    def test_insert_enters_results(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        b = monitor.register(KNNSpec(Q1, 2))
        monitor.apply_insert(_point_object("new", 5.0, 4.0))
        assert "new" in monitor.result_ids(a)
        assert "new" in monitor.result_ids(b)

    def test_insert_straddling_two_partitions(self, five_rooms_index):
        """An insert is a block of one — here a multi-subregion one
        (half in r1, half in the hallway) — through the same path as a
        move batch, for every maintainer kind."""
        specs = [
            RangeSpec(Q1, 10.0),
            RangeSpec(Q1, 3.0),
            KNNSpec(Q1, 2),
            ProbRangeSpec(Q1, 3.0, 0.4),
            ProbRangeSpec(Q1, 3.0, 0.6),
            CountSpec(Q1, 10.0, 3),
            OccupancySpec("r1", 3),
        ]
        monitor = QueryMonitor(five_rooms_index)
        qids = [monitor.register(spec) for spec in specs]
        obj = _two_spot("split", (5.0, 7.0), (5.0, 12.0))
        assert len(obj.subregions(five_rooms_index.space)) == 2
        monitor.apply_insert(obj)
        fresh = QueryMonitor(five_rooms_index)  # registration recomputes
        for spec, qid in zip(specs, qids):
            twin = fresh.register(spec)
            assert monitor.result_ids(qid) == fresh.result_ids(twin)
        count, occupancy = qids[-2:]
        assert monitor.result_distances(count) == {"count": 3.0}
        assert monitor.result_distances(occupancy) == {"occupancy": 3.0}
        stats = monitor.stats
        assert stats.pairs_evaluated == len(specs)
        assert stats.pairs_evaluated == (
            stats.pairs_skipped
            + stats.pairs_refined
            + stats.pairs_recomputed
        )

    def test_underflow_triggers_exactly_one_refill(self, crowded_index):
        monitor = QueryMonitor(crowded_index)
        b = monitor.register(KNNSpec(Q1, 2))
        # Eight deletions eat the band down to k entries: each is a
        # dropped entry plus a promotion, never a search.
        for victim in ["near", "mid", "b0", "b1", "b2", "b3", "b4", "b5"]:
            monitor.apply_delete(victim)
        assert monitor.result_ids(b) == {"b6", "b7"}
        assert monitor.stats.pairs_skipped == 8
        assert monitor.stats.full_recomputes == 0
        # The ninth drains it below k inside a finite rho: an unseen
        # outsider may now belong to the result — one refill finds it.
        monitor.apply_delete("b6")
        assert monitor.stats.full_recomputes == 1
        assert monitor.stats.pairs_recomputed == 1
        assert monitor.result_ids(b) == {"b7", "far"}
        # Three objects are left, fewer than the band wants: rho is
        # infinite and a short buffer is no underflow any more.
        assert monitor._queries[b].influence_radius() == math.inf
        monitor.apply_delete("b7")
        monitor.apply_delete("far")
        assert monitor.result_ids(b) == {"far2"}
        assert monitor.stats.full_recomputes == 1
        stats = monitor.stats
        assert stats.pairs_evaluated == (
            stats.pairs_skipped
            + stats.pairs_refined
            + stats.pairs_recomputed
        )

    def test_delete_outsider_is_free(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(KNNSpec(Q1, 2))
        monitor.apply_delete("far")
        assert monitor.stats.full_recomputes == 0

    def test_delete_drops_from_irq(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.apply_delete("near")
        assert "near" not in monitor.result_ids(a)
        assert monitor.stats.full_recomputes == 0


class TestTopologyEvents:
    def test_event_invalidates_session_cache(self, five_rooms_index,
                                             five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 40.0))
        assert monitor.session.misses == 1
        assert monitor.session._cached_version == five_rooms.topology_version
        monitor.apply_event(CloseDoor("d3"))
        # The resync re-ran the Dijkstra: a fresh miss, version tracked.
        assert monitor.session.misses == 2
        assert monitor.session._cached_version == five_rooms.topology_version
        assert monitor.stats.topology_invalidations == 1
        assert monitor.stats.event_recomputes == 1
        # r3 lost its only door: "far" must drop out of the result.
        assert "far" not in monitor.result_ids(a)
        oracle = NaiveEvaluator(five_rooms, five_rooms_index.population)
        assert monitor.result_ids(a) == oracle.range_query(Q1, 40.0)

    def test_reopen_restores_results(self, five_rooms_index, five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 40.0))
        before = monitor.result_ids(a)
        monitor.apply_event(CloseDoor("d3"))
        monitor.apply_event(OpenDoor("d3"))
        assert monitor.result_ids(a) == before
        assert monitor.stats.topology_invalidations == 2

    def test_external_topology_bump_detected(self, five_rooms_index,
                                             five_rooms):
        """Even a mutation not routed through apply_event resyncs on the
        next access (the session would otherwise serve stale searches)."""
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 40.0))
        five_rooms.topology_version += 1
        monitor.result_ids(a)  # any access notices the bump
        assert monitor.stats.topology_invalidations == 1
        assert monitor.session._cached_version == five_rooms.topology_version

    def test_events_do_not_count_as_bound_fallbacks(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q1, 40.0))
        monitor.apply_event(CloseDoor("d3"))
        assert monitor.stats.full_recomputes == 0
        assert monitor.stats.event_recomputes == 1


class TestSessionCachedVersion:
    """Direct coverage for QuerySession._cached_version (previously
    untested)."""

    def test_tracks_topology_version(self, five_rooms_index, five_rooms):
        session = QuerySession(five_rooms_index)
        assert session._cached_version == -1
        session.irq(Q1, 10.0)
        assert session._cached_version == five_rooms.topology_version
        five_rooms.topology_version += 1
        session.irq(Q1, 10.0)
        assert session._cached_version == five_rooms.topology_version
        assert session.misses == 2  # the bump emptied the cache


class TestDeregisterEvictsSessionCache:
    """Regression: deregistering a standing query used to leak its
    cached full Dijkstra in the QuerySession memo forever."""

    def test_cache_shrinks_on_deregister(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        b = monitor.register(RangeSpec(Point(25.0, 5.0, 0), 10.0))
        assert monitor.session.cache_size == 2
        monitor.deregister(a)
        assert monitor.session.cache_size == 1
        monitor.deregister(b)
        assert monitor.session.cache_size == 0

    def test_shared_point_keeps_cache_until_last(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        b = monitor.register(KNNSpec(Q1, 2))  # same point, shared search
        assert monitor.session.cache_size == 1
        monitor.deregister(a)
        assert monitor.session.cache_size == 1  # b still needs it
        monitor.deregister(b)
        assert monitor.session.cache_size == 0

    def test_shared_session_pins_across_monitors(self, five_rooms_index):
        """Pins live on the session, not the monitor: two monitors
        sharing one session must not evict each other's searches."""
        session = QuerySession(five_rooms_index)
        m1 = QueryMonitor(five_rooms_index, session=session)
        m2 = QueryMonitor(five_rooms_index, session=session)
        a = m1.register(RangeSpec(Q1, 10.0))
        b = m2.register(RangeSpec(Q1, 20.0))  # same point, other monitor
        assert session.cache_size == 1
        m1.deregister(a)
        assert session.cache_size == 1  # m2 still pins the point
        # ...and m2 keeps serving from the cache, not re-searching.
        hits = session.hits
        m2.apply_moves([_point_move("near", 4.5, 5.0)])
        assert session.hits > hits and session.misses == 1
        m2.deregister(b)
        assert session.cache_size == 0

    def test_evict_respects_pins(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q1, 10.0))
        assert not monitor.session.evict(Q1)  # pinned: refused
        assert monitor.session.cache_size == 1

    def test_stray_unpin_keeps_adhoc_cache(self, five_rooms_index):
        """A zero-pin unpin must not evict an entry that ad-hoc (never
        pinned) session queries are still reusing."""
        session = QuerySession(five_rooms_index)
        session.irq(Q1, 10.0)  # cached, unpinned
        assert not session.unpin(Q1)
        assert session.cache_size == 1

    def test_churning_queries_stay_bounded(self, five_rooms_index,
                                           five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        rng = __import__("random").Random(3)
        for _ in range(12):
            qid = monitor.register(
                RangeSpec(five_rooms.random_point(rng=rng), 10.0)
            )
            monitor.deregister(qid)
        assert monitor.session.cache_size == 0


class TestBelowK:
    """The surviving population dropping below k: the result shrinks
    legitimately, rho is infinite, later arrivals refill it."""

    def test_delete_below_k_shrinks_then_refills(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        b = monitor.register(KNNSpec(Q1, 3))  # exactly the population size
        assert monitor.result_ids(b) == {"near", "mid", "far"}
        monitor.apply_delete("far")
        assert monitor.result_ids(b) == {"near", "mid"}
        monitor.apply_delete("mid")
        assert monitor.result_ids(b) == {"near"}
        # A short buffer under an infinite rho is not an underflow.
        assert monitor._queries[b].influence_radius() == math.inf
        assert monitor.stats.full_recomputes == 0
        # An unfull result admits any reachable newcomer.
        monitor.apply_insert(_point_object("new", 5.0, 4.0))
        assert monitor.result_ids(b) == {"near", "new"}

    def test_unreachable_survivors_never_poison_tau(self, five_rooms_index,
                                                    five_rooms):
        from repro.space.events import CloseDoor

        monitor = QueryMonitor(five_rooms_index)
        b = monitor.register(KNNSpec(Q1, 3))
        # r3 loses its only door: "far" becomes unreachable and must
        # drop out (not linger with an infinite stored distance).
        monitor.apply_event(CloseDoor("d3"))
        assert monitor.result_ids(b) == {"near", "mid"}
        assert all(
            math.isfinite(d)
            for d in monitor.result_distances(b).values()
        )
        # A member deletion below k just shrinks the result (fewer
        # than k reachable: rho is infinite, nothing to refill from)...
        monitor.apply_delete("near")
        assert monitor.result_ids(b) == {"mid"}
        # ...and maintenance keeps working on the shrunken result, the
        # sealed-off object included.
        monitor.apply_moves([_point_move("mid", 7.0, 5.0)])
        monitor.apply_moves([_point_move("far", 24.0, 4.0)])
        assert monitor.result_ids(b) == {"mid"}
        assert monitor._queries[b].influence_radius() == math.inf
        assert monitor.stats.full_recomputes == 0
        assert monitor.stats.event_recomputes == 1

    def test_member_walking_unreachable_falls_back(self, five_rooms_index,
                                                   five_rooms):
        from repro.space.events import CloseDoor

        monitor = QueryMonitor(five_rooms_index)
        monitor.apply_event(CloseDoor("d3"))  # r3 sealed, "far" gone
        b = monitor.register(KNNSpec(Q1, 2))
        assert monitor.result_ids(b) == {"near", "mid"}
        # A member walks into the hallway-adjacent room r2 — fine — and
        # then the sealed room cannot be entered, so instead send it to
        # r4: still reachable, still a member or not by distance.
        monitor.apply_moves([_point_move("near", 5.0, 20.0)])  # r4
        assert monitor.result_ids(b) == {"near", "mid"}
        assert all(
            math.isfinite(d)
            for d in monitor.result_distances(b).values()
        )


class TestDuplicateMovesInBatch:
    """Regression: duplicate moves for one object in a single batch are
    absorbed last-write-wins, producing a single diff and delta."""

    def test_last_write_wins_no_net_change(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.drain_pending_deltas()
        batch = monitor.apply_moves([
            _point_move("far", 6.0, 6.0),    # would enter...
            _point_move("far", 25.0, 5.0),   # ...but ends where it began
        ])
        assert [obj.object_id for obj in batch.moved] == ["far"]
        assert monitor.stats.updates_seen == 1  # one diff, one pair-set
        assert not batch  # no net result change, no delta
        assert monitor.result_ids(a) == {"near", "mid"}

    def test_last_write_wins_enters_once(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.drain_pending_deltas()
        batch = monitor.apply_moves([
            _point_move("far", 25.0, 8.0),   # stale observation
            _point_move("far", 6.0, 6.0),    # final position: in range
        ])
        (delta,) = batch.for_query(a)
        assert set(delta.entered) == {"far"}
        assert monitor.result_ids(a) == {"near", "mid", "far"}


class TestStreamedEquivalence:
    """A short randomized stream against a realistic mall (the heavy,
    many-seed version lives in tests/properties/test_prop_monitor.py)."""

    def test_stream_matches_oracle(self, mall_setup, small_mall):
        index, gen, pop = mall_setup
        monitor = QueryMonitor(index)
        q = small_mall.random_point(seed=8)
        a = monitor.register(RangeSpec(q, 45.0))
        b = monitor.register(KNNSpec(q, 6))
        stream = MovementStream(small_mall, pop, gen, seed=13)
        for batch in stream.batches(4, 10):
            monitor.apply_moves(batch)
            oracle = NaiveEvaluator(small_mall, pop)
            assert monitor.result_ids(a) == oracle.range_query(q, 45.0)
            exact = oracle.all_distances(q)
            kth = oracle.kth_distance(q, 6)
            got = monitor.result_distances(b)
            reachable = sum(1 for d in exact.values() if math.isfinite(d))
            assert len(got) == min(6, reachable)
            for oid, d in got.items():
                assert exact[oid] <= kth + 1e-6
                assert exact[oid] == pytest.approx(d, abs=1e-6)
        assert monitor.stats.recompute_ratio < 1.0
        assert monitor.stats.pairs_skipped > 0


class TestRefillRegressionGuard:
    """A later change that silently brings back one from-scratch ikNNQ
    per drifting member fails here, in tier-1, instead of waiting for a
    benchmark run."""

    def test_member_drifts_do_not_cost_recomputes(self, mall_setup,
                                                  small_mall):
        index, gen, pop = mall_setup
        monitor = QueryMonitor(index)
        knns = [
            (monitor.register(KNNSpec(q, k)), q, k)
            for k, q in zip(
                (4, 5, 6),
                (small_mall.random_point(seed=s) for s in (8, 9, 10)),
            )
        ]
        stream = MovementStream(small_mall, pop, gen, seed=13)
        drifts = 0
        for batch in stream.batches(60, 4):
            before = {
                qid: monitor.result_distances(qid) for qid, _, _ in knns
            }
            monitor.apply_moves(batch)
            oracle = NaiveEvaluator(small_mall, pop)
            moved = {move.object_id for move in batch}
            for qid, q, k in knns:
                members = before[qid]
                if len(members) < k:
                    continue
                kth = max(members.values())
                exact = oracle.all_distances(q)
                # What the k-th-distance threshold alone would have
                # answered with a from-scratch ikNNQ each.
                drifts += sum(
                    1 for oid in moved & set(members) if exact[oid] > kth
                )
        assert drifts >= 10  # the stream does exercise the band
        assert monitor.stats.full_recomputes < drifts
        assert monitor.stats.full_recomputes <= 3


class TestDeleteCounting:
    """Regression: ``ingest_delete`` must count ``pairs_evaluated``
    only for queries that actually held the departing object — a
    deletion a maintainer never sees is not an evaluated pair."""

    def test_delete_of_unheld_object_counts_nothing(
        self, five_rooms_index
    ):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))  # near, mid only
        monitor.drain_pending_deltas()
        base = monitor.stats.pairs_evaluated
        batch = monitor.apply_delete("far")  # no query holds it
        assert monitor.stats.pairs_evaluated == base
        assert monitor.stats.updates_seen == 1
        assert batch.for_query(a) == ()
        assert monitor.result_ids(a) == {"near", "mid"}

    def test_delete_counts_one_pair_per_holder(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))   # holds near, mid
        b = monitor.register(RangeSpec(Q1, 2.0))    # holds near only
        monitor.drain_pending_deltas()
        base = monitor.stats.pairs_evaluated
        monitor.apply_delete("mid")   # held by a, not by b
        assert monitor.stats.pairs_evaluated == base + 1
        batch = monitor.apply_delete("near")  # held by both
        assert monitor.stats.pairs_evaluated == base + 3
        assert {d.query_id for d in batch.deltas} == {a, b}
        assert all(d.left == ("near",) for d in batch.deltas)

    def test_knn_member_delete_still_counted_and_refilled(
        self, five_rooms_index
    ):
        """Deleting an ikNNQ result member is real maintenance work
        (the vacated slot refills from the guard band) and must be
        counted."""
        monitor = QueryMonitor(five_rooms_index)
        b = monitor.register(KNNSpec(Q1, 2))  # result: near, mid
        monitor.drain_pending_deltas()
        base = monitor.stats.pairs_evaluated
        monitor.apply_delete("near")
        assert monitor.stats.pairs_evaluated > base
        assert monitor.result_ids(b) == {"mid", "far"}  # refilled


def _count_kernel_calls(monkeypatch):
    """Count calls of ``repro.distances.batch.block_object_bounds``
    through every ``repro`` module that holds the function (a
    ``from x import f`` copies the binding), as the benchmark's tracer
    patches it."""
    import sys

    from repro.distances import batch

    original = batch.block_object_bounds
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))  # the stack's size
        return original(*args, **kwargs)

    holders = [
        mod
        for name, mod in list(sys.modules.items())
        if name.startswith("repro")
        and mod is not None
        and mod.__dict__.get("block_object_bounds") is original
    ]
    assert batch in holders and len(holders) >= 2
    for mod in holders:
        monkeypatch.setattr(mod, "block_object_bounds", counting)
    return calls


def _stacked_points(monitor):
    """Query points of the monitor's current stack, in stack order."""
    return [pack.dd.source for pack in monitor._stack.packs]


def _assert_matches_fresh_registration(monitor, index):
    """Every standing result equals what registering the same spec on
    a fresh monitor (a from-scratch run) yields."""
    fresh = QueryMonitor(index)
    for qid in monitor.query_ids():
        twin = fresh.register(monitor.query_spec(qid))
        assert monitor.result_ids(qid) == fresh.result_ids(twin), qid


class TestQueryStack:
    """The monitor's stacked weight matrix: one bounds-kernel call per
    batch, rebuilt exactly when the query list or the layout moves."""

    Q3 = Point(25.0, 5.0, 0)  # inside r3

    def test_one_kernel_call_per_batch_whatever_q(
        self, five_rooms_index, monkeypatch
    ):
        calls = _count_kernel_calls(monkeypatch)
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(OccupancySpec("r1", 1))
        monitor.apply_moves([_point_move("near", 4.2, 5.0)])
        assert calls == []  # nothing to bound: no call at all
        assert monitor.stats.kernel_pairs == 0
        specs = [
            RangeSpec(Q1, 10.0),
            KNNSpec(Q1, 2),
            ProbRangeSpec(self.Q3, 3.0, 0.5),
            CountSpec(self.Q3, 10.0, 1),
        ]
        for n, spec in enumerate(specs * 3, start=1):
            monitor.register(spec)
            del calls[:]  # registration recomputes prune one-shot
            monitor.apply_moves(
                [
                    _point_move("near", 4.0 + 0.01 * n, 5.0),
                    _point_move("far", 25.0, 5.0 + 0.01 * n),
                ]
            )
            assert calls == [n]
            monitor.apply_insert(_point_object(f"new{n}", 15.0, 12.0))
            assert calls == [n, n]

    def test_kernel_pairs_count_only_stacked_pairs(self, five_rooms_index):
        """An occupancy watch never evaluates bounds: its pairs are
        evaluated (and skipped) but are no kernel pairs."""
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q1, 2.0))
        monitor.register(OccupancySpec("r1", 1))
        monitor.register(KNNSpec(Q1, 1))
        monitor.apply_moves(
            [_point_move("near", 4.5, 5.0), _point_move("far", 26.0, 5.0)]
        )
        stats = monitor.stats
        assert stats.pairs_evaluated == 6
        assert stats.kernel_pairs == 4
        assert stats.kernel_pruned <= stats.kernel_pairs
        # Occupancy's two skips are not kernel prunes.
        assert stats.pairs_skipped == stats.kernel_pruned + 2
        assert stats.pairs_evaluated == (
            stats.pairs_skipped
            + stats.pairs_refined
            + stats.pairs_recomputed
        )

    def test_registration_churn_rebuilds_before_next_ingest(
        self, five_rooms_index
    ):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        assert monitor._stack is None  # built by the first ingest
        monitor.apply_moves([_point_move("near", 4.1, 5.0)])
        assert _stacked_points(monitor) == [Q1]
        first = monitor._stack
        monitor.apply_moves([_point_move("near", 4.2, 5.0)])
        assert monitor._stack is first  # steady state: kept

        b = monitor.register(RangeSpec(self.Q3, 3.0))
        monitor.register(OccupancySpec("r3", 1))  # never stacked
        assert monitor._stack is None
        batch = monitor.apply_moves([_point_move("far", 26.0, 5.0)])
        assert _stacked_points(monitor) == [Q1, self.Q3]
        assert monitor.result_ids(b) == {"far"}
        # The new query's row is its own, not its neighbour's.
        assert {d.query_id for d in batch if d.cause == "move"} <= {b}

        monitor.deregister(a)
        assert monitor._stack is None
        monitor.apply_moves([_point_move("far", 29.5, 9.5)])
        assert _stacked_points(monitor) == [self.Q3]
        assert monitor.result_ids(b) == set()

        state = {"far": None}
        monitor.restore_query(ProbRangeSpec(self.Q3, 8.0, 0.5), "vip", state)
        assert monitor._stack is None
        monitor.apply_moves([_point_move("mid", 24.0, 5.0)])
        assert _stacked_points(monitor) == [self.Q3, self.Q3]
        assert monitor._stack.floor.tolist() == [[math.inf], [9.0]]
        assert monitor.result_ids("vip") == {"far", "mid"}
        _assert_matches_fresh_registration(monitor, five_rooms_index)

    def test_door_close_between_batches_rebuilds(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 12.0))
        b = monitor.register(KNNSpec(Q1, 3))
        monitor.apply_moves([_point_move("mid", 12.0, 5.0)])  # into r2
        assert monitor.result_ids(a) == {"near", "mid"}
        stale = monitor._stack
        monitor.apply_event(CloseDoor("d12"))  # r1 -> r2 only via h now
        monitor.apply_moves([_point_move("mid", 12.0, 5.5)])
        assert monitor._stack is not stale
        assert monitor._stack.layout is five_rooms_index.columns.layout()
        assert not (monitor._stack.w == stale.w).all()
        assert monitor.result_ids(a) == {"near"}
        assert monitor.result_ids(b) == {"near", "mid", "far"}
        _assert_matches_fresh_registration(monitor, five_rooms_index)

    def test_insert_and_far_move_match_from_scratch(self, five_rooms_index):
        """A block of one, then a batch whose envelope alone says
        "beyond" for a current member of every kind: the member must
        still leave, with the deltas a from-scratch run implies."""
        specs = [
            RangeSpec(Q1, 6.0),
            KNNSpec(Q1, 3),
            ProbRangeSpec(Q1, 6.0, 0.5),
            CountSpec(Q1, 6.0, 3),
        ]
        monitor = QueryMonitor(five_rooms_index)
        irq, knn, iprq, count = (monitor.register(s) for s in specs)
        monitor.drain_pending_deltas()
        entered = monitor.apply_insert(_point_object("new", 5.0, 4.0))
        assert {d.query_id: (set(d.entered), d.left) for d in entered} == {
            irq: ({"new"}, ()),
            knn: ({"new"}, ("far",)),
            iprq: ({"new"}, ()),
            count: ({"count"}, ()),
        }
        assert monitor.result_ids(knn) == {"near", "new", "mid"}
        _assert_matches_fresh_registration(monitor, five_rooms_index)
        # "near" jumps to the far corner of r3: lo > r for all rows.
        left = monitor.apply_moves([_point_move("near", 29.0, 1.0)])
        assert {d.query_id: (set(d.entered), d.left) for d in left} == {
            irq: (set(), ("near",)),
            knn: ({"far"}, ("near",)),
            iprq: (set(), ("near",)),
            count: (set(), ("count",)),
        }
        # Only the ikNNQ refined (the newcomer, then its moved member):
        # the three range kinds let "near" go on bounds alone.
        assert monitor.stats.pairs_refined == 2
        assert monitor.stats.pairs_skipped == 6
        _assert_matches_fresh_registration(monitor, five_rooms_index)


class TestNoPerPairWorkOnDecidedPairs:
    """What the array decision removed — one Python step per (standing
    query x moved object), one ``Q x rows`` table of Python floats per
    batch, one ``InstanceSet`` copy per own-partition subregion — cannot
    come back unnoticed."""

    def test_a_batch_beyond_every_reach_calls_no_maintainer(
        self, crowded_index, count_calls
    ):
        specs = [
            RangeSpec(Q1, 4.0),
            KNNSpec(Q1, 2),  # band radius 4.6
            ProbRangeSpec(Q1, 4.0, 0.5),
            CountSpec(Q1, 4.0, 2),
        ]
        monitor = QueryMonitor(crowded_index)
        for spec in specs:
            monitor.register(spec)
        monitor.drain_pending_deltas()
        before = {
            qid: monitor.result_distances(qid) for qid in monitor.query_ids()
        }
        walks = [
            count_calls(cls, "on_update_batch")
            for cls in (
                maintainers.RangeMaintainer,
                maintainers.KNNMaintainer,
                maintainers.ProbRangeMaintainer,
                maintainers.CountMaintainer,
            )
        ]
        rows = count_calls(BlockBounds, "row")
        # Both outsiders shuffle about r3, some twenty metres away.
        batch = monitor.apply_moves(
            [_point_move("far", 26.0, 3.0), _point_move("far2", 24.0, 6.0)]
        )
        assert [len(calls) for calls in walks] == [0, 0, 0, 0]
        assert rows == []  # no BoundsRow, hence no float list, was built
        assert batch.deltas == ()
        stats = monitor.stats
        assert stats.pairs_evaluated == stats.pairs_skipped == 2 * len(specs)
        assert stats.kernel_pairs == stats.kernel_pruned == 2 * len(specs)
        assert before == {
            qid: monitor.result_distances(qid) for qid in monitor.query_ids()
        }

    def test_a_far_member_is_still_handed_over(
        self, crowded_index, count_calls
    ):
        """Beyond reach but held: the one position the query must see,
        and the only one it is shown."""
        monitor = QueryMonitor(crowded_index)
        irq = monitor.register(RangeSpec(Q1, 4.0))
        walks = count_calls(
            maintainers.RangeMaintainer, "on_update_batch"
        )
        monitor.apply_moves(
            [_point_move("far", 26.0, 3.0), _point_move("near", 24.0, 6.0)]
        )
        ((_, _, _, positions),) = walks
        assert positions == [1]
        assert "near" not in monitor.result_ids(irq)
        assert monitor.stats.pairs_skipped == 2

    def test_ingest_and_one_shot_knn_build_no_subregion_copy(
        self, small_mall, count_calls
    ):
        """An ingest window with standing queries of every stacked kind
        — some asked from inside a moved object's own partitions, where
        the kernel's direct-path patch reads instances — and a one-shot
        ikNNQ (seed TLU, prune, refine) never call
        ``InstanceSet.subset``: rows are read from the parent set and
        the piece vector."""
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=20, seed=4)
        pop = gen.generate(80)
        index = CompositeIndex.build(small_mall, pop)
        grid = pop.grid
        wide = [o for o in pop if len(o.subregions(small_mall, grid)) > 1]
        assert wide
        monitor = QueryMonitor(index)
        stream = MovementStream(small_mall, pop, gen, seed=6)
        for obj in wide[:3]:
            q = obj.region.center
            monitor.register(RangeSpec(q, 25.0))
            monitor.register(KNNSpec(q, 5))
            monitor.register(ProbRangeSpec(q, 25.0, 0.5))
            monitor.register(CountSpec(q, 25.0, 3))
        subset = count_calls(InstanceSet, "subset")
        moved_wide = 0
        for batch in stream.batches(5, 20):
            moved = monitor.apply_moves(batch).moved
            moved_wide += sum(
                len(o.subregions(small_mall, grid)) > 1 for o in moved
            )
        assert moved_wide and monitor.stats.pairs_refined
        for obj in wide[:3]:
            assert len(ikNNQ(obj.region.center, 10, index).objects) == 10
        assert subset == []
