"""QueryService façade tests: run/watch/subscribe/ingest against the
legacy entry points for all three spec kinds, the single id-claiming
guard, ServiceConfig engine selection, and feed plumbing."""

import asyncio
import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.api.service import QueryService, ServiceConfig
from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.errors import QueryError, ReproError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    MovementStream,
    ObjectGenerator,
    ObjectPopulation,
    UncertainObject,
)
from repro.objects.population import ObjectMove
from repro.queries import (
    QueryMonitor,
    QuerySession,
    iPRQ,
    iRQ,
    ikNNQ,
    replay_deltas,
)
from repro.persist import WalWriter
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
    pop.insert(_point_object("near", 4.0, 5.0))
    pop.insert(_point_object("mid", 8.0, 5.0))
    pop.insert(_point_object("far", 25.0, 5.0))
    return CompositeIndex.build(five_rooms, pop)


@pytest.fixture
def mall_setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=10, seed=77)
    pop = gen.generate(40)
    index = CompositeIndex.build(small_mall, pop)
    return index, gen, pop


Q1 = Point(5.0, 5.0, 0)
Q3 = Point(25.0, 5.0, 0)


class TestRun:
    """run(spec) is bit-identical to the legacy one-shot entry points."""

    def test_range_spec_matches_irq(self, mall_setup, small_mall):
        index, _gen, _pop = mall_setup
        service = QueryService(index)
        for seed, r in ((1, 25.0), (2, 40.0), (3, 60.0)):
            q = small_mall.random_point(seed=seed)
            got = service.run(RangeSpec(q, r))
            assert got.ids() == iRQ(q, r, index).ids()
            # ...and bit-identical to the session path it wraps.
            want = QuerySession(index).irq(q, r)
            assert got.distances == want.distances

    def test_knn_spec_matches_iknnq(self, mall_setup, small_mall):
        index, _gen, _pop = mall_setup
        service = QueryService(index)
        for seed, k in ((1, 3), (2, 5), (4, 8)):
            q = small_mall.random_point(seed=seed)
            got = service.run(KNNSpec(q, k))
            assert got.ids() == ikNNQ(q, k, index).ids()
            want = QuerySession(index).iknnq(q, k)
            assert got.distances == want.distances

    def test_prob_range_spec_matches_iprq(self, mall_setup, small_mall):
        index, _gen, _pop = mall_setup
        service = QueryService(index)
        q = small_mall.random_point(seed=5)
        got = service.run(ProbRangeSpec(q, 30.0, 0.5))
        want = iPRQ(q, 30.0, 0.5, index)
        assert got.ids() == want.ids()
        assert got.distances == want.distances

    def test_result_order_is_independent_of_the_hash_seed(self):
        """``run()`` returns candidates in the index's slot order, not
        in the iteration order of a ``set[str]`` bucket: the same query
        yields the same id *sequence* in every interpreter."""
        script = (
            "from repro import (CompositeIndex, ObjectGenerator,"
            " QueryService, build_mall)\n"
            "from repro.api import KNNSpec, ProbRangeSpec, RangeSpec\n"
            "space = build_mall(floors=2, bands=2, rooms_per_band_side=3,"
            " floor_size=120.0, hallway_width=4.0, stair_size=10.0, seed=42)\n"
            "pop = ObjectGenerator(space, radius=3.0, n_instances=10,"
            " seed=77).generate(60)\n"
            "service = QueryService(CompositeIndex.build(space, pop))\n"
            "q = space.random_point(seed=3)\n"
            "for spec in (RangeSpec(q, 90.0), KNNSpec(q, 12),"
            " ProbRangeSpec(q, 90.0, 0.5)):\n"
            "    found = service.run(spec).objects\n"
            "    print(' '.join(o.object_id for o in found))\n"
        )
        repo = pathlib.Path(__file__).parents[2]
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(repo / "src")]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append(proc.stdout.splitlines())
        assert len(outputs[0]) == 3
        assert all(len(line.split()) >= 5 for line in outputs[0])
        assert outputs[0] == outputs[1]

    def test_run_shares_the_session_cache(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        service.run(RangeSpec(Q1, 10.0))
        assert service.session.misses == 1
        service.run(KNNSpec(Q1, 2))  # same point: cache hit
        assert service.session.hits == 1

    def test_unknown_spec_rejected(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        with pytest.raises(QueryError):
            service.run(("irq", Q1, 10.0))


class TestWatchAndIngest:
    """watch + ingest maintain results bit-identical to a legacy
    QueryMonitor driven with the same mutations."""

    def test_matches_legacy_monitor(self, mall_setup, small_mall):
        """Results *and* every mutation's delta batch equal the legacy
        monitor's, and the fan-out loses or duplicates nothing: one
        snapshot-free subscription per query receives exactly the
        deltas the service published."""
        index, gen, pop = mall_setup
        # Twin world for the legacy monitor (streams mutate the index).
        gen2 = ObjectGenerator(
            small_mall, radius=3.0, n_instances=10, seed=77
        )
        pop2 = gen2.generate(40)
        index2 = CompositeIndex.build(small_mall, pop2)
        legacy = QueryMonitor(index2)

        service = QueryService(index)
        qa, qb = (small_mall.random_point(seed=s) for s in (11, 12))
        specs = [
            RangeSpec(qa, 30.0), KNNSpec(qb, 4), ProbRangeSpec(qa, 30.0, 0.5)
        ]
        ids = [service.watch(spec) for spec in specs]
        # Auto ids on both sides, so the deltas compare by value.
        assert [legacy.register(spec) for spec in specs] == ids
        # The service published its registrations to nobody; drop the
        # legacy monitor's, which would otherwise open its next batch.
        legacy.drain_pending_deltas()
        published_before = service.deltas_published
        subs = [service.subscribe(qid) for qid in ids]
        changed: set[str] = set()

        def assert_same(batch, legacy_batch):
            assert batch.deltas == legacy_batch.deltas
            changed.update(d.query_id for d in batch.deltas)
            for qid in ids:
                assert service.result_distances(qid) == \
                    legacy.result_distances(qid)

        stream = MovementStream(small_mall, pop, gen, seed=5)
        for _ in range(6):
            moves = stream.next_moves(12)
            assert_same(service.ingest(moves), legacy.apply_moves(moves))

        obj = gen.generate_one()
        assert_same(service.insert(obj), legacy.apply_insert(obj))
        # A current ikNNQ member, so the delete changes a result.
        victim = min(service.result_ids(ids[1]))
        assert_same(service.delete(victim), legacy.apply_delete(victim))
        assert changed == set(ids)

        # Every published delta reached its one feed, after the feed's
        # priming snapshot.
        published = service.deltas_published - published_before
        assert sum(sub.delivered + sub.pending for sub in subs) == \
            published + len(subs)

    def test_watch_prob_range_spec(self, five_rooms_index, five_rooms):
        """Standing iPRQ end to end through the façade: watch, ingest,
        delete — membership tracks the one-shot iPRQ after every
        mutation and the feed replays to the live result."""
        from repro.reference import NaiveEvaluator
        from repro.queries import iPRQ

        service = QueryService(five_rooms_index)
        c = service.watch(ProbRangeSpec(Q1, 10.0, 0.5))
        assert service.query_spec(c) == ProbRangeSpec(Q1, 10.0, 0.5)
        service.ingest([_point_move("far", 6.0, 6.0)])
        assert service.result_ids(c) == iPRQ(
            Q1, 10.0, 0.5, five_rooms_index
        ).ids()
        service.delete("mid")
        oracle = NaiveEvaluator(five_rooms, five_rooms_index.population)
        assert service.result_ids(c) == \
            oracle.prob_range_query(Q1, 10.0, 0.5)

    def test_unwatch_and_introspection(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        a = service.watch(RangeSpec(Q1, 10.0), query_id="kiosk")
        assert a == "kiosk" and a in service and len(service) == 1
        assert service.query_ids() == ["kiosk"]
        assert service.query_spec(a) == RangeSpec(Q1, 10.0)
        assert service.result_ids(a) == {"near", "mid"}
        assert service.results() == {"kiosk": {"near", "mid"}}
        service.unwatch(a)
        assert a not in service
        with pytest.raises(QueryError):
            service.result_ids(a)

    def test_topology_event_resyncs(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        a = service.watch(RangeSpec(Q1, 6.0))
        assert service.result_ids(a) == {"near", "mid"}
        result = service.apply_event(CloseDoor("d12"))
        assert result is not None
        assert service.stats.topology_invalidations >= 1
        # Results stay correct under the new topology.
        assert service.result_ids(a) == iRQ(
            Q1, 6.0, service.index
        ).ids()


class TestStandingProbRangeDeltas:
    """Standing iPRQs watched through the service and driven by a
    movement stream emit deltas, and each ends on the one-shot
    result."""

    def test_standing_iprqs_emit_deltas(self, mall_setup, small_mall):
        from repro.queries import iPRQ

        index, gen, pop = mall_setup
        service = QueryService(index)
        ids = [
            service.watch(
                ProbRangeSpec(small_mall.random_point(seed=s), 25.0, 0.5)
            )
            for s in (11, 12)
        ]
        emitted = 0
        stream = MovementStream(small_mall, pop, gen, seed=5)
        for moves in stream.batches(4, 10):
            batch = service.ingest(moves)
            emitted += sum(d.query_id in ids for d in batch.deltas)
        assert emitted > 0, "standing iPRQs never changed"
        for qid in ids:
            spec = service.query_spec(qid)
            assert service.result_ids(qid) == iPRQ(
                spec.q, spec.r, spec.p_min, index
            ).ids()


class TestNonFiniteLocationsFailClosed:
    """A NaN or infinite coordinate or probability never reaches the
    index: ``InstanceSet`` refuses it and keeps its arrays read-only,
    and a set forged by re-enabling writes on its own array and writing
    after construction is refused by the write, before the index, the
    standing results or the WAL change."""

    @pytest.mark.parametrize(
        "xy, probs",
        [
            ([[4.0, 5.0], [5.0, 5.0]], [np.nan, 0.5]),
            ([[4.0, 5.0], [5.0, 5.0]], [np.inf, 0.0]),
            ([[np.nan, 5.0], [5.0, 5.0]], [0.5, 0.5]),
            ([[4.0, 5.0], [5.0, -np.inf]], [0.5, 0.5]),
        ],
    )
    def test_instance_set_refuses_non_finite_input(self, xy, probs):
        with pytest.raises(ReproError, match="finite"):
            InstanceSet(np.array(xy), 0, np.array(probs))

    @pytest.mark.parametrize(
        "column, value",
        [
            ("probs", np.nan),
            ("probs", np.inf),
            ("xy", np.nan),
            ("xy", -np.inf),
        ],
    )
    def test_ingest_of_a_forged_move_changes_nothing(
        self, five_rooms_index, column, value
    ):
        index = five_rooms_index
        service = QueryService(index)
        qid = service.watch(RangeSpec(Q1, 10.0))
        wal = io.StringIO()
        service.attach_wal(WalWriter(wal))
        service.ingest([_point_move("far", 6.0, 5.0)])
        before = (
            service.result_distances(qid),
            wal.getvalue(),
            index.population.get("mid"),
            index.columns.units_of("mid"),
        )
        forged = InstanceSet(
            np.array([[4.0, 5.0], [5.0, 5.0]]), 0, np.array([0.5, 0.5])
        )
        array = getattr(forged, column)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = value
        array.flags.writeable = True  # forged after construction
        array[0] = value
        move = ObjectMove("mid", Circle(Point(4.5, 5.0, 0), 1.0), forged)
        with pytest.raises(ReproError):
            service.ingest([move])
        assert (
            service.result_distances(qid),
            wal.getvalue(),
            index.population.get("mid"),
            index.columns.units_of("mid"),
        ) == before
        assert index.validate() == []
        service.detach_wal()


class TestIdClaiming:
    def test_duplicate_explicit_id_rejected(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        service.watch(RangeSpec(Q1, 10.0), query_id="kiosk")
        with pytest.raises(QueryError):
            service.watch(KNNSpec(Q3, 2), query_id="kiosk")

    def test_generated_ids_skip_claimed(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        service.watch(RangeSpec(Q1, 10.0), query_id="irq-1")
        auto = service.watch(RangeSpec(Q1, 12.0))
        assert auto != "irq-1" and len(service) == 2

    def test_id_claimed_on_the_monitor_rejected(self, five_rooms_index):
        """An id claimed directly on the monitor cannot be re-claimed
        through the service."""
        service = QueryService(five_rooms_index)
        service.monitor.register(RangeSpec(Q3, 5.0), query_id="rogue")
        with pytest.raises(QueryError):
            service.watch(RangeSpec(Q1, 5.0), query_id="rogue")

    def test_claim_validates_spec(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        with pytest.raises(QueryError):
            service.claim_query_id("x", ("irq", Q1, 5.0))
        # A watchable iPRQ spec claims its own kind prefix.
        assert service.claim_query_id(
            None, ProbRangeSpec(Q1, 5.0, 0.5)
        ).startswith("iprq-")


class TestServiceConfig:
    def test_single_monitor_by_default(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        assert isinstance(service.monitor, QueryMonitor)
        assert service.routing is None

    def test_invalid_config_rejected(self):
        with pytest.raises(QueryError):
            ServiceConfig(n_shards=0)
        with pytest.raises(QueryError):
            ServiceConfig(workers=0)

    def test_closed_service_rejects_work(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        a = service.watch(RangeSpec(Q1, 10.0))
        service.close()
        with pytest.raises(QueryError):
            service.ingest([_point_move("far", 6.0, 6.0)])
        with pytest.raises(QueryError):
            service.watch(RangeSpec(Q1, 5.0))
        with pytest.raises(QueryError):
            service.subscribe(a)


class TestSubscribe:
    def test_subscribe_by_spec_registers_and_primes(
        self, five_rooms_index
    ):
        async def run():
            service = QueryService(five_rooms_index)
            sub = service.subscribe(RangeSpec(Q1, 10.0))
            assert sub.query_id in service
            delta = await sub.next_delta()
            assert delta.cause == "snapshot"
            assert set(delta.entered) == {"near", "mid"}

        asyncio.run(run())

    def test_subscription_replays_to_live_result(self, five_rooms_index):
        async def run():
            service = QueryService(five_rooms_index)
            sub = service.subscribe(KNNSpec(Q1, 2))
            qid = sub.query_id
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.ingest([_point_move("far", 25.0, 5.0)])
            service.delete("mid")
            service.close()  # ends the stream so the fold terminates
            seen = []
            async for delta in sub:
                seen.append(delta)
            assert replay_deltas(seen) == service.result_distances(qid)

        asyncio.run(run())

    def test_bounded_feed_drops_and_reprimes(self, mall_setup, small_mall):
        """A bounded feed's losses add up on the service, and what
        survives in a never-drained queue is the current result."""
        index, gen, pop = mall_setup
        service = QueryService(index)
        q = small_mall.random_point(seed=11)
        # A kNN feed churns every batch (member moves re-refine stored
        # distances), so a maxlen=1 queue must shed continuously.
        sub = service.subscribe(KNNSpec(q, 4), maxlen=1)
        unbounded = service.subscribe(sub.query_id)
        stream = MovementStream(small_mall, pop, gen, seed=5)
        for _ in range(6):
            service.ingest(stream.next_moves(15))
        assert service.deltas_dropped == sub.dropped > 0
        assert unbounded.dropped == 0 and unbounded.maxlen is None
        assert sub.pending == 1

        async def newest():
            return await sub.next_delta()

        delta = asyncio.run(newest())
        assert delta.cause == "snapshot"
        assert delta.entered == service.result_distances(sub.query_id)

    def test_subscribe_unknown_id_rejected(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        with pytest.raises(QueryError):
            service.subscribe("nope")
