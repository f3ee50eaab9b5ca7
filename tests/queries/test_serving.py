"""Unit tests for the asyncio serving layer: subscription lifecycle,
delta fan-out, snapshot priming, drop-oldest backpressure and the
serve() loop.  Every mutation goes through the
:class:`~repro.api.service.QueryService` verbs — the one write path —
and :class:`MonitorServer` only fans out what they publish."""

import asyncio
import io

import pytest

from repro.api import wire
from repro.api.service import QueryService
from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.errors import QueryError
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
    DeltaBatch,
    MonitorServer,
    QueryMonitor,
    ResultDelta,
    Subscription,
    replay_deltas,
)
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
def service(five_rooms_index):
    return QueryService(five_rooms_index)


Q1 = Point(5.0, 5.0, 0)


class TestSubscriptions:
    def test_snapshot_primes_feed(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a)
            delta = await sub.next_delta()
            assert delta.cause == "snapshot"
            assert set(delta.entered) == {"near", "mid"}
            assert sub.delivered == 1

        asyncio.run(run())

    def test_unknown_query_rejected(self, five_rooms_index):
        server = MonitorServer(QueryMonitor(five_rooms_index))
        with pytest.raises(QueryError):
            server.subscribe("nope")

    def test_mutations_fan_out_to_subscribers(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            b = service.watch(KNNSpec(Q1, 2))
            sub_a = service.subscribe(a, snapshot=False)
            sub_b = service.subscribe(b, snapshot=False)
            service.ingest([_point_move("far", 6.0, 6.0)])
            delta = await sub_a.next_delta()
            assert delta.query_id == a and "far" in delta.entered
            delta = await sub_b.next_delta()
            assert delta.query_id == b and "far" in delta.entered
            assert sub_a.pending == 0

        asyncio.run(run())

    def test_replaying_feed_reconstructs_result(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a)  # snapshot makes replay complete
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.insert(_point_object("new", 5.0, 4.0))
            service.delete("mid")
            service.apply_event(CloseDoor("d12"))
            service.close()
            deltas = [d async for d in sub]
            assert replay_deltas(deltas) == service.result_distances(a)

        asyncio.run(run())

    def test_pending_excludes_close_sentinel(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a)  # snapshot queued
            assert sub.pending == 1
            service.close()
            assert sub.pending == 1  # the sentinel is not backlog
            assert (await sub.next_delta()).cause == "snapshot"
            assert sub.pending == 0
            assert await sub.next_delta() is None
            assert sub.pending == 0

        asyncio.run(run())

    def test_unsubscribe_ends_iteration(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a, snapshot=False)
            service.unsubscribe(sub)
            assert await sub.next_delta() is None
            service.ingest([_point_move("far", 6.0, 6.0)])
            assert sub.closed and sub.pending == 0

        asyncio.run(run())

    def test_deregister_pushes_final_delta_and_closes(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a, snapshot=False)
            service.unwatch(a)
            delta = await sub.next_delta()
            assert delta.cause == "deregister"
            assert set(delta.left) == {"near", "mid"}
            assert await sub.next_delta() is None

        asyncio.run(run())

    def test_closed_server_rejects_mutations(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            service.close()
            with pytest.raises(QueryError):
                service.ingest([])
            # A post-close subscription would hang its consumer forever
            # (nothing can ever publish or close it): refuse it instead.
            with pytest.raises(QueryError):
                service.server.subscribe(a)

        asyncio.run(run())


class TestProbRangeServing:
    """Standing iPRQ through the serving layer: same subscribe/publish
    plumbing, probability-annotated deltas."""

    def test_prob_range_feed_replays(self, service):
        async def run():
            c = service.watch(ProbRangeSpec(Q1, 10.0, 0.5))
            sub = service.subscribe(c)  # snapshot-primed
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.insert(_point_object("new", 5.0, 4.0))
            service.delete("mid")
            service.apply_event(CloseDoor("d12"))
            service.close()
            deltas = [d async for d in sub]
            assert replay_deltas(deltas) == service.result_distances(c)

        asyncio.run(run())


class TestDropHook:
    """publish() reports each standing query that lost deltas once —
    the feed-resumption trigger the service layer builds on."""

    def test_fires_once_per_lossy_query(self, service):
        async def run():
            feed = io.StringIO()
            service.attach_feed(feed)
            a = service.watch(RangeSpec(Q1, 10.0))

            def resyncs() -> int:
                return sum(
                    isinstance(record, wire.SnapshotRecord)
                    for record in wire.read_feed(
                        feed.getvalue().splitlines()
                    )
                )

            # Two bounded never-drained subscriptions on one query:
            # both shed in the same publish, the feed re-primes once.
            service.subscribe(a, snapshot=False, maxlen=1)
            service.subscribe(a, snapshot=False, maxlen=1)
            service.ingest([_point_move("far", 6.0, 6.0)])
            assert resyncs() == 0  # queues just filled, nothing shed yet
            service.ingest([_point_move("far", 25.0, 5.0)])
            assert resyncs() == 1
            assert service.deltas_dropped == 2
            lossy = ResultDelta(a, "move", entered={"far": 1.0})
            assert service.server.publish(DeltaBatch((lossy,))) == [a]

        asyncio.run(run())


class TestBackpressure:
    """Bounded subscription queues: drop-oldest overflow policy."""

    def test_maxlen_validated(self):
        with pytest.raises(QueryError):
            Subscription("q", maxlen=0)

    def test_push_drops_oldest_and_counts(self):
        sub = Subscription("q", maxlen=2)
        deltas = [
            ResultDelta("q", "move", entered={f"o{i}": float(i)})
            for i in range(4)
        ]
        for delta in deltas:
            sub._push(delta)
        assert sub.dropped == 2
        assert sub.pending == 2

        async def drain():
            return [await sub.next_delta() for _ in range(2)]

        assert asyncio.run(drain()) == deltas[2:]

    def test_close_sentinel_bypasses_the_bound(self):
        """A full bounded queue must still terminate its consumer: the
        end-of-stream sentinel is never dropped (and never drops data)."""
        sub = Subscription("q", maxlen=1)
        delta = ResultDelta("q", "move", entered={"o": 1.0})
        sub._push(delta)
        sub._close()
        assert sub.pending == 1  # the sentinel is not backlog

        async def drain():
            got = await sub.next_delta()
            assert got == delta
            return await sub.next_delta()

        assert asyncio.run(drain()) is None
        assert sub.dropped == 0

    def test_unbounded_default_never_drops(self, five_rooms_index):
        sub = Subscription("q")
        for i in range(100):
            sub._push(ResultDelta("q", "move", entered={f"o{i}": 1.0}))
        assert sub.dropped == 0 and sub.pending == 100

    def test_slow_subscriber_keeps_newest_state(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a, snapshot=False, maxlen=1)
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.ingest([_point_move("far", 25.0, 5.0)])
            assert sub.dropped == 1 and sub.pending == 1
            delta = await sub.next_delta()
            assert delta.left == ("far",)  # the newest delta survived

        asyncio.run(run())

    def test_resync_on_drop_appends_current_snapshot(self, service):
        """The network layer's in-band re-prime: a lossy publish to a
        ``resync_on_drop`` subscription is followed by a snapshot-cause
        delta carrying the query's *current* full result, so folding
        the queue tail converges exactly despite the loss."""

        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(
                a, snapshot=False, maxlen=1, resync_on_drop=True
            )
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.ingest([_point_move("far", 25.0, 5.0)])
            assert sub.dropped >= 1
            assert sub.resyncs >= 1
            # Drain and fold: the tail must end in a snapshot that
            # reproduces the live result exactly.
            state: dict[str, float | None] = {}
            saw_snapshot = False
            while sub.pending:
                delta = await sub.next_delta()
                if delta.cause == "snapshot":
                    saw_snapshot = True
                    state = dict(delta.entered)
                else:
                    delta.apply_to(state)
            assert saw_snapshot
            assert state == service.result_distances(a)

        asyncio.run(run())

    def test_resync_not_pushed_without_optin(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a, snapshot=False, maxlen=1)
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.ingest([_point_move("far", 25.0, 5.0)])
            assert sub.dropped == 1 and sub.resyncs == 0
            delta = await sub.next_delta()
            assert delta.cause != "snapshot"

        asyncio.run(run())

    def test_resync_skipped_for_deregistering_query(self, service):
        """A queue shedding its own deregister delta must not resync —
        the query is gone; there is no current result to re-prime
        from (and the final state must stay 'closed')."""

        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(
                a, snapshot=False, maxlen=1, resync_on_drop=True
            )
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.unwatch(a)  # lossy: evicts the move delta
            assert a not in service
            assert sub.resyncs == 0
            delta = await sub.next_delta()
            assert delta.cause == "deregister"

        asyncio.run(run())


class TestServeLoop:
    def test_serve_reports_and_feeds_subscribers(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=8, seed=3)
        pop = gen.generate(30)
        service = QueryService(CompositeIndex.build(small_mall, pop))
        q = small_mall.random_point(seed=8)
        a = service.watch(RangeSpec(q, 45.0))
        b = service.watch(KNNSpec(q, 4))
        stream = MovementStream(small_mall, pop, gen, seed=13)

        async def run():
            sub = service.subscribe(a)
            consumed: list = []

            async def consume():
                async for delta in sub:
                    consumed.append(delta)

            task = asyncio.ensure_future(consume())
            report = await service.serve(
                stream, n_batches=4, batch_size=10
            )
            service.close()
            await task
            return report, consumed

        report, consumed = asyncio.run(run())
        assert report.batches == 4
        assert report.updates == 40
        assert report.updates_per_sec > 0
        # Every published delta for `a` reached the subscriber, and the
        # replayed feed (snapshot included) equals the live result.
        assert replay_deltas(consumed) == service.result_distances(a)
        assert service.deltas_published >= report.deltas_published
        assert b in service  # untouched by the close

    def test_on_batch_hook_can_mutate(self, service, five_rooms):
        """The per-batch hook interleaves topology events (sync or
        async) with the served stream."""
        gen = ObjectGenerator(five_rooms, radius=1.0, n_instances=4, seed=2)
        a = service.watch(RangeSpec(Q1, 40.0))
        stream = MovementStream(
            five_rooms, service.index.population, gen, seed=5
        )
        seen: list[int] = []

        async def on_batch(batch_no, batch):
            seen.append(batch_no)
            if batch_no == 0:
                service.apply_event(CloseDoor("d3"))

        async def run():
            return await service.serve(
                stream, n_batches=2, batch_size=2, on_batch=on_batch
            )

        asyncio.run(run())
        assert seen == [0, 1]
        assert "far" not in service.result_ids(a)

    def test_subscribe_flushes_history(self, service, five_rooms):
        """A feed begins at its own snapshot: the register delta parked
        by a registration made straight on the monitor is flushed at
        subscribe time, not replayed into the new feed."""
        gen = ObjectGenerator(five_rooms, radius=1.0, n_instances=4, seed=2)
        a = service.monitor.register(RangeSpec(Q1, 10.0))
        sub = service.subscribe(a, snapshot=False)
        stream = MovementStream(
            five_rooms, service.index.population, gen, seed=5
        )

        async def run():
            await service.serve(stream, n_batches=1, batch_size=1)
            service.close()
            return [d async for d in sub]

        deltas = asyncio.run(run())
        assert all(d.cause != "register" for d in deltas)

    def test_serve_counts_filtered_duplicates_once(self, service):
        service.watch(RangeSpec(Q1, 10.0))
        batch = service.ingest([
            _point_move("far", 6.0, 6.0),
            _point_move("far", 25.0, 5.0),
        ])
        assert len(batch.moved) == 1  # last-write-wins, single diff
