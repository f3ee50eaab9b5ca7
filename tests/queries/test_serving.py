"""Unit tests for the asyncio serving layer: subscription lifecycle,
delta fan-out, snapshot priming, and drop-oldest backpressure with its
snapshot re-prime.  Every mutation goes through the
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


async def _skip_prime(sub):
    """Consume a fresh subscription's priming snapshot."""
    assert (await sub.next_delta()).cause == "snapshot"


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
            sub_a = service.subscribe(a)
            sub_b = service.subscribe(b)
            await _skip_prime(sub_a)
            await _skip_prime(sub_b)
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
            sub = service.subscribe(a)
            service.unsubscribe(sub)
            await _skip_prime(sub)  # queued before the close
            assert await sub.next_delta() is None
            service.ingest([_point_move("far", 6.0, 6.0)])
            assert sub.closed and sub.pending == 0

        asyncio.run(run())

    def test_deregister_pushes_final_delta_and_closes(self, service):
        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a)
            await _skip_prime(sub)
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
            service.subscribe(a, maxlen=2)
            service.subscribe(a, maxlen=2)
            service.ingest([_point_move("far", 6.0, 6.0)])
            assert resyncs() == 0  # prime + delta: full, nothing shed
            service.ingest([_point_move("far", 25.0, 5.0)])
            assert resyncs() == 1
            # Each queue sheds its prime for the new delta, then the
            # older delta for its own re-prime.
            assert service.deltas_dropped == 4
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
            sub = service.subscribe(a, maxlen=1)
            service.ingest([_point_move("far", 6.0, 6.0)])
            service.ingest([_point_move("far", 25.0, 5.0)])
            # Every push into the full queue drops: the prime, each
            # move delta, and the first re-prime.
            assert sub.dropped == 4 and sub.pending == 1
            assert sub.resyncs == 2
            delta = await sub.next_delta()
            # The newest state survived: the post-batch snapshot.
            assert delta.cause == "snapshot"
            assert delta.entered == service.result_distances(a)
            assert "far" not in delta.entered

        asyncio.run(run())

    def test_lossy_publish_appends_current_snapshot(self, service):
        """The in-band re-prime: a lossy publish to a bounded
        subscription is followed by a snapshot-cause delta carrying
        the query's *current* full result, so folding the queue tail
        converges exactly despite the loss."""

        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a, maxlen=2)
            for x in (6.0, 25.0, 6.5):
                service.ingest([_point_move("far", x, 6.0)])
            assert sub.dropped >= 1
            assert sub.resyncs >= 1
            service.close()
            deltas = [d async for d in sub]
            assert deltas[-1].cause == "snapshot"
            assert replay_deltas(deltas) == service.result_distances(a)

        asyncio.run(run())

    def test_resync_skipped_for_deregistering_query(self, service):
        """A queue shedding its own deregister delta must not resync —
        the query is gone; there is no current result to re-prime
        from (and the final state must stay 'closed')."""

        async def run():
            a = service.watch(RangeSpec(Q1, 10.0))
            sub = service.subscribe(a, maxlen=1)
            service.ingest([_point_move("far", 6.0, 6.0)])
            resyncs = sub.resyncs
            service.unwatch(a)  # lossy: evicts the re-prime
            assert a not in service
            assert sub.resyncs == resyncs
            delta = await sub.next_delta()
            assert delta.cause == "deregister"

        asyncio.run(run())


class TestFeedHistory:
    def test_subscribe_flushes_history(self, service):
        """A feed begins at its own snapshot: the register delta parked
        by a registration made straight on the monitor is flushed at
        subscribe time, not replayed into the new feed."""
        a = service.monitor.register(RangeSpec(Q1, 10.0))
        sub = service.subscribe(a)
        service.ingest([_point_move("far", 6.0, 6.0)])

        async def run():
            service.close()
            return [d async for d in sub]

        deltas = asyncio.run(run())
        assert [d.cause for d in deltas] == ["snapshot", "move"]

    def test_ingest_counts_filtered_duplicates_once(self, service):
        service.watch(RangeSpec(Q1, 10.0))
        batch = service.ingest([
            _point_move("far", 6.0, 6.0),
            _point_move("far", 25.0, 5.0),
        ])
        assert len(batch.moved) == 1  # last-write-wins, single diff


class TestBoundedFold:
    """A bounded feed folded with :meth:`ResultDelta.apply_to` /
    :func:`replay_deltas` ends at the live result: each lossy publish
    is followed by a snapshot, and a snapshot *replaces* the folded
    state — a member whose ``left`` was dropped must not linger."""

    def test_snapshot_delta_replaces_state(self):
        state = {"stale": 1.0, "kept": 2.0}
        ResultDelta("q", "snapshot", {"kept": 2.5}).apply_to(state)
        assert state == {"kept": 2.5}
        assert replay_deltas(
            [
                ResultDelta("q", "register", {"a": 1.0, "b": 2.0}),
                ResultDelta("q", "snapshot", {"b": 2.0}),
            ]
        ) == {"b": 2.0}

    @pytest.mark.parametrize("seed", range(10))
    def test_fold_across_drops_matches_live(self, small_mall, seed):
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=8, seed=seed)
        pop = gen.generate(80)
        service = QueryService(CompositeIndex.build(small_mall, pop))
        q = small_mall.random_point(seed=seed + 100)
        sub = service.subscribe(RangeSpec(q, 40.0), maxlen=2)
        stream = MovementStream(small_mall, pop, gen, seed=seed + 200)
        state: dict[str, float | None] = {}

        async def drain():
            while sub.pending:
                (await sub.next_delta()).apply_to(state)

        async def run():
            for _ in range(5):  # a consumer that keeps up
                service.ingest(stream.next_moves(20))
                await drain()
            for _ in range(30):  # falls behind: the queue sheds
                service.ingest(stream.next_moves(20))
            await drain()

        asyncio.run(run())
        assert sub.dropped > 0
        assert state == service.result_distances(sub.query_id)
