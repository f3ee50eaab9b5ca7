"""Async serving: fan a movement stream into a monitor, push deltas out.

The monitor's per-update maintenance is already ``O(standing queries)``
(:mod:`repro.queries.monitor`) — the serving layer is the remaining
plumbing: a :class:`MonitorServer` drives batches of position updates
through the monitor inside an asyncio event loop and pushes every
emitted :class:`~repro.queries.deltas.ResultDelta` into the per-query
queues of its :class:`Subscription`\\ s, so consumers ``async for``
over result *changes* instead of polling result sets.

Single-writer by design: all index mutation happens through the
server's ``apply_*`` coroutines (or :meth:`serve`): the monitor's call
runs to completion inline and then yields to the loop.  Subscribers
are decoupled through per-query queues — unbounded
by default (a slow consumer delays only itself), or bounded with
``maxlen`` under a drop-oldest overflow policy
(:attr:`Subscription.dropped` counts the losses; a feed that dropped
deltas no longer replays exactly and should be re-primed with a fresh
snapshot).  :attr:`Subscription.pending` exposes the backlog either
way.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable

from repro.api.specs import QuerySpec
from repro.errors import QueryError
from repro.objects.generator import MovementStream
from repro.objects.population import ObjectMove
from repro.objects.uncertain import UncertainObject
from repro.queries.deltas import DeltaBatch, ResultDelta
from repro.queries.monitor import QueryMonitor
from repro.space.events import TopologyEvent

#: Queue sentinel marking the end of a subscription's delta stream.
_CLOSED = object()


class Subscription:
    """One consumer's live view of one standing query.

    An async iterator of :class:`ResultDelta`; iteration ends when the
    subscription is cancelled (:meth:`MonitorServer.unsubscribe`), its
    query is deregistered, or the server closes.

    ``maxlen`` bounds the queue: when a push would exceed it, the
    *oldest* queued delta is dropped and ``dropped`` is incremented —
    the newest state always gets through, and the consumer can detect
    the gap (``dropped > 0`` means the feed no longer replays exactly;
    resubscribe with a snapshot to re-prime).  ``None`` keeps the
    PR-2 unbounded behaviour.
    """

    def __init__(
        self,
        query_id: str,
        maxlen: int | None = None,
        resync_on_drop: bool = False,
    ) -> None:
        if maxlen is not None and maxlen < 1:
            raise QueryError(f"maxlen must be >= 1, got {maxlen}")
        self.query_id = query_id
        self.maxlen = maxlen
        #: When set, the server re-primes this feed in-band after a
        #: drop: a synthetic ``snapshot`` delta carrying the query's
        #: *current* full result is queued right after the lossy
        #: publish, so the consumer's replayed state snaps back to
        #: exact instead of staying diverged (the queue-level analogue
        #: of the wire feeds' mid-stream snapshot records).
        self.resync_on_drop = resync_on_drop
        self.delivered = 0
        self.dropped = 0
        #: Snapshot re-primes pushed by the drop-resync path.
        self.resyncs = 0
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False

    @property
    def pending(self) -> int:
        """Deltas queued but not yet consumed (consumer backlog).

        The end-of-stream sentinel a close enqueues is internal
        plumbing, not backlog — it is excluded from the count.
        """
        n = self._queue.qsize()
        if self._closed and n:
            return n - 1  # the sentinel is always the last item
        return n

    @property
    def closed(self) -> bool:
        return self._closed

    async def next_delta(self) -> ResultDelta | None:
        """The next delta, or ``None`` once the stream has ended."""
        if self._closed and self._queue.empty():
            return None
        item = await self._queue.get()
        if item is _CLOSED:
            return None
        self.delivered += 1
        return item

    def __aiter__(self) -> AsyncIterator[ResultDelta]:
        return self

    async def __anext__(self) -> ResultDelta:
        delta = await self.next_delta()
        if delta is None:
            raise StopAsyncIteration
        return delta

    # -- server side ---------------------------------------------------

    def _push(self, delta: ResultDelta) -> bool:
        """Enqueue a delta; returns whether an older delta was dropped
        to make room (the server aggregates these into its own
        ``deltas_dropped`` total)."""
        if self._closed:
            return False
        dropped = False
        if (
            self.maxlen is not None
            and self._queue.qsize() >= self.maxlen
        ):
            # Drop-oldest: a consumer this far behind wants the newest
            # state, not a complete history it will never catch up on.
            self._queue.get_nowait()
            self.dropped += 1
            dropped = True
        self._queue.put_nowait(delta)
        return dropped

    def _close(self) -> None:
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(_CLOSED)


@dataclass
class ServeReport:
    """Aggregate outcome of one :meth:`MonitorServer.serve` run.

    ``deltas_dropped`` totals the queue overflows across every bounded
    subscription during the run (each one also counts on its own
    :attr:`Subscription.dropped`) — a nonzero value means some feed was
    lossy and no longer replays exactly, which belongs in benchmark
    tables and ops dashboards, not buried per-subscriber.
    """

    batches: int = 0
    updates: int = 0
    deltas_published: int = 0
    deltas_dropped: int = 0
    elapsed_s: float = 0.0

    @property
    def updates_per_sec(self) -> float:
        return self.updates / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def deltas_per_sec(self) -> float:
        return (
            self.deltas_published / self.elapsed_s if self.elapsed_s else 0.0
        )


@dataclass
class MonitorServer:
    """Delta-pushing front-end over a query monitor.

    Usage::

        server = MonitorServer(QueryMonitor(index))
        kiosk = server.register(RangeSpec(q, 60.0))
        sub = server.subscribe(kiosk)           # primed with a snapshot

        async def consume():
            async for delta in sub:
                render(delta)

        async def produce():
            await server.serve(stream, n_batches=100, batch_size=50)
            server.close()

        asyncio.run(asyncio.gather(produce(), consume()))
    """

    monitor: QueryMonitor
    #: Called with every batch handed to :meth:`publish` (after fan-out)
    #: — the tap :class:`repro.api.service.QueryService` uses to mirror
    #: published deltas onto attached JSONL wire feeds.
    on_publish: Callable[[DeltaBatch], None] | None = None
    #: Called once per standing query that lost at least one delta to a
    #: bounded subscription's drop-oldest policy during a publish
    #: (after ``on_publish``) — the hook the service layer uses to
    #: emit a mid-stream snapshot record into attached wire feeds, so
    #: a feed consumer re-primes exactly at the loss point.
    on_drop: Callable[[str], None] | None = None
    #: Called with ``(kind, payload)`` after each mutation coroutine's
    #: op succeeds — inside the writer lock, before the fan-out — for
    #: every batch driven through the ``apply_*`` verbs (``serve``
    #: loops and the network layer included).  The tap
    #: :class:`repro.api.service.QueryService` uses to append these
    #: *inputs* to its write-ahead log; its own synchronous verbs log
    #: directly and never reach this hook, so nothing double-logs.
    on_mutation: Callable[[str, object], None] | None = None
    deltas_published: int = 0
    #: Total queue overflows across all bounded subscriptions.
    deltas_dropped: int = 0
    _subs: dict[str, list[Subscription]] = field(default_factory=dict)
    _closed: bool = False
    # Thread-level writer lock around the monitor mutation itself: a
    # server loop runs on its own thread, and the QueryService façade's
    # *synchronous* mutation path takes this same lock, so a sync
    # ingest from another thread can never interleave with a batch the
    # loop is absorbing (see QueryService._publish).  On the loop
    # itself an op runs to completion with no await point, publish
    # included, so concurrent apply_* callers cannot interleave.
    _op_lock: threading.Lock = field(default_factory=threading.Lock)

    # ------------------------------------------------------------------
    # registration / subscription
    # ------------------------------------------------------------------

    def register(
        self,
        spec: QuerySpec,
        query_id: str | None = None,
    ) -> str:
        """Register a standing query from its spec on the underlying
        monitor; returns its id."""
        return self.monitor.register(spec, query_id=query_id)

    def deregister(self, query_id: str) -> None:
        """Deregister the query; its deregister delta (everything
        leaves) is pushed and all its subscriptions end."""
        self.monitor.deregister(query_id)
        self.publish(self.monitor.drain_pending_deltas())
        for sub in self._subs.pop(query_id, []):
            sub._close()

    def subscribe(
        self,
        query_id: str,
        snapshot: bool = True,
        maxlen: int | None = None,
        resync_on_drop: bool = False,
    ) -> Subscription:
        """A live delta feed for one standing query.

        ``snapshot=True`` primes the feed with a synthetic ``snapshot``
        delta carrying the current members, so replaying the feed from
        empty state always reconstructs the full result.  ``maxlen``
        bounds the feed's queue under the drop-oldest policy (see
        :class:`Subscription`); ``resync_on_drop`` additionally queues
        a fresh full-result snapshot delta after any lossy publish, so
        a bounded feed heals itself in-band (the network serving layer
        turns these into mid-stream wire snapshots).
        """
        if self._closed:
            raise QueryError("server is closed")
        if query_id not in self.monitor:
            raise QueryError(f"unknown standing query {query_id!r}")
        # Flush parked deltas (registrations, out-of-band resyncs) to
        # the *existing* subscribers first: a feed begins at its own
        # snapshot, never with another query's history.
        self.publish(self.monitor.drain_pending_deltas())
        sub = Subscription(
            query_id, maxlen=maxlen, resync_on_drop=resync_on_drop
        )
        if snapshot:
            sub._push(
                ResultDelta(
                    query_id,
                    "snapshot",
                    self.monitor.result_distances(query_id),
                )
            )
        self._subs.setdefault(query_id, []).append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        subs = self._subs.get(sub.query_id, [])
        if sub in subs:
            subs.remove(sub)
        sub._close()

    def close(self) -> None:
        """End every subscription (pending deltas still drain)."""
        self._closed = True
        for subs in self._subs.values():
            for sub in subs:
                sub._close()
        self._subs.clear()

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    def publish(self, batch: DeltaBatch) -> int:
        """Fan a delta batch into the matching subscription queues;
        returns the number of deltas published (counted once per delta,
        not per subscriber; drops from bounded queues accumulate on
        ``deltas_dropped``, and each query that lost a delta triggers
        ``on_drop`` once, after the batch reached ``on_publish``)."""
        published = 0
        dropped_queries: dict[str, None] = {}
        dropped_subs: dict[Subscription, None] = {}
        for delta in batch:
            if delta.is_empty:
                continue
            published += 1
            for sub in self._subs.get(delta.query_id, ()):
                if sub._push(delta):
                    self.deltas_dropped += 1
                    dropped_queries.setdefault(delta.query_id)
                    if sub.resync_on_drop:
                        dropped_subs.setdefault(sub)
        self.deltas_published += published
        if self.on_publish is not None:
            self.on_publish(batch)
        if self.on_drop is not None:
            for query_id in dropped_queries:
                self.on_drop(query_id)
        # In-band re-prime of lossy resync_on_drop subscriptions: queue
        # the query's *post-batch* full result as a snapshot delta.  It
        # lands after this batch's surviving deltas and before anything
        # published later, so replaying the queue stays exact.  (If the
        # snapshot push itself evicts an older delta that loss is
        # counted too, but no second resync is needed — the snapshot
        # supersedes everything before it.)
        for sub in dropped_subs:
            if sub.query_id not in self.monitor:
                continue  # dropped during its own deregister publish
            members = self.monitor.result_distances(sub.query_id)
            if sub._push(ResultDelta(sub.query_id, "snapshot", members)):
                self.deltas_dropped += 1
            sub.resyncs += 1
        return published

    # ------------------------------------------------------------------
    # mutation coroutines (single writer)
    # ------------------------------------------------------------------

    async def apply_moves(self, moves: list[ObjectMove]) -> DeltaBatch:
        return await self._mutate(
            lambda: self.monitor.apply_moves(moves), ("moves", moves)
        )

    async def apply_insert(self, obj: UncertainObject) -> DeltaBatch:
        return await self._mutate(
            lambda: self.monitor.apply_insert(obj), ("insert", obj)
        )

    async def apply_delete(self, object_id: str) -> DeltaBatch:
        return await self._mutate(
            lambda: self.monitor.apply_delete(object_id),
            ("delete", object_id),
        )

    async def apply_event(self, event: TopologyEvent) -> DeltaBatch:
        return await self._mutate(
            lambda: self.monitor.apply_event(event), ("event", event)
        )

    async def _mutate(
        self,
        op: Callable[[], DeltaBatch],
        mutation: tuple[str, object] | None = None,
    ) -> DeltaBatch:
        if self._closed:
            raise QueryError("server is closed")

        with self._op_lock:
            batch = op()
            if mutation is not None and self.on_mutation is not None:
                self.on_mutation(*mutation)
        self.publish(batch)
        # Yield so subscribers drain between mutations.
        await asyncio.sleep(0)
        return batch

    async def serve(
        self,
        stream: MovementStream,
        n_batches: int,
        batch_size: int,
        on_batch: Callable[[int, DeltaBatch], Awaitable[None] | None]
        | None = None,
    ) -> ServeReport:
        """Drive ``n_batches`` of ``batch_size`` moves from ``stream``
        through the monitor, publishing deltas as they are produced.

        ``on_batch(batch_no, delta_batch)`` is an optional hook (sync or
        async) invoked after each batch — dashboards interleave topology
        events or render progress from it.
        """
        report = ServeReport()
        published_before = self.deltas_published
        dropped_before = self.deltas_dropped
        self.publish(self.monitor.drain_pending_deltas())
        for batch_no in range(n_batches):
            moves = stream.next_moves(batch_size)
            t0 = time.perf_counter()
            batch = await self.apply_moves(moves)
            report.elapsed_s += time.perf_counter() - t0
            report.batches += 1
            report.updates += len(batch.moved)
            if on_batch is not None:
                out = on_batch(batch_no, batch)
                if asyncio.iscoroutine(out):
                    await out
        # publish() is the single counting authority; the report covers
        # everything this serve call published (hook mutations too) and
        # every delta a bounded subscription shed while it ran.
        report.deltas_published = self.deltas_published - published_before
        report.deltas_dropped = self.deltas_dropped - dropped_before
        return report
