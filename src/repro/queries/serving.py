"""Async serving: fan a monitor's result deltas out to subscribers.

The monitor's per-update maintenance is already ``O(standing queries)``
(:mod:`repro.queries.monitor`) — the serving layer is the remaining
plumbing: a :class:`MonitorServer` pushes every published
:class:`~repro.queries.deltas.ResultDelta` into the per-query queues
of its :class:`Subscription`\\ s, so consumers ``async for`` over
result *changes* instead of polling result sets.

The server only fans out: it never mutates the monitor or the index.
The one writer is :class:`repro.api.service.QueryService`, whose
verbs apply a mutation, log it and hand the emitted batch to
:meth:`MonitorServer.publish`.  Subscribers are decoupled through
per-query queues — unbounded by default (a slow consumer delays only
itself), or bounded with ``maxlen`` under a drop-oldest overflow
policy (:attr:`Subscription.dropped` counts the losses; a feed that
dropped deltas no longer replays exactly and should be re-primed with
a fresh snapshot).  :attr:`Subscription.pending` exposes the backlog
either way.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import AsyncIterator

from repro.errors import QueryError
from repro.queries.deltas import DeltaBatch, ResultDelta
from repro.queries.monitor import QueryMonitor

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
    """Aggregate outcome of one
    :meth:`~repro.api.service.QueryService.serve` run.

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
    """Delta fan-out over a query monitor's published batches.

    The monitor is only read here (a snapshot prime, a resync
    snapshot); a :class:`~repro.api.service.QueryService` owns the
    server, writes, and publishes what each write emitted::

        service = QueryService(index)
        kiosk = service.watch(RangeSpec(q, 60.0))
        sub = service.subscribe(kiosk)          # primed with a snapshot

        async def consume():
            async for delta in sub:
                render(delta)

        async def produce():
            await service.serve(stream, n_batches=100, batch_size=50)
            service.close()

        asyncio.run(asyncio.gather(produce(), consume()))
    """

    monitor: QueryMonitor
    deltas_published: int = 0
    #: Total queue overflows across all bounded subscriptions.
    deltas_dropped: int = 0
    _subs: dict[str, list[Subscription]] = field(default_factory=dict)
    _closed: bool = False

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------

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
        turns these into mid-stream wire snapshots).  Deltas the
        monitor parked before this call belong to earlier history:
        publish them first (:meth:`QueryService.subscribe` does).
        """
        if self._closed:
            raise QueryError("server is closed")
        if query_id not in self.monitor:
            raise QueryError(f"unknown standing query {query_id!r}")
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

    def close_query(self, query_id: str) -> None:
        """End every subscription of one (deregistered) query."""
        for sub in self._subs.pop(query_id, []):
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

    def publish(self, batch: DeltaBatch) -> list[str]:
        """Fan a delta batch into the matching subscription queues.

        Returns the still-standing queries that lost at least one delta
        to a bounded queue's drop-oldest policy — the caller re-primes
        its own out-of-band feeds for those.  Deltas are counted once
        per delta on ``deltas_published``, not per subscriber; drops
        accumulate on ``deltas_dropped``."""
        lossy: dict[str, None] = {}
        resync: dict[Subscription, None] = {}
        for delta in batch:
            if delta.is_empty:
                continue
            self.deltas_published += 1
            for sub in self._subs.get(delta.query_id, ()):
                if sub._push(delta):
                    self.deltas_dropped += 1
                    lossy.setdefault(delta.query_id)
                    if sub.resync_on_drop:
                        resync.setdefault(sub)
        # In-band re-prime of lossy resync_on_drop subscriptions: queue
        # the query's *post-batch* full result as a snapshot delta.  It
        # lands after this batch's surviving deltas and before anything
        # published later, so replaying the queue stays exact.  (If the
        # snapshot push itself evicts an older delta that loss is
        # counted too, but no second resync is needed — the snapshot
        # supersedes everything before it.)  A query dropped during its
        # own deregister publish has no current result to re-prime
        # from.
        for sub in resync:
            if sub.query_id not in self.monitor:
                continue
            members = self.monitor.result_distances(sub.query_id)
            if sub._push(ResultDelta(sub.query_id, "snapshot", members)):
                self.deltas_dropped += 1
            sub.resyncs += 1
        return [query_id for query_id in lossy if query_id in self.monitor]
