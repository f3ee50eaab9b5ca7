"""The :class:`QueryService` façade: one object, four verbs.

Before this layer, the paper's three query classes were reachable
through divergent entry-point styles — the free functions
:func:`~repro.queries.iRQ` / :func:`~repro.queries.ikNNQ` /
:func:`~repro.queries.iPRQ` plus registration on
:class:`~repro.queries.monitor.QueryMonitor`.  The façade collapses
them:

* :meth:`QueryService.run` — one-shot evaluation of any spec, with the
  door search served from the service's shared
  :class:`~repro.queries.session.QuerySession`;
* :meth:`QueryService.watch` — standing registration of any watchable
  spec (iRQ, ikNNQ and the probabilistic-threshold iPRQ alike — one
  :class:`~repro.queries.maintainers.StandingQuery` maintainer per
  kind), incrementally maintained over :meth:`ingest` streams;
* :meth:`QueryService.subscribe` — an async
  :class:`~repro.queries.serving.Subscription` pushing every result
  delta, snapshot-primed;
* :meth:`QueryService.ingest` (and ``insert``/``delete``/
  ``apply_event``) — the one write path: under the writer lock each
  verb applies the mutation, appends it to the attached WAL, then
  publishes the emitted deltas to subscribers (through the
  :class:`~repro.queries.serving.MonitorServer` fan-out, which never
  writes) *and* to any attached JSONL wire feed (:meth:`attach_feed`),
  which is how subscribers live out-of-process.  A
  :class:`~repro.api.net.ServerThread` runs these same verbs on its
  loop thread; there is no second writer.

There is one execution engine, a single
:class:`~repro.queries.monitor.QueryMonitor`, and every standing-query
id is claimed through one
:func:`~repro.queries.monitor.claim_query_id` guard so duplicates fail
loudly no matter which surface claimed first.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Any, Callable, Iterator

from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    QuerySpec,
    RangeSpec,
    spec_from_dict,
    standing_spec,
)
from repro.api.wire import DeltaFeedWriter
from repro.errors import PersistError, QueryError, ReproError
from repro.index.composite import CompositeIndex
from repro.objects.population import ObjectMove, ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.persist.checkpoint import (
    CheckpointState,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.codec import object_to_dict
from repro.persist.wal import (
    WalDelete,
    WalEvent,
    WalInsert,
    WalMoves,
    WalRecord,
    WalUnwatch,
    WalWatch,
    WalWriter,
)
from repro.queries.deltas import DeltaBatch, ResultDelta
from repro.queries.engine import QueryResult
from repro.queries.monitor import (
    MonitorStats,
    QueryMonitor,
    claim_query_id,
)
from repro.queries.serving import MonitorServer, Subscription
from repro.queries.session import QuerySession
from repro.queries.stats import QueryStats
from repro.space.events import EventResult, TopologyEvent
from repro.space.io import space_from_dict, space_to_dict

#: What decoding a checkpoint's JSON values into live objects raises.
_DECODE_ERRORS = (
    ReproError,
    TypeError,
    ValueError,
    KeyError,
    AttributeError,
    OverflowError,
)


@contextmanager
def _decoding(what: str) -> Iterator[None]:
    """Translate any failure to rebuild one part of a checkpoint into
    :class:`~repro.errors.PersistError` — restore never lets an
    untyped error escape, and recovery falls back on this one."""
    try:
        yield
    except _DECODE_ERRORS as exc:
        raise PersistError(
            f"checkpoint carries an unusable {what}: {exc}"
        ) from None


class _IdCounter:
    """The service's auto query-id counter, with its position exposed.

    ``itertools.count`` cannot be observed or repositioned, but the
    durability layer needs both: a checkpoint records where allocation
    stands (``next_auto_id``) and WAL replay moves the restored counter
    to where each live registration left it — otherwise a recovered
    service would mint different ids for the next auto-named watch
    than the uninterrupted one (the counter is shared across kinds).
    """

    def __init__(self, start: int = 1) -> None:
        self.value = start

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __iter__(self) -> "_IdCounter":
        return self


@dataclass(frozen=True)
class ServiceConfig:
    """The recorded shape of a :class:`QueryService`.

    Both fields are **inert**: validated ``>= 1`` and otherwise
    ignored — every service runs one
    :class:`~repro.queries.monitor.QueryMonitor`.  They remain only
    because ``benchmarks/e2e/workloads.py`` passes both and stored
    checkpoints carry them; once the harness stops passing them
    (ROADMAP item 1(e)) the class goes.
    """

    n_shards: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise QueryError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {self.workers}")


class QueryService:
    """One façade over index, session, monitor and serving layers.

    Usage::

        service = QueryService(index)
        nearby = service.run(RangeSpec(q, 60.0))        # one-shot
        kiosk = service.watch(RangeSpec(q, 60.0))       # standing
        feed = service.subscribe(KNNSpec(desk, 8))      # push
        service.ingest(stream.next_moves(100))          # update

    ``run``/``watch``/``subscribe`` results are bit-identical to the
    legacy entry points they wrap (``tests/api/test_service.py``
    asserts it); the façade adds no semantics, only a single surface.
    """

    def __init__(
        self,
        index: CompositeIndex,
        config: ServiceConfig | None = None,
        session: QuerySession | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.index = index
        self.session = session or QuerySession(index)
        self.monitor = QueryMonitor(index, session=self.session)
        self.server = MonitorServer(self.monitor)
        self._feeds: list[DeltaFeedWriter] = []
        # Writer lock around every mutation and checkpoint capture: a
        # ServerThread runs the verbs on its loop thread, and a sync
        # caller on another thread must never interleave with it (the
        # publish itself is only loop-safe when no event loop is
        # draining subscribers at that instant — mutate from the loop
        # that consumes the subscriptions, not from a foreign thread).
        self._op_lock = threading.Lock()
        self._id_counter = _IdCounter()
        self._wal: WalWriter | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """End every subscription (idempotent).  Attached feeds are
        not closed — their files belong to the caller."""
        self._closed = True
        self.server.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # one-shot evaluation
    # ------------------------------------------------------------------

    def run(
        self, spec: QuerySpec, stats: QueryStats | None = None
    ) -> QueryResult:
        """Evaluate ``spec`` once, immediately, against the current
        population.  iRQ, ikNNQ and iPRQ serve their door search
        from the shared session cache (one Dijkstra per query point,
        reused by standing queries at the same spot)."""
        if isinstance(spec, RangeSpec):
            return self.session.irq(spec.q, spec.r, stats=stats)
        if isinstance(spec, KNNSpec):
            return self.session.iknnq(spec.q, spec.k, stats=stats)
        if isinstance(spec, ProbRangeSpec):
            return self.session.iprq(spec.q, spec.r, spec.p_min, stats=stats)
        if isinstance(spec, CountSpec):
            raise QueryError(
                "CountSpec is watch-only: a one-shot count is "
                "len(run(RangeSpec(q, r)).objects); watch() it to get "
                "threshold-crossing alerts"
            )
        if isinstance(spec, OccupancySpec):
            raise QueryError(
                "OccupancySpec is watch-only: watch() it to get "
                "partition-occupancy threshold alerts"
            )
        raise QueryError(
            f"cannot run {type(spec).__name__}: not a known query spec"
        )

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------

    def claim_query_id(
        self, query_id: str | None, spec: QuerySpec
    ) -> str:
        """Allocate (or validate) a standing-query id.  Every id this
        service hands out flows through here — one guard, one counter —
        so a duplicate raises a clear
        :class:`~repro.errors.QueryError` instead of colliding
        silently across surfaces."""
        return claim_query_id(
            self.monitor, query_id, standing_spec(spec).kind,
            self._id_counter,
        )

    def watch(self, spec: QuerySpec, query_id: str | None = None) -> str:
        """Register ``spec`` as a standing query; returns its id.

        The initial result is emitted as a ``register`` delta to
        subscribers and attached feeds (feeds also get the ``watch``
        header record, so a replay knows the query's spec)."""
        if self._closed:
            raise QueryError("service is closed")
        query_id = self.claim_query_id(query_id, spec)
        self.monitor.register(spec, query_id=query_id)
        self._log(WalWatch(query_id, spec, self._id_counter.value))
        for feed in self._feeds:
            feed.watch(query_id, spec)
        self.drain_pending_deltas()
        return query_id

    def unwatch(self, query_id: str) -> None:
        """Deregister a standing query: its deregister delta (every
        member leaves) reaches subscribers and feeds, and all its
        subscriptions end."""
        members = self.monitor.result_distances(query_id)
        self.monitor.deregister(query_id)
        self._log(WalUnwatch(query_id))
        self.drain_pending_deltas()
        self.server.close_query(query_id)
        if not members:
            # An empty result deregisters without a delta (nothing
            # changed for in-process subscribers), but a wire feed
            # still needs the closure record — replay_feed must drop
            # the query, exactly as the live monitor did.
            self._feed_batch(
                DeltaBatch(
                    deltas=(ResultDelta(query_id, "deregister"),)
                )
            )

    def subscribe(
        self, spec_or_id: QuerySpec | str, maxlen: int | None = None
    ) -> Subscription:
        """A live delta feed for one standing query, primed with a
        snapshot of its current result.

        Pass a spec to register-and-subscribe in one step (the
        subscription's ``query_id`` carries the new id), or an existing
        id to add another consumer.  ``maxlen`` bounds the feed's queue
        (unbounded by default); a bounded feed drops its oldest delta
        on overflow and is re-primed with a snapshot after the lossy
        publish (see
        :meth:`~repro.queries.serving.MonitorServer.subscribe`)."""
        if self._closed:
            raise QueryError("service is closed")
        if isinstance(spec_or_id, QuerySpec):
            query_id = self.watch(spec_or_id)
        else:
            query_id = spec_or_id
        # Flush parked deltas (registrations, out-of-band resyncs) to
        # the *existing* subscribers first: a feed begins at its own
        # snapshot, never with another query's history.
        self.drain_pending_deltas()
        return self.server.subscribe(query_id, maxlen=maxlen)

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a subscription from the delta fan-out."""
        self.server.unsubscribe(sub)

    # ------------------------------------------------------------------
    # mutation (the one write path)
    # ------------------------------------------------------------------

    def ingest(self, moves: list[ObjectMove]) -> DeltaBatch:
        """Absorb a batch of position updates: index mutation, standing
        result maintenance, delta fan-out to subscribers and feeds."""
        return self._apply(
            lambda: self.monitor.apply_moves(moves),
            log=lambda: WalMoves(tuple(moves)),
        )

    def insert(self, obj: UncertainObject) -> DeltaBatch:
        """A brand-new object appears."""
        return self._apply(
            lambda: self.monitor.apply_insert(obj),
            log=lambda: WalInsert(obj),
        )

    def delete(self, object_id: str) -> DeltaBatch:
        """An object disappears."""
        return self._apply(
            lambda: self.monitor.apply_delete(object_id),
            log=lambda: WalDelete(object_id),
        )

    def apply_event(self, event: TopologyEvent) -> EventResult:
        """Apply a topology event (door closure, split, merge); every
        standing query resynchronises and the resync deltas fan out.
        Returns the space-level outcome."""
        batch = self._apply(
            lambda: self.monitor.apply_event(event),
            log=lambda: WalEvent(event),
        )
        return batch.event_result

    def _apply(
        self,
        op: Callable[[], DeltaBatch],
        log: Callable[[], WalRecord],
    ) -> DeltaBatch:
        if self._closed:
            raise QueryError("service is closed")
        with self._op_lock:
            batch = op()
            # WAL after the mutation succeeded (a raising op logs
            # nothing) and before the fan-out: in the crash window
            # between log and publish, recovery replays a mutation no
            # client ever saw — reconnecting clients re-prime from the
            # recovered snapshot, so both sides agree either way.
            self._log(log())
            self._fan_out(batch)
        return batch

    def _log(self, record: WalRecord) -> None:
        if self._wal is not None:
            self._wal.write(record)

    # ------------------------------------------------------------------
    # wire feeds (out-of-process subscribers)
    # ------------------------------------------------------------------

    def attach_feed(self, fp: IO[str]) -> DeltaFeedWriter:
        """Mirror this service's published deltas onto ``fp`` as JSON
        lines (:mod:`repro.api.wire`).

        The feed opens with a header — one ``watch`` record plus one
        ``snapshot`` record per currently-standing query — then carries
        every subsequently published non-empty batch, so a consumer
        that replays the whole file (:func:`repro.api.wire.replay_feed`)
        reconstructs each standing query's live result exactly.
        """
        writer = DeltaFeedWriter(fp)
        for query_id in self.query_ids():
            writer.watch(query_id, self.query_spec(query_id))
            writer.snapshot(query_id, self.result_distances(query_id))
        self._feeds.append(writer)
        return writer

    def detach_feed(self, writer: DeltaFeedWriter) -> None:
        """Stop publishing batches to ``writer`` (no-op if detached)."""
        if writer in self._feeds:
            self._feeds.remove(writer)

    def _feed_batch(self, batch: DeltaBatch) -> None:
        for feed in self._feeds:
            feed.batch(batch)

    def _fan_out(self, batch: DeltaBatch) -> None:
        """Publish ``batch`` to subscribers, then mirror it onto every
        attached feed.

        Feed resumption after loss: for each standing query a bounded
        subscription shed deltas of during the publish, the query's
        *current* result follows as a mid-stream ``snapshot`` record.
        ``replay_feed`` re-primes wholesale at a snapshot, so a feed
        consumer that resumes from (or across) the loss point — a
        rotated file, a tail that joined late — reconstructs the live
        result exactly even on lossy runs."""
        lossy = self.server.publish(batch)
        if not self._feeds:
            return
        self._feed_batch(batch)
        for query_id in lossy:
            members = self.monitor.result_distances(query_id)
            for feed in self._feeds:
                feed.snapshot(query_id, members)

    # ------------------------------------------------------------------
    # durability (checkpoint / restore / WAL)
    # ------------------------------------------------------------------

    def attach_wal(self, writer: WalWriter) -> None:
        """Append every subsequent input mutation (watch/unwatch,
        moves, insert, delete, topology event) to ``writer`` — the
        replayable half of the durability story.  Records are written
        after the mutation succeeds and before its deltas fan out, so
        a failed mutation logs nothing and recovery never replays an
        op the engine rejected.  Normally called by
        :class:`~repro.persist.store.CheckpointStore`, which also
        rotates the writer at every checkpoint boundary."""
        self._wal = writer

    def detach_wal(self) -> WalWriter | None:
        """Stop logging; returns the writer that was attached (its
        stream still belongs to whoever opened it)."""
        writer, self._wal = self._wal, None
        return writer

    def checkpoint(
        self,
        path: str | Path,
        extra: dict[str, Any] | None = None,
        rotate_wal_to: IO[str] | None = None,
    ) -> int:
        """Write a digest-sealed snapshot of the whole service to
        ``path`` atomically; returns bytes written.

        The capture runs under the single-writer lock, so it is a
        consistent cut even against a concurrently serving
        :class:`~repro.api.net.ServerThread`.
        When ``rotate_wal_to`` is given (an open text stream), the
        attached WAL rotates onto it *inside the same lock* — no
        mutation can slip between the snapshot and the segment
        boundary, which is what lets recovery replay exactly the
        post-checkpoint tail.  ``extra`` is an opaque payload carried
        through the round trip (the net layer keeps its resume-session
        table there)."""
        with self._op_lock:
            state = self._capture(extra)
            old_stream: IO[str] | None = None
            if rotate_wal_to is not None:
                if self._wal is None:
                    self._wal = WalWriter(rotate_wal_to)
                else:
                    old_stream = self._wal.rotate(rotate_wal_to)
        if old_stream is not None:
            try:
                old_stream.close()
            except OSError:  # pragma: no cover - best effort
                pass
        return write_checkpoint(path, state)

    def _capture(self, extra: dict[str, Any] | None) -> CheckpointState:
        """Everything a bit-identical rebuild needs (caller holds the
        writer lock): config (plus the index build shape), space and
        its topology version, objects in population insertion order,
        query specs + maintainer snapshots in registration order, and
        the auto-id counter."""
        space = self.index.space
        config = dict(asdict(self.config))
        config["index"] = {
            "fanout": self.index.fanout,
            "t_shape": self.index.t_shape,
        }
        return CheckpointState(
            config=config,
            space=space_to_dict(space),
            topology_version=space.topology_version,
            next_auto_id=self._id_counter.value,
            objects=[
                object_to_dict(obj) for obj in self.index.objects()
            ],
            queries=[
                {
                    "query_id": query_id,
                    "spec": spec.to_dict(),
                    "state": state,
                }
                for query_id, spec, state in self.monitor.snapshot_queries()
            ],
            extra=dict(extra or {}),
        )

    @classmethod
    def restore(cls, path: str | Path) -> "QueryService":
        """Rebuild a service, with the config it recorded, from a
        checkpoint file (digest verified — a torn, corrupt or
        unrestorable file raises :class:`~repro.errors.PersistError`
        rather than restoring silently-wrong state)."""
        return cls.from_state(read_checkpoint(path))

    @classmethod
    def from_state(cls, state: CheckpointState) -> "QueryService":
        """Rebuild from an already-read :class:`CheckpointState`.

        The index is rebuilt from scratch over the restored space and
        population — its tree *structure* may differ from the crashed
        process's incrementally-mutated one, but every distance and
        probability bound the maintainers consume is tree-independent,
        so restored results (and all subsequent deltas) are
        bit-identical.  Maintainer states are reinstated exactly from
        their snapshots, never recomputed: a fresh recompute could
        legitimately differ in unobservable internals (bound markers,
        incremental kNN bookkeeping) and leak phantom deltas on the
        next update.

        Decoding fails closed: a space, config, index shape, object or
        query record that does not rebuild — including a maintainer
        state its ``snapshot()`` could not have produced — raises
        :class:`~repro.errors.PersistError`."""
        with _decoding("space"):
            space = space_from_dict(state.space)
            space.topology_version = int(state.topology_version)
            # The population's grid reads every partition's bounds.
            population = ObjectPopulation(space)
        cfg = dict(state.config)
        index_shape = cfg.pop("index", {})
        # Checkpoints written while the bounds kernel, the shard
        # execution engine, the shard router and the default
        # subscription bound were settable carry them; none changes
        # what a restored service computes.
        for name in ("kernel", "backend", "bucketed_router", "maxlen"):
            cfg.pop(name, None)
        with _decoding("index shape"):
            fanout = int(index_shape.get("fanout", 20))
            t_shape = float(index_shape.get("t_shape", 0.5))
        with _decoding("object record"):  # malformed, duplicate, off map
            for obj in state.uncertain_objects():
                population.insert(obj)
            index = CompositeIndex.build(
                space, population, fanout=fanout, t_shape=t_shape
            )
        with _decoding("config"):
            service = cls(index, ServiceConfig(**cfg))
        for payload in state.queries:
            with _decoding("query record"):
                service.monitor.restore_query(
                    spec_from_dict(payload["spec"]),
                    str(payload["query_id"]),
                    payload["state"],
                )
        service._id_counter.value = int(state.next_auto_id)
        return service

    # ------------------------------------------------------------------
    # result / introspection surface
    # ------------------------------------------------------------------

    def result_ids(self, query_id: str) -> set[str]:
        """One standing query's current member ids."""
        return self.monitor.result_ids(query_id)

    def result_distances(self, query_id: str) -> dict[str, float | None]:
        """One standing query's members with stored annotations."""
        return self.monitor.result_distances(query_id)

    def results(self) -> dict[str, set[str]]:
        """Every standing query's current member-id set."""
        return self.monitor.results()

    def query_ids(self) -> list[str]:
        """Standing query ids, in registration order."""
        return self.monitor.query_ids()

    def query_spec(self, query_id: str) -> QuerySpec:
        """The spec a standing query was registered with."""
        return self.monitor.query_spec(query_id)

    def __len__(self) -> int:
        return len(self.monitor)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.monitor

    @property
    def stats(self) -> MonitorStats:
        """The engine's aggregate maintenance counters."""
        return self.monitor.stats

    @property
    def routing(self) -> None:
        """Always ``None`` (there is no shard router); kept only
        because ``benchmarks/e2e/workloads.py`` reads it — ROADMAP
        item 1's harness-only PR removes it."""
        return None

    @property
    def deltas_published(self) -> int:
        """Total deltas fanned out to subscribers and feeds."""
        return self.server.deltas_published

    @property
    def deltas_dropped(self) -> int:
        """Total deltas shed by bounded subscriptions."""
        return self.server.deltas_dropped

    def drain_pending_deltas(self) -> DeltaBatch:
        """Flush deltas parked by out-of-band work through the publish
        path (subscribers and feeds see them); returns the batch."""
        batch = self.monitor.drain_pending_deltas()
        self._fan_out(batch)
        return batch

    def subscriptions(self, query_id: str) -> list[Subscription]:
        """The live subscriptions for one standing query (server
        internals surfaced read-only for tests/dashboards)."""
        return list(self.server._subs.get(query_id, ()))
