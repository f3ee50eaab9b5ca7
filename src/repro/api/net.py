"""Network serving: a :class:`QueryService` as a TCP delta server.

The wire protocol reached files first (:meth:`QueryService.attach_feed`
— one process writes, another tails).  This module is the ROADMAP's
"library to server" step: an asyncio :class:`NetServer` wraps one
:class:`~repro.api.service.QueryService` and streams standing-query
deltas to many concurrent remote subscribers over length-prefixed,
sequence-numbered frames (:mod:`repro.api.framing`).

Protocol, per connection (client speaks first)::

    C -> S   hello {token: null}          | resume {token}
    S -> C   hello {token, heartbeat_s}
    C -> S   watch_req {spec?, query_id?}
    S -> C   watch {query_id, spec}       # the ack, with the final id
    S -> C   snapshot {query_id, members} # prime: current full result
    S -> C   delta / batch ...            # the live stream
    S -> C   heartbeat {seq}              # when otherwise idle
    C -> S   ping {nonce}  ->  S -> C   pong {nonce}   # drain barrier

Semantics:

* **Negotiation** — a ``watch_req`` naming an existing standing query
  subscribes this connection to it; one carrying a spec registers a
  new standing query.  Either way the server replies with the ``watch``
  ack and a priming ``snapshot`` before any delta, so a client folding
  the stream (exactly :func:`repro.api.wire.replay_feed`'s rules)
  reconstructs the live result from nothing.
* **Backpressure** — each watch is served from a bounded
  :class:`~repro.queries.serving.Subscription` under the drop-oldest
  policy, with ``resync_on_drop``: when a slow connection sheds
  deltas, the very next record it gets is a fresh full-result
  ``snapshot``, so a lossy subscriber re-primes in-band and never
  silently diverges.
* **Heartbeats** — the server emits a ``heartbeat`` whenever a
  connection has been silent for its cadence, and tears down
  connections that never negotiate a watch within the idle timeout.
* **Reconnect** — the server's ``hello`` carries a resume token.  A
  client that reconnects and presents it gets every previously watched
  query re-acked and re-primed from a *current* snapshot; because a
  snapshot replaces replayed state wholesale, the resumed stream is
  bit-identical to an uninterrupted subscriber from that point on
  (the property and fault-injection suites assert it).
* **Duplicate/torn frames** — frame sequence numbers make duplicated,
  dropped or reordered frames a loud
  :class:`~repro.errors.FramingError`; clients treat it like a dead
  connection and resume.

:class:`NetClient` is the blocking counterpart (usable from plain
threads, with optional automatic resume); :class:`AsyncNetClient` the
in-loop one — both speak through one sans-IO protocol core and add
only their I/O; :class:`ServerThread` hosts a server plus its service
on a dedicated loop thread so synchronous code (benchmarks, tests) can
drive the service's verbs safely.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import secrets
import signal
import socket
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.api import wire
from repro.api.framing import (
    ByeRecord,
    ErrorRecord,
    FrameDecoder,
    FrameEncoder,
    HeartbeatRecord,
    HelloRecord,
    NetRecord,
    PingRecord,
    PongRecord,
    ResumeRequest,
    WatchRequest,
    decode_net_record,
    encode_net_record,
)
from repro.api.service import QueryService
from repro.api.specs import QuerySpec
from repro.errors import FramingError, NetError, QueryError, WireError
from repro.queries.deltas import ResultDelta
from repro.queries.serving import Subscription

#: Read chunk size for both server and clients.
_READ_CHUNK = 65536


# =====================================================================
# server
# =====================================================================


@dataclass
class NetServerStats:
    """Aggregate counters of one :class:`NetServer`'s lifetime."""

    connections_accepted: int = 0
    connections_active: int = 0
    resumes: int = 0
    watches: int = 0
    records_sent: int = 0
    heartbeats_sent: int = 0
    errors_sent: int = 0
    idle_teardowns: int = 0


class _Connection:
    """Server-side per-connection state (one reader, many pumps)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        now: float,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.encoder = FrameEncoder()
        self.decoder = FrameDecoder()
        self.subs: dict[str, Subscription] = {}
        self.pumps: dict[str, asyncio.Task] = {}
        self.aux: set[asyncio.Task] = set()
        self.token: str | None = None
        self.negotiated = False
        self.closing = False
        self.last_write = now
        self.last_seen = now
        #: Deltas pulled from a subscription queue but not yet written
        #: (the ping/pong barrier waits for queues *and* this).
        self.inflight = 0
        self.wlock = asyncio.Lock()


class NetServer:
    """Serve one :class:`QueryService` to remote subscribers over TCP.

    Usage (inside a running loop; see :class:`ServerThread` for the
    threaded wrapper synchronous callers want)::

        server = NetServer(service, port=0)
        await server.start()
        host, port = server.address
        ...
        await server.aclose()

    ``maxlen`` bounds every connection's per-query subscription queue
    (drop-oldest + in-band snapshot re-prime); ``heartbeat_s`` is the
    cadence advertised in the hello record; connections holding no
    watches for ``idle_timeout_s`` are torn down.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        maxlen: int | None = 1024,
        heartbeat_s: float = 2.0,
        idle_timeout_s: float = 30.0,
        barrier_timeout_s: float = 30.0,
        resume_keep: int = 1024,
    ) -> None:
        if heartbeat_s <= 0:
            raise NetError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        self.service = service
        self.host = host
        self.port = port
        self.maxlen = maxlen
        self.heartbeat_s = heartbeat_s
        self.idle_timeout_s = idle_timeout_s
        self.barrier_timeout_s = barrier_timeout_s
        self.stats = NetServerStats()
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Connection] = set()
        #: Reconnect sessions: token -> ordered watched query ids.
        #: Bounded FIFO (oldest session forgotten past ``resume_keep``).
        self._sessions: OrderedDict[str, list[str]] = OrderedDict()
        self._resume_keep = resume_keep
        self._token_counter = itertools.count(1)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and begin accepting connections (resolves port 0)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return (self.host, self.port)

    async def aclose(self) -> None:
        """Stop accepting, say bye to every client, drop connections.
        The wrapped service itself stays open (it belongs to the
        caller)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._conns):
            try:
                await self._send(conn, ByeRecord())
            except OSError:
                pass
            await self._teardown(conn)

    # -- per-connection plumbing ---------------------------------------

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _Connection(reader, writer, self._now())
        self._conns.add(conn)
        self.stats.connections_accepted += 1
        self.stats.connections_active = len(self._conns)
        hb = asyncio.ensure_future(self._heartbeat_loop(conn))
        try:
            await self._read_loop(conn)
        except (ConnectionError, OSError):
            pass  # peer died mid-frame: session stays resumable
        finally:
            hb.cancel()
            await self._teardown(conn)

    async def _read_loop(self, conn: _Connection) -> None:
        while not conn.closing:
            data = await conn.reader.read(_READ_CHUNK)
            if not data:
                return
            conn.last_seen = self._now()
            try:
                payloads = conn.decoder.feed(data)
                records = [decode_net_record(p) for p in payloads]
            except WireError as exc:  # FramingError included
                await self._fail(conn, f"protocol violation: {exc}")
                return
            for record in records:
                if not await self._on_record(conn, record):
                    return

    async def _on_record(
        self, conn: _Connection, record: NetRecord
    ) -> bool:
        """Handle one client record; False ends the connection."""
        if not conn.negotiated:
            return await self._negotiate(conn, record)
        if isinstance(record, WatchRequest):
            return await self._on_watch(conn, record)
        if isinstance(record, PingRecord):
            task = asyncio.ensure_future(
                self._pong_after_drain(conn, record.nonce)
            )
            conn.aux.add(task)
            task.add_done_callback(conn.aux.discard)
            return True
        if isinstance(record, HeartbeatRecord):
            return True  # client keepalive: last_seen already bumped
        if isinstance(record, ByeRecord):
            # A clean goodbye is a completed session, not a resumable
            # one: forget the token.
            if conn.token is not None:
                self._sessions.pop(conn.token, None)
            return False
        await self._fail(
            conn,
            f"unexpected {type(record).__name__} from client",
        )
        return False

    async def _negotiate(
        self, conn: _Connection, record: NetRecord
    ) -> bool:
        if isinstance(record, HelloRecord):
            conn.token = self._mint_token()
            self._sessions[conn.token] = []
            self._trim_sessions()
            conn.negotiated = True
            await self._send(
                conn,
                HelloRecord(conn.token, heartbeat_s=self.heartbeat_s),
            )
            return True
        if isinstance(record, ResumeRequest):
            watched = self._sessions.get(record.token)
            if watched is None:
                await self._fail(
                    conn, f"unknown resume token {record.token!r}"
                )
                return False
            conn.token = record.token
            conn.negotiated = True
            self.stats.resumes += 1
            await self._send(
                conn,
                HelloRecord(conn.token, heartbeat_s=self.heartbeat_s),
            )
            for query_id in list(watched):
                if query_id not in self.service:
                    # Deregistered while the client was away: close it
                    # on the wire too (replay pops the query), never
                    # leave the client believing a stale result.
                    watched.remove(query_id)
                    await self._send(
                        conn, ResultDelta(query_id, "deregister")
                    )
                    continue
                await self._ack_and_stream(conn, query_id)
            return True
        await self._fail(
            conn,
            "connection must open with a hello or resume record, got "
            f"{type(record).__name__}",
        )
        return False

    async def _on_watch(
        self, conn: _Connection, req: WatchRequest
    ) -> bool:
        query_id = req.query_id
        try:
            if query_id is not None and query_id in self.service:
                spec = self.service.query_spec(query_id)
                if req.spec is not None and req.spec != spec:
                    raise QueryError(
                        f"standing query {query_id!r} is registered "
                        f"with a different spec"
                    )
            elif req.spec is not None:
                query_id = self.service.watch(
                    req.spec, query_id=query_id
                )
            else:
                raise QueryError(
                    "watch_req needs a spec or an existing query_id"
                )
            if query_id in conn.subs:
                raise QueryError(
                    f"connection already watches {query_id!r}"
                )
        except QueryError as exc:
            await self._fail(conn, str(exc))
            return False
        await self._ack_and_stream(conn, query_id)
        if conn.token is not None:
            watched = self._sessions.setdefault(conn.token, [])
            if query_id not in watched:
                watched.append(query_id)
        self.stats.watches += 1
        return True

    async def _ack_and_stream(
        self, conn: _Connection, query_id: str
    ) -> None:
        """The ack + prime + live-stream sequence behind both watch and
        resume: ``watch`` record first, then a subscription whose
        priming snapshot delta becomes the wire ``snapshot`` record."""
        await self._send(
            conn,
            wire.WatchRecord(query_id, self.service.query_spec(query_id)),
        )
        sub = self.service.subscribe(
            query_id,
            snapshot=True,
            maxlen=self.maxlen,
            resync_on_drop=True,
        )
        conn.subs[query_id] = sub
        conn.pumps[query_id] = asyncio.ensure_future(
            self._pump(conn, sub)
        )

    async def _pump(self, conn: _Connection, sub: Subscription) -> None:
        """Drain one subscription onto the socket, translating the
        synthetic snapshot-cause deltas (priming, drop-resync) into
        wholesale ``snapshot`` records."""
        try:
            while True:
                delta = await sub.next_delta()
                if delta is None:
                    return
                conn.inflight += 1
                try:
                    if delta.cause == "snapshot":
                        await self._send(
                            conn,
                            wire.SnapshotRecord(
                                delta.query_id, dict(delta.entered)
                            ),
                        )
                    else:
                        await self._send(conn, delta)
                finally:
                    conn.inflight -= 1
        except (ConnectionError, OSError):
            conn.writer.close()  # reader loop notices and tears down

    async def _pong_after_drain(
        self, conn: _Connection, nonce: int
    ) -> None:
        """Reply to a ping only once every delta published before it
        has left this connection's queues *and* hit the socket."""
        deadline = self._now() + self.barrier_timeout_s
        while self._now() < deadline:
            drained = conn.inflight == 0 and all(
                sub.pending == 0 for sub in conn.subs.values()
            )
            if drained:
                try:
                    await self._send(conn, PongRecord(nonce))
                except (ConnectionError, OSError):
                    pass
                return
            await asyncio.sleep(0.002)
        await self._fail(conn, "drain barrier timed out")

    async def _heartbeat_loop(self, conn: _Connection) -> None:
        seq = 0
        try:
            while not conn.closing:
                await asyncio.sleep(self.heartbeat_s / 4)
                now = self._now()
                idle = now - conn.last_seen > self.idle_timeout_s
                if not conn.subs and idle:
                    self.stats.idle_teardowns += 1
                    await self._fail(
                        conn,
                        "idle connection torn down (no watch within "
                        f"{self.idle_timeout_s}s)",
                    )
                    return
                if now - conn.last_write >= self.heartbeat_s:
                    await self._send(conn, HeartbeatRecord(seq))
                    self.stats.heartbeats_sent += 1
                    seq += 1
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    async def _send(self, conn: _Connection, record: NetRecord) -> None:
        data = None
        line = encode_net_record(record)
        async with conn.wlock:
            if conn.closing:
                return
            data = conn.encoder.encode(line)
            conn.writer.write(data)
            await conn.writer.drain()
            conn.last_write = self._now()
        self.stats.records_sent += 1

    async def _fail(self, conn: _Connection, message: str) -> None:
        """Fatal per-connection error: tell the client why, then hang
        up (never a silent divergence)."""
        try:
            await self._send(conn, ErrorRecord(message))
            self.stats.errors_sent += 1
        except (ConnectionError, OSError):
            pass
        conn.closing = True
        conn.writer.close()

    async def _teardown(self, conn: _Connection) -> None:
        conn.closing = True
        for task in list(conn.pumps.values()) + list(conn.aux):
            task.cancel()
        for sub in conn.subs.values():
            self.service.unsubscribe(sub)
        conn.subs.clear()
        conn.pumps.clear()
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._conns.discard(conn)
        self.stats.connections_active = len(self._conns)

    def _mint_token(self) -> str:
        return f"s{next(self._token_counter)}-{secrets.token_hex(8)}"

    def _trim_sessions(self) -> None:
        while len(self._sessions) > self._resume_keep:
            self._sessions.popitem(last=False)

    # -- restartability ------------------------------------------------

    def session_state(self) -> list[dict[str, Any]]:
        """The resume-session table as a JSON-able payload — stored in
        every checkpoint's ``extra`` so a server restarted from a
        manifest still honours tokens minted before the crash (a
        reconnecting client is then bit-identical to one whose server
        never died)."""
        return [
            {"token": token, "watched": list(watched)}
            for token, watched in self._sessions.items()
        ]

    def restore_sessions(self, entries: list[dict[str, Any]]) -> int:
        """Reinstate a :meth:`session_state` capture (token order
        preserved — it is the FIFO eviction order); returns the number
        of sessions restored."""
        for entry in entries:
            self._sessions[str(entry["token"])] = [
                str(qid) for qid in entry.get("watched", ())
            ]
        self._trim_sessions()
        return len(entries)


class ServerThread:
    """A :class:`NetServer` and its service's verbs on a dedicated
    event-loop thread.

    Synchronous code must not mutate a served :class:`QueryService`
    directly — publishes touch asyncio queues that belong to the
    server's loop.  This wrapper owns the loop and marshals every
    mutation onto it::

        with ServerThread(service) as st:
            st.watch(RangeSpec(q, 60.0), query_id="kiosk")
            client = NetClient(*st.address)
            ...
            st.ingest(stream.next_moves(50))

    ``watch``/``unwatch``/``ingest``/``insert``/``delete``/
    ``apply_event`` run the same-named :class:`QueryService` verb on
    the loop thread and return what it returns — the service's one
    write path (writer lock, WAL, fan-out).  ``run`` executes any
    synchronous callable on the loop thread; ``call`` awaits any
    coroutine there.  Both raise :class:`~repro.errors.NetError` once
    the thread is stopped.

    **Durability** — pass ``store`` (a
    :class:`~repro.persist.store.CheckpointStore`) and the thread
    becomes restartable: a durable point is cut at boot (attaching the
    service's WAL, so every subsequent mutation is replayable), every
    ``checkpoint_every_s`` seconds, on :meth:`checkpoint_now`, on a
    clean :meth:`close`, and — with ``install_sigterm=True``, from the
    main thread only — on SIGTERM before the process dies.  Each
    checkpoint carries the server's resume-session table, so
    :meth:`from_store` brings the whole thing back after a crash
    (:meth:`kill` simulates one) with every pre-crash resume token
    still honoured: a client that reconnects into the restarted server
    re-primes from a current snapshot and ends bit-identical to one
    whose server never died.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        store=None,
        checkpoint_every_s: float | None = None,
        install_sigterm: bool = False,
        **server_kwargs,
    ) -> None:
        if checkpoint_every_s is not None and checkpoint_every_s <= 0:
            raise NetError(
                f"checkpoint_every_s must be > 0, got {checkpoint_every_s}"
            )
        if checkpoint_every_s is not None and store is None:
            raise NetError("checkpoint_every_s needs a store")
        if install_sigterm and store is None:
            raise NetError("install_sigterm needs a store")
        self.service = service
        self._kwargs = server_kwargs
        self._store = store
        self._checkpoint_every_s = checkpoint_every_s
        self._want_sigterm = install_sigterm
        self._prev_sigterm = None
        self._resume_sessions: list[dict[str, Any]] = []
        #: The recovery report when built by :meth:`from_store`.
        self.recovery = None
        self.server: NetServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._boot_exc: BaseException | None = None
        self._ckpt_task: asyncio.Task | None = None

    @classmethod
    def from_store(
        cls,
        store,
        config=None,
        **kwargs,
    ) -> "ServerThread":
        """Recover a service from ``store`` (newest readable checkpoint
        + WAL tail replay) and host it — the restart half of the crash
        story.  Resume sessions recorded in the checkpoint's ``extra``
        are reinstated at boot; pass ``port=`` the pre-crash port so
        clients can transparently resume.  ``config`` optionally
        overrides the checkpointed engine shape; the recovery report
        lands on ``.recovery``."""
        service, report = store.recover(config=config)
        thread = cls(service, store=store, **kwargs)
        thread._resume_sessions = list(
            report.extra.get("net_sessions", ())
        )
        thread.recovery = report
        return thread

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ServerThread":
        started = threading.Event()

        def main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self.server = NetServer(self.service, **self._kwargs)

            async def boot() -> None:
                try:
                    await self.server.start()
                    if self._resume_sessions:
                        self.server.restore_sessions(
                            self._resume_sessions
                        )
                    if self._store is not None:
                        # First durable point: attaches the WAL, so no
                        # mutation predates the log.
                        self._checkpoint_sync()
                        if self._checkpoint_every_s is not None:
                            self._ckpt_task = asyncio.ensure_future(
                                self._checkpoint_loop()
                            )
                except BaseException as exc:  # surface in __enter__
                    self._boot_exc = exc
                finally:
                    started.set()

            loop.create_task(boot())
            loop.run_forever()
            loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-net-server", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30):
            raise NetError("server thread failed to start in time")
        if self._boot_exc is not None:
            raise self._boot_exc
        if self._want_sigterm:
            self._install_sigterm()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Graceful shutdown: a final durable point (when a store is
        attached), bye to every client, loop torn down.  The service's
        WAL is detached afterwards — its segment stream dies with the
        store, and a detached service mutating on is a caller choice,
        not a crash."""
        if self._loop is None:
            return
        self._uninstall_sigterm()
        try:
            if self._store is not None:
                self.run(self._checkpoint_sync)
            self.call(self.server.aclose())
        finally:
            if self._ckpt_task is not None:
                self._loop.call_soon_threadsafe(self._ckpt_task.cancel)
                self._ckpt_task = None
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop = None
            self._release_store()

    def kill(self) -> None:
        """Crash simulation: every connection aborted mid-frame (no
        bye), the listener dropped, the loop stopped — and, crucially,
        *no* final checkpoint, so the store is exactly as durable as
        the last completed cut plus the WAL tail.  Pair with
        :meth:`from_store` to exercise the recovery path."""
        if self._loop is None:
            return
        self._uninstall_sigterm()
        loop, self._loop = self._loop, None

        def die() -> None:
            server = self.server
            if server._server is not None:
                server._server.close()
                server._server = None
            for conn in list(server._conns):
                conn.closing = True
                transport = conn.writer.transport
                if transport is not None:
                    transport.abort()
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.call_soon(loop.stop)

        loop.call_soon_threadsafe(die)
        self._thread.join(timeout=30)
        self._ckpt_task = None
        self._release_store()

    def _release_store(self) -> None:
        """Detach the service's WAL and close its segment's descriptor.
        Every record was flushed and fsynced when it was written, so
        this writes nothing: after :meth:`kill` the store is byte for
        byte what the crash left, as if the process had died."""
        if self._store is not None:
            self.service.detach_wal()
            self._store.close()

    @property
    def address(self) -> tuple[str, int]:
        """The hosted server's bound ``(host, port)``."""
        return self.server.address

    # -- durability ----------------------------------------------------

    def checkpoint_now(self) -> int:
        """Cut a durable point right now (on the loop thread, so the
        snapshot and the session table are mutually consistent);
        returns the new manifest sequence number."""
        if self._store is None:
            raise NetError("no checkpoint store attached")
        return self.run(self._checkpoint_sync)

    def _checkpoint_sync(self) -> int:
        """Loop-thread body of every checkpoint: service state plus the
        current resume-session table."""
        return self._store.checkpoint(
            self.service,
            extra={"net_sessions": self.server.session_state()},
        )

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self._checkpoint_every_s)
            self._checkpoint_sync()

    def _install_sigterm(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            raise NetError(
                "install_sigterm requires entering the ServerThread "
                "from the main thread"
            )

        def handler(signum, frame) -> None:
            prev = self._prev_sigterm
            try:
                if self._store is not None and self._loop is not None:
                    self.checkpoint_now()
            finally:
                self._uninstall_sigterm()
                if callable(prev):
                    prev(signum, frame)
                else:
                    signal.raise_signal(signal.SIGTERM)

        self._prev_sigterm = signal.signal(signal.SIGTERM, handler)

    def _uninstall_sigterm(self) -> None:
        if self._prev_sigterm is not None:
            prev, self._prev_sigterm = self._prev_sigterm, None
            try:
                signal.signal(signal.SIGTERM, prev)
            except (ValueError, OSError):  # pragma: no cover
                pass  # not on the main thread any more: leave it

    # -- marshalling ---------------------------------------------------

    def call(self, coro):
        """Await ``coro`` on the server loop; return its result."""
        if self._loop is None:
            coro.close()  # never awaited: no "never awaited" warning
            raise NetError("server thread is not running")
        fut = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return fut.result(timeout=60)

    def run(self, fn: Callable, *args, **kwargs):
        """Run the synchronous ``fn(*args, **kwargs)`` on the loop
        thread (where publishing to subscriber queues is safe)."""
        if self._loop is None:
            raise NetError("server thread is not running")
        done = threading.Event()
        box: list = [None, None]

        def go() -> None:
            try:
                box[0] = fn(*args, **kwargs)
            except BaseException as exc:
                box[1] = exc
            finally:
                done.set()

        self._loop.call_soon_threadsafe(go)
        if not done.wait(timeout=60):
            raise NetError("loop-thread call timed out")
        if box[1] is not None:
            raise box[1]
        return box[0]

    # -- service verbs, marshalled ------------------------------------

    def watch(self, spec: QuerySpec, query_id: str | None = None) -> str:
        """Register a standing query on the loop thread."""
        return self.run(self.service.watch, spec, query_id)

    def unwatch(self, query_id: str) -> None:
        """Deregister a standing query on the loop thread."""
        self.run(self.service.unwatch, query_id)

    def ingest(self, moves):
        """Apply a move batch on the loop thread."""
        return self.run(self.service.ingest, moves)

    def insert(self, obj):
        """Insert an object on the loop thread."""
        return self.run(self.service.insert, obj)

    def delete(self, object_id: str):
        """Delete an object on the loop thread."""
        return self.run(self.service.delete, object_id)

    def apply_event(self, event):
        """Apply a topology event on the loop thread."""
        return self.run(self.service.apply_event, event)


# =====================================================================
# clients
# =====================================================================


class TcpTransport:
    """Blocking socket transport (the default); the seam
    :class:`~repro.api.testing.FlakyTransport` wraps for fault
    injection."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None

    def connect(self) -> None:
        """Open the TCP connection."""
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _live(self) -> socket.socket:
        if self._sock is None:
            raise ConnectionError("transport is closed")
        return self._sock

    def settimeout(self, timeout: float | None) -> None:
        """Set the socket read/write timeout (``None`` blocks)."""
        self._live().settimeout(timeout)

    def sendall(self, data: bytes) -> None:
        """Write all of ``data`` to the socket."""
        self._live().sendall(data)

    def recv(self, n: int = _READ_CHUNK) -> bytes:
        """Read up to ``n`` bytes (empty bytes means EOF)."""
        return self._live().recv(n)

    def close(self) -> None:
        """Close the socket; safe to call when never connected."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


@dataclass
class _ClientState:
    """Replayed standing-query state shared by both client flavours.

    Folds the incoming record stream by :func:`replay_feed`'s rules —
    ``watch`` opens, ``snapshot`` re-primes wholesale, ``delta`` /
    ``batch`` apply incrementally, ``deregister`` closes — plus the
    net-layer control records."""

    states: dict[str, dict[str, float | None]] = field(
        default_factory=dict
    )
    watched: dict[str, QuerySpec] = field(default_factory=dict)
    token: str | None = None
    heartbeat_s: float | None = None
    records_received: int = 0
    deltas_received: int = 0
    heartbeats_seen: int = 0
    #: Snapshots received for an already-primed query: the count of
    #: mid-stream re-primes (drop-resync or reconnect).
    resyncs: int = 0
    server_said_bye: bool = False
    _primed: set = field(default_factory=set)

    def fold(self, record: NetRecord) -> None:
        self.records_received += 1
        if isinstance(record, HelloRecord):
            self.token = record.token
            self.heartbeat_s = record.heartbeat_s
        elif isinstance(record, wire.WatchRecord):
            self.watched[record.query_id] = record.spec
            self.states.setdefault(record.query_id, {})
        elif isinstance(record, wire.SnapshotRecord):
            if record.query_id in self._primed:
                self.resyncs += 1
            self._primed.add(record.query_id)
            self.states[record.query_id] = dict(record.members)
        elif isinstance(record, ResultDelta):
            self._apply(record)
        elif isinstance(record, wire.DeltaBatch):
            for delta in record.deltas:
                self._apply(delta)
        elif isinstance(record, HeartbeatRecord):
            self.heartbeats_seen += 1
        elif isinstance(record, ByeRecord):
            self.server_said_bye = True
        elif isinstance(record, ErrorRecord):
            raise NetError(f"server error: {record.message}")
        # A pong is awaited by its sender's predicate; a bare QuerySpec
        # carries no query id: metadata only.

    def _apply(self, delta: ResultDelta) -> None:
        self.deltas_received += 1
        if delta.cause == "deregister":
            self.states.pop(delta.query_id, None)
            self.watched.pop(delta.query_id, None)
            self._primed.discard(delta.query_id)
            return
        delta.apply_to(self.states.setdefault(delta.query_id, {}))


class _ClientCore:
    """The sans-IO protocol half both clients share.

    Framing (one encoder / decoder per connection), the pending list of
    decoded records, the folded :class:`_ClientState`, the
    hello-or-resume opener, and the predicates the watch ack and the
    ping/pong barrier wait on.  A client adds only I/O: it sends what
    :meth:`_frame` encodes, hands every read to :meth:`_feed`, and reads
    again while :meth:`_take` has not found the awaited record."""

    def __init__(self) -> None:
        self.state = _ClientState()
        self.reconnects = 0
        self._nonce = itertools.count(1)
        self._fresh_connection()

    @property
    def states(self) -> dict[str, dict[str, float | None]]:
        """Folded live result per watched query id."""
        return self.state.states

    @property
    def watched(self) -> dict[str, QuerySpec]:
        """Spec per watched query id, in watch order."""
        return self.state.watched

    @property
    def token(self) -> str | None:
        """The server-issued resume token (``None`` before hello)."""
        return self.state.token

    def _fresh_connection(self) -> HelloRecord | ResumeRequest:
        """Reset the framing for a new connection; returns the record
        that opens it — ``resume`` when a token is held, else
        ``hello``."""
        self._encoder = FrameEncoder()
        self._decoder = FrameDecoder()
        self._pending: deque[NetRecord] = deque()
        self.state.server_said_bye = False
        return ResumeRequest(self.token) if self.token else HelloRecord()

    def _frame(self, record: NetRecord) -> bytes:
        return self._encoder.encode(encode_net_record(record))

    def _feed(self, data: bytes) -> None:
        """Decode one read's bytes onto the pending list (a torn,
        duplicated or reordered frame raises
        :class:`~repro.errors.FramingError`)."""
        for payload in self._decoder.feed(data):
            self._pending.append(decode_net_record(payload))

    def _next(self) -> NetRecord | None:
        """Fold and return the oldest pending record (``None`` when
        nothing is pending)."""
        if not self._pending:
            return None
        record = self._pending.popleft()
        self.state.fold(record)
        return record

    def _take(
        self, pred: Callable[[NetRecord], bool], deadline: float
    ) -> NetRecord | None:
        """Fold pending records up to the first that satisfies
        ``pred`` and return it; ``None`` means read more.  Past the
        ``deadline`` that is a :class:`~repro.errors.NetError`."""
        while (record := self._next()) is not None:
            if pred(record):
                return record
        if time.monotonic() >= deadline:
            raise NetError("timed out waiting for the server")
        return None

    def _watch_request(
        self, spec: QuerySpec | None, query_id: str | None
    ) -> tuple[WatchRequest, Callable[[NetRecord], bool]]:
        """A ``watch_req`` and the predicate matching its ack: the
        named query's, or for a bare spec the first new query acked
        with that spec."""
        if spec is None and query_id is None:
            raise NetError("watch needs a spec or a query_id")
        known = set(self.watched)

        def acked(record: NetRecord) -> bool:
            if not isinstance(record, wire.WatchRecord):
                return False
            if query_id is not None:
                return record.query_id == query_id
            return record.spec == spec and record.query_id not in known

        return WatchRequest(spec, query_id), acked

    def _ping(self) -> tuple[PingRecord, Callable[[NetRecord], bool]]:
        """A fresh-nonce ``ping`` and the predicate matching its pong."""
        nonce = next(self._nonce)
        return PingRecord(nonce), (
            lambda r: isinstance(r, PongRecord) and r.nonce == nonce
        )


class NetClient(_ClientCore):
    """Blocking subscriber to a :class:`NetServer`.

    Usage::

        client = NetClient(host, port)
        client.connect()
        kiosk = client.watch(RangeSpec(q, 60.0))
        client.sync()                       # drain barrier
        client.states[kiosk]                # member -> annotation

    ``states`` is the replayed result per watched query and is kept
    exact: snapshots re-prime it wholesale after any loss, and with
    ``auto_reconnect`` (the default) a dead connection — torn frame,
    reset, stalled read, duplicated frame — is transparently resumed
    with the server-issued token, which re-primes every watch from a
    current snapshot.  A server ``error`` record always surfaces as
    :class:`~repro.errors.NetError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        auto_reconnect: bool = True,
        max_reconnects: int = 8,
        transport_factory: (
            Callable[[], TcpTransport] | None
        ) = None,
    ) -> None:
        super().__init__()
        self.host = host
        self.port = port
        self.timeout = timeout
        self.auto_reconnect = auto_reconnect
        self.max_reconnects = max_reconnects
        self._transport_factory = transport_factory or (
            lambda: TcpTransport(host, port, timeout)
        )
        self._transport: TcpTransport | None = None

    # -- lifecycle -----------------------------------------------------

    def connect(self) -> None:
        """Open the connection and complete the handshake (a resume
        when a token is held, else a hello)."""
        self._transport = self._transport_factory()
        self._transport.connect()
        opener = self._fresh_connection()
        self._send_raw(opener)
        self._read_until(
            lambda r: isinstance(r, HelloRecord),
            time.monotonic() + self.timeout,
            handshake=True,
        )

    def reconnect(self) -> None:
        """Resume the session on a fresh connection (token required);
        every watch re-acks and re-primes from a current snapshot."""
        if self.token is None:
            raise NetError("cannot resume: no token (connect first)")
        self.disconnect()
        self.connect()
        self.reconnects += 1

    def disconnect(self) -> None:
        """Drop the socket without a goodbye (the session stays
        resumable server-side) — what a crash looks like to the peer."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def close(self) -> None:
        """Polite shutdown: say bye (ending the server-side session),
        then drop the socket."""
        if self._transport is not None:
            try:
                self._send_raw(ByeRecord())
            except (OSError, NetError):
                pass
        self.disconnect()

    # -- verbs ---------------------------------------------------------

    def watch(
        self,
        spec: QuerySpec | None = None,
        query_id: str | None = None,
        timeout: float | None = None,
    ) -> str:
        """Subscribe to a standing query (existing ``query_id``) or
        register a new one from ``spec``; returns the final id once
        the server acks.  Records arriving meanwhile are folded."""
        request, acked = self._watch_request(spec, query_id)
        deadline = time.monotonic() + (timeout or self.timeout)
        self._send(request)
        return self._read_until(acked, deadline).query_id

    def sync(self, timeout: float | None = None) -> None:
        """Drain barrier: returns once every delta published before
        the server processed this ping has been received and folded.
        Re-pings automatically if a reconnect interrupts the wait."""
        deadline = time.monotonic() + (timeout or self.timeout)
        while True:
            ping, ponged = self._ping()
            epoch = self.reconnects
            self._send(ping)
            # A new connection lost this ping: re-ping on it.
            while self.reconnects == epoch:
                if self._take(ponged, deadline) is not None:
                    return
                self._recv()

    def poll(self, timeout: float = 0.05) -> int:
        """Opportunistic read: fold whatever arrives within
        ``timeout`` seconds; returns the number of records folded.
        A quiet wire is not an error."""
        before = self.state.records_received
        self._recv(poll_s=timeout)
        while self._next() is not None:
            pass
        return self.state.records_received - before

    def records(self) -> Iterator[NetRecord]:
        """Blocking record iterator (each record folded before it is
        yielded); ends at the server's bye."""
        while not self.state.server_said_bye:
            record = self._next()
            if record is None:
                self._recv()
            elif isinstance(record, ByeRecord):
                return
            else:
                yield record

    # -- internals -----------------------------------------------------

    def _live(self) -> TcpTransport:
        if self._transport is None:
            raise ConnectionError("not connected")
        return self._transport

    def _send(self, record: NetRecord) -> None:
        try:
            self._send_raw(record)
        except (ConnectionError, OSError) as exc:
            self._revive(exc)
            self._send_raw(record)

    def _send_raw(self, record: NetRecord) -> None:
        self._live().sendall(self._frame(record))

    def _recv(
        self, poll_s: float | None = None, handshake: bool = False
    ) -> None:
        """Hand one read's bytes to the protocol core.  A dead
        connection — reset, EOF, torn or duplicated frame, stalled
        read — is resumed, or during the ``handshake`` surfaced.  With
        ``poll_s`` the read waits at most that long and a quiet wire is
        not an error."""
        try:
            transport = self._live()
            if poll_s is not None:
                transport.settimeout(poll_s)
            try:
                data = transport.recv()
            finally:
                if poll_s is not None:
                    with contextlib.suppress(OSError):
                        transport.settimeout(self.timeout)
            if not data:
                raise ConnectionError("server closed the connection")
            self._feed(data)
        except (
            TimeoutError, ConnectionError, OSError, FramingError
        ) as exc:
            if poll_s is not None and isinstance(exc, TimeoutError):
                return  # a quiet wire, not a stalled one
            if handshake:
                raise NetError(
                    f"connection failed during handshake: {exc}"
                ) from exc
            self._revive(exc)

    def _read_until(
        self,
        pred: Callable[[NetRecord], bool],
        deadline: float,
        handshake: bool = False,
    ) -> NetRecord:
        """Fold records until one satisfies ``pred`` (returned) or the
        deadline passes (:class:`NetError`)."""
        while (record := self._take(pred, deadline)) is None:
            self._recv(handshake=handshake)
        return record

    def _revive(self, exc: Exception) -> None:
        """The connection is unusable (reset, torn frame, duplicated
        frame, stalled read): resume it, or surface the failure."""
        if (
            not self.auto_reconnect
            or self.token is None
            or self.reconnects >= self.max_reconnects
        ):
            self.disconnect()
            raise NetError(f"connection lost: {exc}") from exc
        self.reconnect()


class AsyncNetClient(_ClientCore):
    """In-loop counterpart of :class:`NetClient` (asyncio streams).

    Reconnection is explicit (``await resume()``); everything else —
    folding rules, watch ack, ping/pong barrier — is the shared
    protocol core, so either can stand in for the other in tests.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 10.0
    ) -> None:
        super().__init__()
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        """Open the connection (resuming when a token is held)."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        opener = self._fresh_connection()
        await self._send(opener)
        await self._read_until(lambda r: isinstance(r, HelloRecord))

    async def resume(self) -> None:
        """Reconnect with the held token; watches re-prime in-band."""
        if self.token is None:
            raise NetError("cannot resume: no token (connect first)")
        await self.aclose(say_bye=False)
        await self.connect()
        self.reconnects += 1

    async def aclose(self, say_bye: bool = True) -> None:
        """Close the connection (with a ``bye`` unless told not to)."""
        if self._writer is None:
            return
        if say_bye:
            try:
                await self._send(ByeRecord())
            except (OSError, NetError):
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._writer = None
        self._reader = None

    async def watch(
        self,
        spec: QuerySpec | None = None,
        query_id: str | None = None,
    ) -> str:
        """Negotiate one watch; returns the acked query id."""
        request, acked = self._watch_request(spec, query_id)
        await self._send(request)
        return (await self._read_until(acked)).query_id

    async def sync(self) -> None:
        """Ping/pong drain barrier: returns with all deltas folded."""
        ping, ponged = self._ping()
        await self._send(ping)
        await self._read_until(ponged)

    async def next_record(self) -> NetRecord | None:
        """The next folded record, or ``None`` at end of stream."""
        if self.state.server_said_bye:
            return None
        while (record := self._next()) is None:
            await self._recv()
        return None if isinstance(record, ByeRecord) else record

    def __aiter__(self) -> "AsyncNetClient":
        return self

    async def __anext__(self) -> NetRecord:
        record = await self.next_record()
        if record is None:
            raise StopAsyncIteration
        return record

    async def _send(self, record: NetRecord) -> None:
        if self._writer is None:
            raise NetError("not connected")
        self._writer.write(self._frame(record))
        await self._writer.drain()

    async def _recv(self) -> None:
        data = await asyncio.wait_for(
            self._reader.read(_READ_CHUNK), timeout=self.timeout
        )
        if not data:
            raise NetError("server closed the connection")
        self._feed(data)

    async def _read_until(
        self, pred: Callable[[NetRecord], bool]
    ) -> NetRecord:
        deadline = time.monotonic() + self.timeout
        while (record := self._take(pred, deadline)) is None:
            if self.state.server_said_bye:
                raise NetError("stream ended before the awaited record")
            await self._recv()
        return record
