"""The four benchmark workloads.

Each workload is an object with the same life cycle, driven by
``worker.py``: :meth:`Workload.setup` (timed as set-up: build the
world, construct the service, register or connect, warm up),
:meth:`Workload.measure` (the measured pass — a wall-clock window, or
a fixed operation count for the traced run), :meth:`Workload.verify`
(oracle checks, outside every timed window) and :meth:`Workload.close`.

Load comes from one process: one driver thread and, for ``served_mix``,
one reader thread on one TCP connection.  Movement generation is
interleaved with ingest (a random walk needs the previous batch
applied) but sits outside every timed interval.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from machine import Calibrator
from oracle import Oracle, standing_equals_fresh
from spans import Tracer
from worlds import (
    ONESHOT_KINDS,
    WORLD_A,
    WORLD_B,
    World,
    WorldShape,
    knn_stream_specs,
    range_stream_specs,
    served_specs,
    stream_over,
)

from repro import QueryStats, ResultDelta
from repro.api import (
    CheckpointStore,
    NetClient,
    QueryService,
    ServerThread,
    ServiceConfig,
)

#: A delivered delta later than this counts as a failed operation.
DELIVERY_LIMIT_MS = 500.0


@dataclass
class Samples:
    """What one measured pass produced.

    Times are kept as ``(start, end)`` instants so that each can be
    paired with the machine slowdown measured around it
    (:class:`~machine.Calibrator`); the ``*_slow`` lists are filled in
    when the pass ends.
    """

    #: Work units completed: queries, or position updates absorbed.
    units: int = 0
    #: Each ``run()`` / ``ingest()`` call.
    service: list[tuple[float, float]] = field(default_factory=list)
    service_slow: list[float] = field(default_factory=list)
    #: The latency a user of this workload feels, one interval per
    #: answer: a ``run()`` call, an ``ingest()`` call, or — served —
    #: batch due time to its delta folded by the client.
    latency: list[tuple[float, float]] = field(default_factory=list)
    latency_slow: list[float] = field(default_factory=list)
    #: Query kind of each ``service`` entry (one-shot mix only).
    kinds: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Failures that are wrong *outputs* (subset of ``failed``).
    mismatches: int = 0
    notes: list[str] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)
    late_ms: list[float] = field(default_factory=list)
    net_overhead_ms: list[float] = field(default_factory=list)
    query_stats: QueryStats = field(default_factory=QueryStats)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: The run's typical machine slowdown (1.0 = reference machine).
    slowdown: float = 1.0

    def service_s(self, normalised: bool) -> list[float]:
        """Per-call service times, raw or machine-normalised."""
        return _durations(self.service, self.service_slow, normalised)

    def latency_ms(self, normalised: bool) -> list[float]:
        """Per-answer latencies in ms, raw or machine-normalised."""
        return [
            1e3 * d
            for d in _durations(self.latency, self.latency_slow, normalised)
        ]

    def kind_ms(self, kind: str, normalised: bool) -> list[float]:
        """Service times in ms of one query kind."""
        times = self.service_s(normalised)
        return [
            1e3 * t for t, k in zip(times, self.kinds) if k == kind
        ]

    def fail(self, note: str, mismatch: bool = False) -> None:
        """Count one failed operation."""
        self.failed += 1
        if mismatch:
            self.mismatches += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        """Count one correctness check; a false one is a mismatch."""
        self.attempted += 1
        if not ok:
            self.fail(note, mismatch=True)


def _durations(
    spans: list[tuple[float, float]], slow: list[float], normalised: bool
) -> list[float]:
    if normalised:
        return [(t1 - t0) / f for (t0, t1), f in zip(spans, slow)]
    return [t1 - t0 for t0, t1 in spans]


def _window(seconds: float, n_ops: int | None) -> Iterator[int]:
    """Operation indices: ``n_ops`` of them, or as many as start within
    ``seconds`` of wall time."""
    start = time.perf_counter()
    i = 0
    while (
        i < n_ops
        if n_ops is not None
        else time.perf_counter() - start < seconds
    ):
        yield i
        i += 1


def read_counters(service: Any) -> dict[str, float]:
    """The service's public stats objects flattened to one dict."""
    stats = service.stats
    session = service.session
    out = {
        "updates_seen": stats.updates_seen,
        "pairs_evaluated": stats.pairs_evaluated,
        "pairs_skipped": stats.pairs_skipped,
        "pairs_refined": stats.pairs_refined,
        "full_recomputes": stats.full_recomputes,
        "deltas_emitted": stats.deltas_emitted,
        "kernel_pairs": getattr(stats, "kernel_pairs", 0),
        "kernel_pruned": getattr(stats, "kernel_pruned", 0),
        "kernel_fallbacks": getattr(stats, "kernel_fallbacks", 0),
        "session_hits": session.hits,
        "session_misses": session.misses,
        "session_evictions": session.evictions,
        "deltas_published": service.deltas_published,
        "deltas_dropped": service.deltas_dropped,
    }
    routing = service.routing
    if routing is not None:
        out.update(
            shard_visits=routing.shard_visits,
            shards_skipped=routing.shards_skipped,
            updates_filtered=routing.updates_filtered,
            bucket_skips=routing.bucket_skips,
            reach_cache_hits=routing.reach_cache_hits,
        )
    return out


class Workload:
    """Common life cycle and the timing of one driver operation."""

    name = ""
    #: Traced-run operations per second of ``--seconds`` — sized so the
    #: fixed sequence takes about a third of the untraced window.
    trace_ops_per_s = 1.0

    def __init__(
        self,
        seed: int,
        out_dir: Path,
        quick: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.quick = quick
        self.tracer = tracer
        #: The traced run also pays for the slow exhaustive checks
        #: (an oracle iPRQ over world A takes seconds).
        self.thorough = tracer is not None
        self.calibrator = Calibrator()
        self.service: Any = None
        #: Counter deltas over the measured pass (see read_counters).
        self.counts: dict[str, float] = {}
        #: Network counters and newest checkpoint size; only the served
        #: workload has any.
        self.net_counts: dict[str, float] = {}
        self.checkpoint_kb = 0.0

    def _shape_a(self) -> WorldShape:
        """World A — or, at ``--quick`` smoke size, the small world."""
        return WORLD_B if self.quick else WORLD_A

    def trace_ops(self, seconds: float) -> int:
        """The traced run's fixed operation count."""
        return max(6, round(self.trace_ops_per_s * seconds))

    def setup(self) -> None:
        """Build everything the measured pass needs; warm up."""
        raise NotImplementedError

    def measure(self, seconds: float, n_ops: int | None) -> Samples:
        """Run the measured pass."""
        raise NotImplementedError

    def verify(self, samples: Samples) -> None:
        """Oracle checks on the state the pass left behind."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every resource set-up acquired (idempotent)."""
        if self.service is not None:
            self.service.close()
            self.service = None

    def _timed(
        self, samples: Samples, op_id: int, fn: Callable, *args
    ) -> tuple[Any, tuple[float, float]]:
        """Call ``fn(*args)`` as driver operation ``op_id``; returns
        (result or None if it raised, (start, end) instants).  The
        traced run wraps the call in the root ``op`` span."""
        samples.attempted += 1
        tracer = self.tracer
        span = None
        if tracer is not None:
            tracer.op_id = op_id
            span = tracer.open("op", adopter=True)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # noqa: BLE001 - an op that raises is a failure
            samples.fail(f"op {op_id} raised: {traceback.format_exc()}")
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span, adopter=True)
        return result, (t0, t1)

    def _begin(self) -> tuple[dict[str, float], float, float]:
        self.calibrator.sample(3)
        if self.tracer is not None:
            self.tracer.enabled = True
        return (
            read_counters(self.service),
            time.perf_counter(),
            time.process_time(),
        )

    def _end(
        self, samples: Samples, begun: tuple[dict[str, float], float, float]
    ) -> None:
        base, wall0, cpu0 = begun
        samples.wall_s = time.perf_counter() - wall0
        samples.cpu_s = time.process_time() - cpu0
        if self.tracer is not None:
            self.tracer.enabled = False
        now = read_counters(self.service)
        self.counts = {k: now[k] - base.get(k, 0) for k in now}
        self.calibrator.sample(3)

    def _normalise(self, samples: Samples) -> None:
        """Pair every timed interval with the machine slowdown
        measured around it."""
        slowdown = self.calibrator.slowdown
        samples.service_slow = [slowdown(*span) for span in samples.service]
        samples.latency_slow = [slowdown(*span) for span in samples.latency]
        samples.slowdown = self.calibrator.median_slowdown()


class OneshotMix(Workload):
    """World A, static population, one caller issuing ``run()``."""

    name = "oneshot_mix"
    trace_ops_per_s = 6.0
    #: Query-point pool: twice the session's 256-entry LRU.
    POOL = 512
    #: Every other round comes from one of this many recurring points.
    HOT = 32

    def setup(self) -> None:
        """Build world A; pre-fill the session cache to its bound."""
        self.world = World.build(self._shape_a(), self.seed)
        self.service = QueryService(self.world.index, ServiceConfig())
        self.pool = self.world.points(self.POOL, salt=11)
        self.sampled: list[tuple[Any, dict]] = []
        ops = self._ops()
        for _ in range(6 if self.quick else 12):
            self.service.run(next(ops)[1])
        # Fill the LRU (one Dijkstra per pool point, the recurring
        # points last) so the window sees hits, misses and evictions
        # from its first query on.
        for q in self.pool[self.HOT:] + self.pool[: self.HOT]:
            self.service.session.door_distances(q)

    def _ops(self) -> Iterator[tuple[str, Any]]:
        """The endless query sequence: rounds of three queries from one
        point (a kiosk's iRQ, then ikNNQ, then iPRQ), alternately from
        the recurring points and from the rest of the pool.  The order
        in which pool slots are visited is fixed — every seed asks from
        the same partitions in the same order, at its own spots — and
        each cycle visits every slot once, so no seed's window is
        luckier in its draw of expensive corners than another's."""
        order = random.Random(13)
        hot = order.sample(range(self.HOT), self.HOT)
        cold = order.sample(range(self.HOT, self.POOL), self.POOL - self.HOT)
        round_no = 0
        while True:
            cycle = cold if round_no % 2 else hot
            q = self.pool[cycle[(round_no // 2) % len(cycle)]]
            for kind, make in ONESHOT_KINDS:
                yield kind, make(q, round_no % 3)
            round_no += 1

    def measure(self, seconds: float, n_ops: int | None) -> Samples:
        """Closed loop: the next query starts when the last returned."""
        samples = Samples()
        ops = self._ops()
        # Oracle samples per kind: the exhaustive iPRQ costs seconds.
        wanted = {"irq": 3, "iknn": 3, "iprq": int(self.thorough)}
        begun = self._begin()
        for i in _window(seconds, n_ops):
            kind, spec = next(ops)
            samples.digest.update(repr(spec).encode())
            stats = QueryStats() if self.tracer is not None else None
            result, span = self._timed(
                samples, i, self.service.run, spec, stats
            )
            self.calibrator.sample()
            if result is None:
                continue
            samples.units += 1
            samples.service.append(span)
            samples.latency.append(span)
            samples.kinds.append(kind)
            if stats is not None:
                samples.query_stats = samples.query_stats.merge(stats)
            if i % 23 == 0 and wanted[kind] > 0:
                wanted[kind] -= 1
                self.sampled.append((spec, dict(result.distances)))
        self._end(samples, begun)
        self._normalise(samples)
        return samples

    def verify(self, samples: Samples) -> None:
        """Sampled results equal the exhaustive evaluator's (the
        population is static, so checking after the window is exact)."""
        oracle = Oracle(self.world.space, self.world.population)
        for spec, members in self.sampled:
            samples.check(
                oracle.agrees(spec, members), f"oracle mismatch: {spec}"
            )


class _Stream(Workload):
    """World A, single engine, standing queries under ``ingest()``."""

    batch_size = 0
    make_specs: Callable[[list], list]
    #: The second oracle-checked query of an untraced run (the last
    #: query when that is cheap to check exhaustively).
    cheap_oracle_index = -1

    def setup(self) -> None:
        """Build world A, register the standing queries, warm up."""
        self.world = World.build(self._shape_a(), self.seed)
        self.service = QueryService(self.world.index, ServiceConfig())
        specs = self.make_specs(self.world.points(48, salt=17))
        self.query_ids = [self.service.watch(spec) for spec in specs]
        self.stream = self.world.stream()
        for _ in range(2):
            self.service.ingest(self.stream.next_moves(self.batch_size))

    def measure(self, seconds: float, n_ops: int | None) -> Samples:
        """Closed loop: generate a batch (untimed), ingest it (timed)."""
        samples = Samples()
        begun = self._begin()
        for i in _window(seconds, n_ops):
            moves = self.stream.next_moves(self.batch_size)
            _digest_moves(samples, moves)
            batch, span = self._timed(
                samples, i, self.service.ingest, moves
            )
            self.calibrator.sample()
            if batch is None:
                continue
            samples.units += len(batch.moved)
            samples.service.append(span)
            samples.latency.append(span)
        self._end(samples, begun)
        self._normalise(samples)
        return samples

    def verify(self, samples: Samples) -> None:
        """Every standing result equals a from-scratch ``run()``; two
        of them equal the exhaustive evaluator."""
        oracle = Oracle(self.world.space, self.world.population)
        last = -1 if self.thorough else self.cheap_oracle_index
        for query_id in (self.query_ids[0], self.query_ids[last]):
            samples.check(
                oracle.agrees(
                    self.service.query_spec(query_id),
                    self.service.result_distances(query_id),
                ),
                f"oracle mismatch on standing {query_id}",
            )
        for query_id in self.query_ids:
            samples.check(
                standing_equals_fresh(self.service, query_id),
                f"standing {query_id} != fresh run()",
            )


class RangeStream(_Stream):
    """48 standing range queries: the bounds path is all of ingest."""

    name = "range_stream"
    trace_ops_per_s = 1.5
    batch_size = 20
    make_specs = staticmethod(range_stream_specs)
    cheap_oracle_index = 16  # an iRQ; the last query is an iPRQ


class KnnStream(_Stream):
    """12 standing queries: ikNNQ recomputation is most of ingest."""

    name = "knn_stream"
    trace_ops_per_s = 5.0
    batch_size = 5
    make_specs = staticmethod(knn_stream_specs)


def _digest_moves(samples: Samples, moves: list) -> None:
    for move in moves:
        center = move.new_region.center
        samples.digest.update(
            f"{move.object_id}:{center.x!r},{center.y!r},{center.floor};"
            .encode()
        )


class _Reader(threading.Thread):
    """The subscriber: folds every record, stamps each delta's arrival.

    The client is not thread-safe, so the driver touches it only
    before :meth:`start` and after :meth:`halt`.
    """

    def __init__(self, client: NetClient, tracer: Tracer | None) -> None:
        super().__init__(name="e2e-reader", daemon=True)
        self.client = client
        self.tracer = tracer
        self.arrivals: dict[str, list[float]] = defaultdict(list)
        self.arrived = 0
        self.error: BaseException | None = None
        self._stop_asked = threading.Event()

    def run(self) -> None:
        """Read until asked to stop (checked at every record; the
        server's heartbeat bounds the wait on a quiet wire)."""
        if self.tracer is not None:
            self.tracer.detach_thread()
        try:
            for record in self.client.records():
                if isinstance(record, ResultDelta):
                    self.arrivals[record.query_id].append(
                        time.perf_counter()
                    )
                    self.arrived += 1
                if self._stop_asked.is_set():
                    return
        except Exception as exc:  # noqa: BLE001 - reported by the driver
            self.error = exc

    def halt(self) -> bool:
        """Ask the thread to stop; whether it did."""
        self._stop_asked.set()
        self.join(timeout=10.0)
        return not self.is_alive()


class ServedMix(Workload):
    """World B behind the production stack, one subscriber over TCP."""

    name = "served_mix"
    trace_ops_per_s = 5.0 / 3.0
    batch_size = 20
    #: Open loop: one batch is due every period, whatever the server
    #: does (100 position updates per second offered).
    period_s = 0.2
    checkpoint_every = 25
    drill_batches = 10

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.st: ServerThread | None = None
        self.client: NetClient | None = None
        self.reader: _Reader | None = None
        self.tmp: Path | None = None
        self.store: CheckpointStore | None = None

    def setup(self) -> None:
        """Build world B, host it durably, connect and watch, warm up."""
        try:
            self._setup()
        except BaseException:
            self.close()
            raise

    def _setup(self) -> None:
        self.world = World.build(WORLD_B, self.seed)
        self.service = QueryService(
            self.world.index, ServiceConfig(n_shards=4, workers=2)
        )
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(
            tempfile.mkdtemp(prefix="store-", dir=self.out_dir)
        )
        self.store = CheckpointStore(self.tmp)
        self.st = ServerThread(
            self.service, store=self.store, heartbeat_s=0.5
        ).__enter__()
        specs = served_specs(self.world.points(16, salt=19))
        self.query_ids = [
            self.st.watch(spec, query_id=f"q{i:02d}")
            for i, spec in enumerate(specs)
        ]
        self.client = NetClient(*self.st.address)
        self.client.connect()
        for query_id in self.query_ids:
            self.client.watch(query_id=query_id)
        self.stream = self.world.stream()
        for _ in range(3):
            self.st.ingest(self.stream.next_moves(self.batch_size))
        self.client.sync()
        # Resume tokens live in checkpoints: make this client's durable
        # now, as the periodic cut of a long-running server would have.
        self.st.checkpoint_now()

    def measure(self, seconds: float, n_ops: int | None) -> Samples:
        """Open loop: batch ``b`` is due at ``start + b * period`` and
        every latency is taken from that instant."""
        samples = Samples()
        n_batches = (
            n_ops if n_ops is not None
            else max(1, round(seconds / self.period_s))
        )
        owed: dict[str, list[tuple[float, float]]] = defaultdict(list)
        owed_total = 0
        self.reader = _Reader(self.client, self.tracer)
        self.reader.start()
        begun = self._begin()
        sent0 = self._data_records_sent()
        start = time.perf_counter() + 0.05
        for b in range(n_batches):
            moves = self.stream.next_moves(self.batch_size)
            _digest_moves(samples, moves)
            due = start + b * self.period_s
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            samples.late_ms.append((time.perf_counter() - due) * 1e3)
            batch, span = self._timed(samples, b, self.st.ingest, moves)
            returned = span[1]
            if batch is not None:
                samples.units += len(batch.moved)
                samples.service.append(span)
                for delta in batch.deltas:
                    if not delta.is_empty:
                        owed[delta.query_id].append((due, returned))
                        owed_total += 1
            if (b + 1) % self.checkpoint_every == 0:
                self.st.checkpoint_now()
            # Generating the next batch (or calibrating) now would
            # compete with the delivery of this one for the interpreter
            # lock, and both are harness work: let the deltas land.
            quiet_by = due + 0.6 * self.period_s
            while (
                self.reader.arrived < owed_total
                and time.perf_counter() < quiet_by
            ):
                time.sleep(0.002)
            self.calibrator.sample()
        # Stragglers get the full delivery limit before they count as
        # missing.
        deadline = time.perf_counter() + DELIVERY_LIMIT_MS / 1e3
        while (
            self.reader.arrived < owed_total
            and time.perf_counter() < deadline
        ):
            time.sleep(0.005)
        self._end(samples, begun)
        if not self.reader.halt():
            samples.fail("reader thread did not stop")
        if self.reader.error is not None:
            samples.fail(f"reader raised: {self.reader.error!r}")
        self._match(samples, owed)
        self._normalise(samples)
        self._backlog_check(samples)
        self.net_counts = {
            "records_sent": self._data_records_sent() - sent0,
            "resyncs": self.client.state.resyncs,
            "reconnects": self.client.reconnects,
        }
        return samples

    def _data_records_sent(self) -> int:
        """Records the server put on sockets, heartbeats excluded (how
        many of those a run sees depends on its timing)."""
        stats = self.st.server.stats
        return stats.records_sent - stats.heartbeats_sent

    def _match(
        self,
        samples: Samples,
        owed: dict[str, list[tuple[float, float]]],
    ) -> None:
        """Pair each owed delta with its arrival, FIFO per query."""
        for query_id, dues in owed.items():
            arrivals = self.reader.arrivals.get(query_id, [])
            for k, (due, returned) in enumerate(dues):
                samples.attempted += 1
                if k >= len(arrivals):
                    samples.fail(f"delta {k} of {query_id} never arrived")
                    continue
                latency = (arrivals[k] - due) * 1e3
                samples.latency.append((due, arrivals[k]))
                samples.net_overhead_ms.append(
                    (arrivals[k] - returned) * 1e3
                )
                if latency > DELIVERY_LIMIT_MS:
                    samples.fail(
                        f"delta {k} of {query_id} took {latency:.0f} ms"
                    )

    def _backlog_check(self, samples: Samples) -> None:
        """A server slower than the offered rate shows as start
        lateness growing over the window: that is a failure, not a
        latency."""
        late = samples.late_ms
        tenth = len(late) // 10
        if tenth < 2:
            return
        samples.attempted += 1
        growth = statistics.median(late[-tenth:]) - statistics.median(
            late[:tenth]
        )
        if growth > 500.0 * self.period_s:
            samples.fail(f"backlog grew: start lateness +{growth:.0f} ms")

    def _converged(self) -> bool:
        """Client's folded state == the server's live results."""
        self.client.sync()
        return all(
            self.client.states.get(query_id)
            == self.st.service.result_distances(query_id)
            for query_id in self.query_ids
        )

    def verify(self, samples: Samples) -> None:
        """Convergence after the window, oracle and fresh-run checks,
        then crash-restart drills on the same port."""
        samples.check(self._converged(), "client diverged after window")
        samples.check(
            self.client.state.resyncs == 0,
            f"{self.client.state.resyncs} resyncs during the window",
        )
        service = self.st.service
        oracle = Oracle(service.index.space, service.index.population)
        for query_id in (self.query_ids[0], self.query_ids[-1]):
            samples.check(
                oracle.agrees(
                    service.query_spec(query_id),
                    service.result_distances(query_id),
                ),
                f"oracle mismatch on standing {query_id}",
            )
        for query_id in self.query_ids:
            samples.check(
                standing_equals_fresh(service, query_id),
                f"standing {query_id} != fresh run()",
            )
        for drill in range(1 if self.quick else 5):
            samples.check(self._drill(drill), f"drill {drill} diverged")
        newest = sorted(self.tmp.glob("checkpoint-*.jsonl"))[-1]
        self.checkpoint_kb = newest.stat().st_size / 1024.0

    def _drill(self, drill: int) -> bool:
        """kill() -> from_store() on the old port -> client resumes."""
        port = self.st.address[1]
        dead = self.st.service
        self.st.kill()
        dead.close()
        if self.tracer is not None:
            self.tracer.enabled = True  # persist.recover and below
        try:
            restarted = ServerThread.from_store(
                self.store, port=port, heartbeat_s=0.5
            )
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        self.st = restarted.__enter__()
        self.service = self.st.service
        self.client.reconnect()
        ok = self._converged()
        stream = stream_over(
            self.service, WORLD_B, self.seed * 7919 + 100 + drill
        )
        for _ in range(3 if self.quick else self.drill_batches):
            self.st.ingest(stream.next_moves(self.batch_size))
        return self._converged() and ok

    def close(self) -> None:
        """Stop reader, client, server and pool; remove the store."""
        if self.reader is not None:
            self.reader.halt()
            self.reader = None
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.st is not None:
            self.service = self.st.service
            self.st.close()
            self.st = None
        super().close()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OneshotMix, RangeStream, KnnStream, ServedMix)
}
