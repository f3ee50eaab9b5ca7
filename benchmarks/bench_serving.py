"""Serving benchmark — a standing-query monitor behind the asyncio
delta server, against the same monitor driven directly.

Not a paper figure: this measures the serving subsystem.  Two identical
worlds are built (same seeds, independent indexes); one
:class:`~repro.queries.monitor.QueryMonitor` is driven directly, the
other sits behind a :class:`~repro.queries.serving.MonitorServer` with
one subscription per standing query.  The *same* absolute-position move
batches drive both, so all results — and the per-batch delta sequences
— must agree exactly.

Reported: wall-clock + updates/sec of both, pair evaluations, deltas
published and deltas/sec through the server, and the drops of one
deliberately lossy audit subscription.

``--prob`` mixes standing probabilistic-threshold range queries
(iPRQ, maintained by the pluggable ProbRangeMaintainer) into the
workload; the nightly ``serving_prob`` table tracks that regime's
throughput and delta volume.

``--restart`` exercises the durability story end to end: a
checkpointed, WAL-attached served service is killed mid-stream
(aborted connections, no goodbye), restarted from its manifest on the
same port, and every pre-crash TCP subscriber must resume
transparently and still converge exactly; the nightly
``serving_restart`` table tracks checkpoint write/restore latency vs
object count and recovery-replay throughput.

Also runnable standalone (CI smoke)::

    python benchmarks/bench_serving.py --quick --transport jsonl \\
        --prob --net --restart
"""

import argparse
import asyncio
import pathlib
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

if __name__ == "__main__":  # allow `python benchmarks/bench_serving.py`
    sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "src"))

import pytest

from repro.api.net import NetClient, ServerThread
from repro.api.service import QueryService
from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.bench.workloads import ScaleProfile, WorkloadFactory
from repro.persist import CheckpointStore
from repro.queries import DeltaBatch, MonitorServer

pytestmark = pytest.mark.tier2

#: Queue bound of the "lossy audit" subscription: a deliberately tiny,
#: never-drained feed whose drop-oldest losses prove the
#: ``deltas_dropped`` accounting end to end (unbounded primary
#: subscriptions never drop).
AUDIT_MAXLEN = 2

#: Scenario knobs: (n_batches, batch_size, n_irq, n_iknn).  Serving is
#: the frequent-small-batch regime (positioning systems push updates as
#: they arrive rather than accumulating giant batches).
FULL = (50, 5, 6, 3)
QUICK = (4, 10, 4, 2)

#: Standing iPRQs mixed into the workload by the ``--prob`` variant
#: (full / --quick), watched through the same register(spec) path.
PROB_QUERIES = 3
PROB_QUERIES_QUICK = 2
#: Their appearance-probability threshold.
PROB_P_MIN = 0.5

#: A deliberately small profile for the standalone --quick smoke run.
SMOKE = ScaleProfile(
    name="smoke",
    floors_grid=(1, 2),
    default_floors=2,
    objects_grid=(100,),
    default_objects=100,
    radii_grid=(2.5,),
    default_radius=2.5,
    ranges_grid=(25.0,),
    default_range=25.0,
    k_grid=(5,),
    default_k=5,
    n_instances=8,
    n_queries=9,
    bands=2,
    rooms_per_band_side=3,
    floor_size=150.0,
    hallway_width=5.0,
    stair_size=12.0,
)


@dataclass
class ServingRun:
    """One benchmark run: a directly driven monitor and its served
    twin over the shared stream."""

    updates: int
    direct_s: float
    served_s: float
    pairs: int
    deltas_published: int
    #: Server-wide drop total (only the bounded audit feed can drop).
    deltas_dropped: int
    results_equal: bool
    #: Per-batch delta tuples of the directly driven monitor and of the
    #: served one — the bit-identity evidence.
    direct_history: tuple = field(repr=False, default=())
    delta_history: tuple = field(repr=False, default=())

    @property
    def direct_updates_per_sec(self) -> float:
        return self.updates / self.direct_s if self.direct_s else 0.0

    @property
    def served_updates_per_sec(self) -> float:
        return self.updates / self.served_s if self.served_s else 0.0

    @property
    def deltas_per_sec(self) -> float:
        return (
            self.deltas_published / self.served_s if self.served_s else 0.0
        )


def run_serving(
    factory: WorkloadFactory,
    n_batches: int,
    batch_size: int,
    n_irq: int,
    n_iknn: int,
    n_iprq: int = 0,
) -> ServingRun:
    # Independent but identical worlds (same seeds): the directly
    # driven monitor's scenario also owns the stream that drives both.
    direct, served = (
        factory.stream_scenario(
            n_irq=n_irq, n_iknn=n_iknn, n_iprq=n_iprq, p_min=PROB_P_MIN
        )
        for _ in range(2)
    )
    assert direct.query_ids == served.query_ids
    server = MonitorServer(served.monitor)
    # Discard registration history directly on the monitors
    # (unpublished), then hold one snapshot-free subscription per
    # standing query: from here on, every published delta lands in
    # exactly one *primary* queue.
    direct.monitor.drain_pending_deltas()
    served.monitor.drain_pending_deltas()
    subs = [
        server.subscribe(qid, snapshot=False) for qid in served.query_ids
    ]
    # Plus one deliberately lossy feed on the first standing query:
    # never drained, so its drop-oldest losses surface in the dropped
    # column (the primary queues stay loss-free).
    audit = server.subscribe(
        served.irq_ids[0], snapshot=False, maxlen=AUDIT_MAXLEN
    )

    direct_history: list[tuple] = []
    history: list[tuple] = []
    direct_s = served_s = 0.0
    updates = 0

    async def drive() -> None:
        nonlocal direct_s, served_s, updates
        for _ in range(n_batches):
            moves = direct.stream.next_moves(batch_size)
            t0 = time.perf_counter()
            batch = direct.monitor.apply_moves(moves)
            direct_s += time.perf_counter() - t0
            updates += len(batch.moved)
            direct_history.append(batch.deltas)
            t0 = time.perf_counter()
            batch = await server.apply_moves(moves)
            served_s += time.perf_counter() - t0
            history.append(batch.deltas)

    asyncio.run(drive())
    server.close()

    # The fan-out path is load-bearing: everything the server published
    # is sitting in (or was drained from) the primary queues (deltas
    # are counted once per delta, not per subscriber, so the extra
    # audit feed does not inflate this).
    assert (
        sum(sub.delivered + sub.pending for sub in subs)
        == server.deltas_published
    )
    # The lossy audit feed accounts for every delta of its query:
    # queued + dropped, with the drops mirrored on the server total.
    audit_published = sum(
        1
        for deltas in history
        for d in deltas
        if d.query_id == audit.query_id
    )
    assert audit.pending + audit.dropped == audit_published
    assert server.deltas_dropped == audit.dropped
    return ServingRun(
        updates=updates,
        direct_s=direct_s,
        served_s=served_s,
        pairs=served.monitor.stats.pairs_evaluated,
        deltas_published=server.deltas_published,
        deltas_dropped=server.deltas_dropped,
        results_equal=all(
            direct.monitor.result_distances(qid)
            == served.monitor.result_distances(qid)
            for qid in direct.query_ids
        ),
        direct_history=tuple(direct_history),
        delta_history=tuple(history),
    )


def _check(run: ServingRun) -> None:
    assert run.results_equal, "served monitor diverged from the direct one"
    assert run.deltas_published > 0
    # The server adds no semantics: it publishes the delta sequence the
    # monitor emits, batch for batch.
    assert run.delta_history == run.direct_history, (
        "the server published a different delta sequence than the "
        "directly driven monitor emitted"
    )


def _prob_deltas(run: ServingRun) -> int:
    return sum(
        1
        for deltas in run.delta_history
        for d in deltas
        if d.query_id.startswith("iprq-")
    )


@dataclass
class WireTransport:
    """Throughput of the JSONL delta wire over one run's history."""

    deltas: int
    lines: int
    wire_bytes: int
    encode_s: float
    decode_s: float

    @property
    def encode_per_sec(self) -> float:
        return self.deltas / self.encode_s if self.encode_s else 0.0

    @property
    def decode_per_sec(self) -> float:
        return self.deltas / self.decode_s if self.decode_s else 0.0


def measure_wire(history: tuple) -> WireTransport:
    """Encode one run's per-batch delta history as JSONL batch records
    (exactly what a served feed writes), decode it back, and time both
    directions — the out-of-process transport cost per delta.

    Round-trip fidelity is asserted inline: decoded deltas equal the
    live ones, and re-encoding is byte-identical (canonical encoding).
    """
    from repro.api import wire

    batches = [DeltaBatch(deltas=deltas) for deltas in history if deltas]
    n_deltas = sum(len(b.deltas) for b in batches)
    t0 = time.perf_counter()
    lines = [wire.encode_record(b) for b in batches]
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    decoded = [wire.decode_record(line) for line in lines]
    decode_s = time.perf_counter() - t0
    assert [b.deltas for b in decoded] == [b.deltas for b in batches]
    assert [wire.encode_record(b) for b in decoded] == lines
    return WireTransport(
        deltas=n_deltas,
        lines=len(lines),
        wire_bytes=sum(len(line) + 1 for line in lines),
        encode_s=encode_s,
        decode_s=decode_s,
    )


@pytest.fixture(scope="module")
def full_run():
    """One full-profile run (two worlds)."""
    run = run_serving(WorkloadFactory(), *FULL)
    _check(run)
    return run


def test_serving_prob(save_table):
    """The ``--prob`` variant's nightly table: standing iPRQ mixed
    into the workload, watched and served through the same paths."""
    from repro.bench.runner import ExperimentResult

    run = run_serving(WorkloadFactory(), *FULL, n_iprq=PROB_QUERIES)
    prob_deltas = _prob_deltas(run)
    assert prob_deltas > 0, "standing iPRQs never changed"
    result = ExperimentResult(
        title=(
            f"Serving — standing iPRQ mixed in "
            f"(n_iprq={PROB_QUERIES}, p_min={PROB_P_MIN})"
        ),
        x_label="metric",
        unit="",
    )
    result.x_values.append("run")
    result.add("direct_upd_per_s", run.direct_updates_per_sec)
    result.add("served_upd_per_s", run.served_updates_per_sec)
    result.add("deltas_per_s", run.deltas_per_sec)
    result.add("prob_deltas", prob_deltas)
    result.add("pairs", run.pairs)
    save_table("serving_prob", result)
    _check(run)


def test_serving_wire_transport(full_run, save_table):
    """The `--transport jsonl` column of the nightly profile: JSONL
    encode/decode throughput of the run's whole delta history, with
    round-trip fidelity asserted inside :func:`measure_wire`."""
    from repro.bench.runner import ExperimentResult

    wt = measure_wire(full_run.delta_history)
    assert wt.deltas > 0
    result = ExperimentResult(
        title="Serving — JSONL delta wire transport",
        x_label="metric",
        unit="",
    )
    result.x_values.append("run")
    result.add("deltas", wt.deltas)
    result.add("batch_lines", wt.lines)
    result.add("wire_bytes", wt.wire_bytes)
    result.add("encode_deltas_per_s", wt.encode_per_sec)
    result.add("decode_deltas_per_s", wt.decode_per_sec)
    save_table("serving_wire_transport", result)


# ---------------------------------------------------------------------
# network serving (--net): many remote TCP subscribers
# ---------------------------------------------------------------------

#: ``--net`` knobs: (n_clients, queries_per_client, n_batches,
#: batch_size).  Four concurrent subscribers is the acceptance floor;
#: each watches a mix of iRQ / ikNN / iPRQ standing queries.
NET_FULL = (4, 3, 30, 5)
NET_QUICK = (4, 2, 6, 5)


@dataclass
class NetServingRun:
    """Outcome of one ``--net`` run: N TCP subscribers x M standing
    queries each, fed by one served ingest stream."""

    n_clients: int
    n_queries: int
    updates: int
    ingest_s: float
    #: Ingest start to last client's drain barrier.
    wall_s: float
    deltas_received: int
    records_received: int
    heartbeats: int
    resyncs: int
    converged: bool

    @property
    def updates_per_sec(self) -> float:
        return self.updates / self.ingest_s if self.ingest_s else 0.0

    @property
    def deltas_per_sec(self) -> float:
        """Aggregate delta throughput actually *received and folded*
        across every subscriber."""
        return self.deltas_received / self.wall_s if self.wall_s else 0.0


class _NetTail(threading.Thread):
    """One benchmark subscriber: watch the assigned specs, then keep
    folding the stream until told to quiesce."""

    def __init__(self, host: str, port: int, specs: list) -> None:
        super().__init__(daemon=True)
        self.client = NetClient(host, port, timeout=30.0)
        self.specs = specs
        self.query_ids: list[str] = []
        self.ready = threading.Event()
        self.stop = threading.Event()
        #: Held by the restart run while the server is down, so no
        #: poll races the gap between kill and the port coming back.
        self.pause = threading.Lock()
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self.client.connect()
            for spec in self.specs:
                self.query_ids.append(self.client.watch(spec))
            self.ready.set()
            while not self.stop.is_set():
                with self.pause:
                    self.client.poll(timeout=0.02)
            self.client.sync()  # drain everything published
        except BaseException as exc:
            self.error = exc
            self.ready.set()


def run_net_serving(
    factory: WorkloadFactory,
    n_clients: int,
    queries_per_client: int,
    n_batches: int,
    batch_size: int,
) -> NetServingRun:
    """Serve one :class:`QueryService` to ``n_clients`` concurrent TCP
    subscribers (threads + blocking :class:`NetClient`\\ s), each
    watching ``queries_per_client`` standing queries (iRQ / ikNN /
    iPRQ round-robin), while the movement stream churns.  Exact
    convergence of every client is part of the measurement: the run is
    only reported if each client's folded state equals the service's
    live result at quiesce."""
    p = factory.profile
    scenario = factory.stream_scenario(n_irq=0, n_iknn=0)
    service = QueryService(scenario.index)
    points = factory.query_points(n=n_clients * queries_per_client)

    def spec_for(i: int):
        q = points[i]
        kind = i % 3
        if kind == 0:
            return RangeSpec(q, p.default_range)
        if kind == 1:
            return KNNSpec(q, p.default_k)
        return ProbRangeSpec(q, p.default_range, 0.5)

    with ServerThread(service) as st:
        host, port = st.address
        tails = [
            _NetTail(
                host,
                port,
                [
                    spec_for(c * queries_per_client + j)
                    for j in range(queries_per_client)
                ],
            )
            for c in range(n_clients)
        ]
        for t in tails:
            t.start()
        for t in tails:
            t.ready.wait(timeout=60)
            if t.error is not None:
                raise t.error

        updates = 0
        ingest_s = 0.0
        wall_t0 = time.perf_counter()
        for _ in range(n_batches):
            moves = scenario.stream.next_moves(batch_size)
            t0 = time.perf_counter()
            batch = st.ingest(moves)
            ingest_s += time.perf_counter() - t0
            updates += len(batch.moved)
        for t in tails:
            t.stop.set()
        for t in tails:
            t.join(timeout=120)
            if t.error is not None:
                raise t.error
        wall_s = time.perf_counter() - wall_t0

        converged = all(
            t.client.states[qid]
            == st.run(service.result_distances, qid)
            for t in tails
            for qid in t.query_ids
        )
        run = NetServingRun(
            n_clients=n_clients,
            n_queries=n_clients * queries_per_client,
            updates=updates,
            ingest_s=ingest_s,
            wall_s=wall_s,
            deltas_received=sum(
                t.client.state.deltas_received for t in tails
            ),
            records_received=sum(
                t.client.state.records_received for t in tails
            ),
            heartbeats=sum(
                t.client.state.heartbeats_seen for t in tails
            ),
            resyncs=sum(t.client.state.resyncs for t in tails),
            converged=converged,
        )
        for t in tails:
            t.client.close()
    service.close()
    return run


def _check_net(run: NetServingRun) -> None:
    assert run.converged, "a subscriber diverged from the live result"
    assert run.deltas_received > 0, "no deltas reached any subscriber"
    assert run.n_clients >= 4, "acceptance floor: 4 concurrent clients"


def test_serving_net(save_table):
    """The ``serving_net`` nightly table: N concurrent TCP subscribers
    x M standing queries, aggregate received-delta throughput, with
    per-client exact convergence asserted."""
    from repro.bench.runner import ExperimentResult

    n_clients, per_client, n_batches, batch_size = NET_FULL
    run = run_net_serving(
        WorkloadFactory(), n_clients, per_client, n_batches, batch_size
    )
    _check_net(run)
    result = ExperimentResult(
        title=(
            f"Serving — network ({run.n_clients} TCP subscribers x "
            f"{per_client} standing queries)"
        ),
        x_label="metric",
        unit="",
    )
    result.x_values.append("run")
    result.add("clients", run.n_clients)
    result.add("standing_queries", run.n_queries)
    result.add("updates", run.updates)
    result.add("ingest_upd_per_s", run.updates_per_sec)
    result.add("recv_deltas_per_s", run.deltas_per_sec)
    result.add("deltas_received", run.deltas_received)
    result.add("records_received", run.records_received)
    result.add("resyncs", run.resyncs)
    result.add("converged", 1.0 if run.converged else 0.0)
    save_table("serving_net", result)


def _print_net(run: NetServingRun) -> None:
    print(
        f"net serving             {run.n_clients} clients x "
        f"{run.n_queries // run.n_clients} queries "
        f"({run.n_queries} standing)"
    )
    print(f"  updates absorbed      {run.updates}")
    print(f"  ingest updates/sec    {run.updates_per_sec:10.1f}")
    print(f"  recv deltas/sec       {run.deltas_per_sec:10.1f}")
    print(
        f"  received              {run.deltas_received} deltas in "
        f"{run.records_received} records, {run.resyncs} resyncs"
    )
    print(f"  converged             {run.converged} (asserted)")


# ---------------------------------------------------------------------
# restart serving (--restart): crash, recover, resume under clients
# ---------------------------------------------------------------------

#: ``--restart`` knobs: (n_clients, queries_per_client, n_batches,
#: batch_size, kill_after) — the server is killed after ``kill_after``
#: batches (connections aborted mid-stream, no final checkpoint),
#: restarted from its checkpoint directory on the same port, and every
#: pre-crash subscriber must resume transparently and still converge.
RESTART_FULL = (4, 3, 24, 5, 12)
RESTART_QUICK = (3, 2, 8, 5, 4)


@dataclass
class RestartServingRun:
    """Outcome of one ``--restart`` run: checkpointed serving, a
    mid-stream kill, manifest recovery, post-restart convergence."""

    n_clients: int
    n_queries: int
    updates: int
    #: Wall-clock of the mid-run :meth:`ServerThread.checkpoint_now`.
    checkpoint_s: float
    #: Kill-to-serving wall-clock: checkpoint read + engine rebuild +
    #: WAL replay + fresh durable point + listener back on the port.
    restart_s: float
    #: WAL records replayed during recovery.
    wal_records: int
    #: Movement updates that existed only in the WAL tail.
    replayed_updates: int
    reconnects: int
    converged: bool

    @property
    def replay_updates_per_sec(self) -> float:
        """WAL-tail updates brought back per second of restart wall."""
        return (
            self.replayed_updates / self.restart_s if self.restart_s else 0.0
        )


def run_restart_serving(
    factory: WorkloadFactory,
    n_clients: int,
    queries_per_client: int,
    n_batches: int,
    batch_size: int,
    kill_after: int,
) -> RestartServingRun:
    """The crash-recovery acceptance scenario, measured.

    A :class:`QueryService` with a :class:`CheckpointStore` serves
    ``n_clients`` TCP subscribers; a durable point is cut mid-run, the
    server is killed after ``kill_after`` batches, restarted with
    :meth:`ServerThread.from_store` on the same port, and the stream
    continues.  Every client resumes with its pre-crash token and must
    end bit-identical to both the restarted service's live result and
    an uninterrupted from-scratch twin fed the same batches.
    """
    p = factory.profile
    scenario = factory.stream_scenario(n_irq=0, n_iknn=0)
    twin = factory.stream_scenario(n_irq=0, n_iknn=0)
    service = QueryService(scenario.index)
    ref = QueryService(twin.index)
    points = factory.query_points(n=n_clients * queries_per_client)

    def spec_for(i: int):
        q = points[i]
        kind = i % 3
        if kind == 0:
            return RangeSpec(q, p.default_range)
        if kind == 1:
            return KNNSpec(q, p.default_k)
        return ProbRangeSpec(q, p.default_range, 0.5)

    ref_ids = [
        ref.watch(spec_for(i))
        for i in range(n_clients * queries_per_client)
    ]

    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-restart-"))
    store = CheckpointStore(root)
    ckpt_at = kill_after // 2
    updates = 0
    checkpoint_s = 0.0
    st = ServerThread(service, store=store).__enter__()
    host, port = st.address
    tails = [
        _NetTail(
            host,
            port,
            [
                spec_for(c * queries_per_client + j)
                for j in range(queries_per_client)
            ],
        )
        for c in range(n_clients)
    ]
    for t in tails:
        t.start()
    for t in tails:
        t.ready.wait(timeout=60)
        if t.error is not None:
            raise t.error

    for b in range(kill_after):
        moves = scenario.stream.next_moves(batch_size)
        batch = st.ingest(moves)
        ref.ingest(moves)
        updates += len(batch.moved)
        if b == ckpt_at:
            t0 = time.perf_counter()
            st.checkpoint_now()
            checkpoint_s = time.perf_counter() - t0

    # Freeze every subscriber outside poll(), crash, restart on the
    # same port, then let them trip over the dead socket and resume.
    for t in tails:
        t.pause.acquire()
    st.kill()
    t0 = time.perf_counter()
    st2 = ServerThread.from_store(store, port=port).__enter__()
    restart_s = time.perf_counter() - t0
    for t in tails:
        t.pause.release()

    for _ in range(kill_after, n_batches):
        moves = scenario.stream.next_moves(batch_size)
        batch = st2.ingest(moves)
        ref.ingest(moves)
        updates += len(batch.moved)
    for t in tails:
        t.stop.set()
    for t in tails:
        t.join(timeout=120)
        if t.error is not None:
            raise t.error

    service2 = st2.service
    converged = all(
        t.client.states[qid]
        == st2.run(service2.result_distances, qid)
        == ref.result_distances(ref_ids[c * queries_per_client + j])
        for c, t in enumerate(tails)
        for j, qid in enumerate(t.query_ids)
    )
    report = st2.recovery
    run = RestartServingRun(
        n_clients=n_clients,
        n_queries=n_clients * queries_per_client,
        updates=updates,
        checkpoint_s=checkpoint_s,
        restart_s=restart_s,
        wal_records=report.wal_records,
        replayed_updates=(kill_after - ckpt_at - 1) * batch_size,
        reconnects=sum(t.client.reconnects for t in tails),
        converged=converged,
    )
    for t in tails:
        t.client.close()
    st2.close()
    service.close()
    service2.close()
    ref.close()
    shutil.rmtree(root, ignore_errors=True)
    return run


def measure_restart_scaling(
    factory: WorkloadFactory,
    objects_grid: tuple[int, ...],
    n_queries: int = 6,
    n_batches: int = 4,
    batch_size: int = 10,
) -> list[dict]:
    """Durability cost vs object count: checkpoint write and restore
    latency, checkpoint size, and recovery throughput (a WAL tail of
    ``n_batches`` x ``batch_size`` updates replayed through
    :func:`repro.persist.store.recover`, fresh post-recovery
    checkpoint included) at each population scale."""
    p = factory.profile
    points = factory.query_points(n=n_queries)

    def spec_for(i: int):
        q = points[i]
        kind = i % 3
        if kind == 0:
            return RangeSpec(q, p.default_range)
        if kind == 1:
            return KNNSpec(q, p.default_k)
        return ProbRangeSpec(q, p.default_range, 0.5)

    rows: list[dict] = []
    for n_objects in objects_grid:
        scenario = factory.stream_scenario(
            n_irq=0, n_iknn=0, n_objects=n_objects
        )
        service = QueryService(scenario.index)
        for i in range(n_queries):
            service.watch(spec_for(i))
        service.ingest(scenario.stream.next_moves(batch_size))
        root = pathlib.Path(tempfile.mkdtemp(prefix="bench-ckpt-"))
        try:
            solo = root / "solo-checkpoint.jsonl"
            t0 = time.perf_counter()
            service.checkpoint(solo)
            write_s = time.perf_counter() - t0
            size_kb = solo.stat().st_size / 1024.0
            t0 = time.perf_counter()
            restored = QueryService.restore(solo)
            restore_s = time.perf_counter() - t0
            restored.close()

            store = CheckpointStore(root / "store")
            store.attach(service)
            replayed = 0
            for _ in range(n_batches):
                moves = scenario.stream.next_moves(batch_size)
                replayed += len(service.ingest(moves).moved)
            t0 = time.perf_counter()
            recovered, report = CheckpointStore(root / "store").recover()
            recover_s = time.perf_counter() - t0
            assert report.wal_records > 0
            recovered.close()
            store.close()
            service.close()
            rows.append(
                {
                    "n_objects": n_objects,
                    "write_s": write_s,
                    "restore_s": restore_s,
                    "size_kb": size_kb,
                    "recover_s": recover_s,
                    "replayed": replayed,
                    "replay_per_s": (
                        replayed / recover_s if recover_s else 0.0
                    ),
                }
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return rows


def _check_restart(run: RestartServingRun) -> None:
    assert run.converged, (
        "a resumed subscriber diverged after the restart"
    )
    assert run.reconnects >= run.n_clients, (
        "every client should have resumed across the kill"
    )
    assert run.wal_records > 0, "the WAL tail was never replayed"


def test_serving_restart(save_table):
    """The ``serving_restart`` nightly table: the kill/recover/resume
    acceptance scenario, plus checkpoint write/restore latency and
    recovery-replay throughput swept over object count."""
    from repro.bench.runner import ExperimentResult

    n_clients, per_client, n_batches, batch_size, kill_after = (
        RESTART_FULL
    )
    factory = WorkloadFactory()
    run = run_restart_serving(
        factory, n_clients, per_client, n_batches, batch_size, kill_after
    )
    _check_restart(run)
    rows = measure_restart_scaling(factory, factory.profile.objects_grid)
    result = ExperimentResult(
        title=(
            f"Serving — restart (checkpoint/restore vs |O|; "
            f"scenario: {run.n_clients} clients killed mid-stream, "
            f"restart {run.restart_s * 1000.0:.1f} ms, "
            f"replay {run.replay_updates_per_sec:.0f} upd/s, "
            f"converged={run.converged})"
        ),
        x_label="objects",
        unit="",
    )
    for row in rows:
        result.x_values.append(row["n_objects"])
        result.add("ckpt_write_ms", 1000.0 * row["write_s"])
        result.add("ckpt_restore_ms", 1000.0 * row["restore_s"])
        result.add("ckpt_kb", row["size_kb"])
        result.add("recover_ms", 1000.0 * row["recover_s"])
        result.add("replay_upd_per_s", row["replay_per_s"])
    save_table("serving_restart", result)


def _print_restart(run: RestartServingRun) -> None:
    print(
        f"restart serving         {run.n_clients} clients x "
        f"{run.n_queries // run.n_clients} queries "
        f"({run.n_queries} standing)"
    )
    print(f"  updates absorbed      {run.updates}")
    print(f"  checkpoint wall       {1000.0 * run.checkpoint_s:10.1f} ms")
    print(
        f"  restart wall          {1000.0 * run.restart_s:10.1f} ms "
        f"({run.wal_records} WAL records replayed)"
    )
    print(
        f"  replay updates/sec    {run.replay_updates_per_sec:10.1f} "
        f"({run.replayed_updates} updates were WAL-only)"
    )
    print(f"  client resumes        {run.reconnects}")
    print(f"  converged             {run.converged} (asserted)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Delta-serving benchmark: a monitor behind the "
        "asyncio delta server against the same monitor driven directly."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke-sized run (CI gate)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the profile's base seed (venue, population, "
        "queries and stream all derive from it)",
    )
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument(
        "--transport",
        choices=("jsonl",),
        default=None,
        help="also measure the repro.api.wire delta transport: "
        "encode/decode deltas-per-second over the run's history",
    )
    parser.add_argument(
        "--prob",
        action="store_true",
        help="mix standing probabilistic-threshold range queries "
        "(iPRQ) into the workload",
    )
    parser.add_argument(
        "--net",
        action="store_true",
        help="also run the network serving variant: concurrent TCP "
        "subscribers over a served QueryService, exact convergence "
        "asserted",
    )
    parser.add_argument(
        "--restart",
        action="store_true",
        help="also run the crash-recovery variant: checkpointed "
        "serving killed mid-stream and restarted from its manifest, "
        "every subscriber resuming to the exact result",
    )
    args = parser.parse_args(argv)

    if args.quick:
        factory = WorkloadFactory(SMOKE, seed=args.seed)
        n_batches, batch_size, n_irq, n_iknn = QUICK
    else:
        factory = WorkloadFactory(seed=args.seed)
        n_batches, batch_size, n_irq, n_iknn = FULL
    n_batches = args.batches or n_batches
    batch_size = args.batch_size or batch_size

    n_iprq = 0
    if args.prob:
        n_iprq = PROB_QUERIES_QUICK if args.quick else PROB_QUERIES
    run = run_serving(
        factory, n_batches, batch_size, n_irq, n_iknn, n_iprq=n_iprq
    )
    print(f"updates absorbed        {run.updates}")
    print(f"direct   updates/sec    {run.direct_updates_per_sec:10.1f}")
    print(f"served   updates/sec    {run.served_updates_per_sec:10.1f}")
    print(f"pairs evaluated         {run.pairs}")
    print(
        f"deltas published        {run.deltas_published} "
        f"({run.deltas_per_sec:.1f}/sec)"
    )
    print(
        f"lossy audit dropped     {run.deltas_dropped} "
        f"(one never-drained sub, maxlen={AUDIT_MAXLEN})"
    )
    if n_iprq:
        prob_deltas = _prob_deltas(run)
        assert prob_deltas > 0, "standing iPRQs never changed"
        print(
            f"standing iPRQ           {n_iprq} queries "
            f"(p_min={PROB_P_MIN}), {prob_deltas} deltas"
        )
    if args.transport == "jsonl":
        wt = measure_wire(run.delta_history)
        print(
            f"wire transport (jsonl)  {wt.deltas} deltas in "
            f"{wt.lines} batch lines, {wt.wire_bytes} bytes"
        )
        print(f"  encode deltas/sec     {wt.encode_per_sec:10.1f}")
        print(f"  decode deltas/sec     {wt.decode_per_sec:10.1f}")
    _check(run)
    print("results identical       True (asserted)")
    if args.net:
        n_clients, per_client, net_batches, net_bs = (
            NET_QUICK if args.quick else NET_FULL
        )
        net_run = run_net_serving(
            factory, n_clients, per_client, net_batches, net_bs
        )
        _print_net(net_run)
        _check_net(net_run)
    if args.restart:
        rs_clients, rs_per_client, rs_batches, rs_bs, rs_kill = (
            RESTART_QUICK if args.quick else RESTART_FULL
        )
        restart_run = run_restart_serving(
            factory, rs_clients, rs_per_client, rs_batches, rs_bs, rs_kill
        )
        _print_restart(restart_run)
        _check_restart(restart_run)
    print("serving bench OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
