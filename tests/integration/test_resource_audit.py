"""Resource audit: what the engine starts, its ``close()`` joins.

The query engine itself starts no thread — ``ServiceConfig.n_shards``
and ``workers`` are inert, held here to a default service field for
field — and a :class:`ServerThread` owns its ``repro-net-server`` loop
thread.  Each shutdown path is driven here and
``threading.enumerate()`` must show the owned threads gone.
A durable :class:`ServerThread` also owns its store's open WAL segment:
both ``close()`` and ``kill()`` must release the descriptor themselves
(not leave it to the garbage collector, which says so with a
``ResourceWarning``) and leave no ``*.tmp`` file behind.  A client owns
its socket: every way a client ends — ``close()``, ``disconnect()``,
the auto-reconnect past a cut connection, ``aclose()``, and the server
ending the session with an ``error`` record or a ``bye`` — must close
it, and the server must count the connection gone.
"""

import asyncio
import gc
import io
import random
import sys
import threading
import time
import warnings
from dataclasses import asdict

import pytest

from monitor_world import build_world
from repro.api.net import AsyncNetClient, NetClient, ServerThread
from repro.api.service import QueryService, ServiceConfig
from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    RangeSpec,
)
from repro.api.testing import FlakyTransportFactory
from repro.reference import NaiveEvaluator
from repro.errors import NetError
from repro.geometry import Circle, Point
from repro.objects import InstanceSet, MovementStream
from repro.objects.population import ObjectMove
from repro.persist import CheckpointStore
from repro.queries import QueryMonitor
from repro.space.events import CloseDoor

Q_LEFT = Point(5.0, 5.0, 0)
Q_RIGHT = Point(25.0, 5.0, 0)


def _point_move(object_id: str, x: float, y: float):
    p = Point(x, y, 0)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


@pytest.fixture
def owned_threads():
    """Names of live engine threads started since the test began
    (a pool another test leaked is not this test's evidence)."""
    before = set(threading.enumerate())

    def names(prefix: str) -> list[str]:
        return [
            t.name
            for t in threading.enumerate()
            if t not in before and t.name.startswith(prefix)
        ]

    return names


def _scripted_run(config, threads):
    """A move / insert / delete / door-close script through a service
    built with ``config``: the published feed, the final results, the
    final counters."""
    space, gen, pop, index = build_world(3, n_objects=30)
    service = QueryService(index, config)
    assert type(service.monitor) is QueryMonitor
    feed = io.StringIO()
    service.attach_feed(feed)
    rng = random.Random(3)
    q = [space.random_point(rng=rng) for _ in range(4)]
    located = pop.grid.locate(next(iter(pop)).region.center)
    qids = [
        service.watch(spec)
        for spec in (
            RangeSpec(q[0], 30.0),
            KNNSpec(q[1], 3),
            ProbRangeSpec(q[2], 25.0, 0.5),
            CountSpec(q[3], 30.0, 2),
            OccupancySpec(located.partition_id, 1),
        )
    ]
    stream = MovementStream(space, pop, gen, seed=4)
    for step, batch in enumerate(stream.batches(5, 8)):
        service.ingest(batch)
        if step == 1:
            service.insert(gen.generate_one())
        elif step == 2:
            service.delete(sorted(pop.ids())[0])
        elif step == 3:
            service.apply_event(CloseDoor(sorted(space.doors)[0]))
        assert threads("shard") == []
    results = {qid: service.result_distances(qid) for qid in qids}
    service.close()
    return feed.getvalue(), results, asdict(service.stats)


def test_n_shards_and_workers_are_inert(owned_threads):
    """``ServiceConfig(n_shards=4, workers=2)`` is ``ServiceConfig()``:
    one ``QueryMonitor``, the same delta history, results and
    ``MonitorStats``, and no engine thread during or after."""
    default = _scripted_run(ServiceConfig(), owned_threads)
    assert _scripted_run(
        ServiceConfig(n_shards=4, workers=2), owned_threads
    ) == default
    stats = default[2]
    assert stats["event_recomputes"] == 5 and stats["deltas_emitted"] > 5
    assert owned_threads("shard") == []


@pytest.mark.parametrize("stop", ["close", "kill"])
def test_server_thread_stop_joins_its_loop(
    crowded_index, tmp_path, owned_threads, stop
):
    service = QueryService(crowded_index)
    st = ServerThread(service, store=CheckpointStore(tmp_path)).__enter__()
    st.watch(RangeSpec(Q_LEFT, 10.0))
    st.watch(KNNSpec(Q_RIGHT, 2))
    st.ingest([_point_move("far", 6.0, 6.0)])
    assert owned_threads("repro-net-server")
    getattr(st, stop)()
    assert owned_threads("repro-net-server") == []
    service.close()


def _store_bytes(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@pytest.mark.parametrize("stop", ["close", "kill"])
def test_server_thread_stop_releases_the_store(
    five_rooms, crowded_index, tmp_path, monkeypatch, stop
):
    """No handle is left for the collector to close: with
    ``ResourceWarning`` an error, dropping every reference after the
    stop raises nothing (a finalizer's error surfaces through
    ``sys.unraisablehook``).  ``kill()`` releases the WAL descriptor
    without writing: the store a ``from_store()`` reads is byte for
    byte what the last fsynced record left."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        gc.collect()  # somebody else's garbage is not this test's
        unraisable.clear()
        service = QueryService(crowded_index)
        store = CheckpointStore(tmp_path)
        st = ServerThread(service, store=store).__enter__()
        st.watch(RangeSpec(Q_LEFT, 10.0))
        st.ingest([_point_move("far", 6.0, 6.0)])
        st.checkpoint_now()
        st.ingest([_point_move("far2", 7.0, 6.0)])  # the WAL tail
        before = _store_bytes(tmp_path)
        getattr(st, stop)()
        service.close()
        after = _store_bytes(tmp_path)
        if stop == "kill":
            assert after == before
            assert any(
                blob for name, blob in after.items() if name.startswith("wal-")
            )
        assert not list(tmp_path.glob("*.tmp"))
        del st, service, store
        gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []

        # What was left is a store a restart recovers from.
        restarted = ServerThread.from_store(CheckpointStore(tmp_path))
        with restarted as st:
            (query_id,) = st.service.monitor.query_ids()
            oracle = NaiveEvaluator(
                five_rooms, st.service.index.population
            )
            assert st.service.monitor.result_ids(query_id) == (
                oracle.range_query(Q_LEFT, 10.0)
            )
            assert "far2" in st.service.monitor.result_ids(query_id)
        restarted.service.close()
        del restarted, st
        gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []


def _net_client_session(st, end: str) -> NetClient:
    """Watch, sync, then end the client the ``end`` way; the client
    must hold no socket afterwards, the dead connection's included."""
    host, port = st.address
    factory = FlakyTransportFactory(
        host, port, faults=("cut" if end == "cut" else None,)
    )
    client = NetClient(host, port, timeout=5.0, transport_factory=factory)
    client.connect()
    query_id = client.watch(RangeSpec(Q_LEFT, 10.0))
    client.sync()
    if end == "server-error":
        # The server answers a spec mismatch with an error record and
        # ends the session.
        with pytest.raises(NetError, match="different spec"):
            client.watch(RangeSpec(Q_LEFT, 99.0), query_id=query_id)
    elif end == "server-bye":
        # The server stops (its loop thread keeps running): a bye.
        st.call(st.server.aclose())
        deadline = time.monotonic() + 5.0
        while (
            not client.state.server_said_bye
            and time.monotonic() < deadline
        ):
            client.poll(timeout=0.05)
        assert client.state.server_said_bye
    elif end == "cut":
        for i in range(6):  # every move flips membership: one delta
            st.ingest([_point_move("far", 6.0 if i % 2 else 25.0, 6.0)])
            client.poll(timeout=0.1)
        client.sync()
        assert client.reconnects == 1  # the scripted cut fired
        client.close()
    else:
        getattr(client, end)()
    assert client._transport is None
    assert all(t.inner._sock is None for t in factory.transports)
    return client


def _async_client_session(st) -> AsyncNetClient:
    client = AsyncNetClient(*st.address, timeout=5.0)

    async def session() -> None:
        await client.connect()
        await client.watch(RangeSpec(Q_LEFT, 10.0))
        await client.sync()
        await client.aclose()

    asyncio.run(session())
    assert client._writer is None and client._reader is None
    return client


@pytest.mark.parametrize(
    "end",
    ["close", "disconnect", "cut", "aclose", "server-error", "server-bye"],
)
def test_clients_release_their_sockets(crowded_index, monkeypatch, end):
    """No client socket is left for the collector: with
    ``ResourceWarning`` an error, dropping the client raises nothing,
    and the server's ``connections_active`` returns to 0."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    service = QueryService(crowded_index)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        gc.collect()  # somebody else's garbage is not this test's
        unraisable.clear()
        with ServerThread(service) as st:
            if end == "aclose":
                client = _async_client_session(st)
            else:
                client = _net_client_session(st, end)
            deadline = time.monotonic() + 5.0
            while (
                st.run(lambda: st.server.stats.connections_active)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert st.server.stats.connections_active == 0
            assert st.server.stats.connections_accepted == (
                2 if end == "cut" else 1
            )
        del client
        gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []
    service.close()
