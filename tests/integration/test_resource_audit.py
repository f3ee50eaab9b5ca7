"""Resource audit: what the engine starts, its ``close()`` joins.

The query engine itself starts no thread — ``ServiceConfig.n_shards``
and ``workers`` are inert, held here to a default service field for
field — and a :class:`ServerThread` owns its ``repro-net-server`` loop
thread.  Each shutdown path is driven here and
``threading.enumerate()`` must show the owned threads gone.
A durable :class:`ServerThread` also owns its store's open WAL segment:
both ``close()`` and ``kill()`` must release the descriptor themselves
(not leave it to the garbage collector, which says so with a
``ResourceWarning``) and leave no ``*.tmp`` file behind.
"""

import gc
import io
import random
import sys
import threading
import warnings
from dataclasses import asdict

import pytest

from monitor_world import build_world
from repro.api.net import ServerThread
from repro.api.service import QueryService, ServiceConfig
from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    RangeSpec,
)
from repro.baselines import NaiveEvaluator
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
