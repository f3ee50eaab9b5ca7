"""Resource audit: what the engine starts, its ``close()`` joins.

The sharded engine owns exactly one resource — the ``shard*`` thread
pool behind ``workers > 1`` — and a :class:`ServerThread` owns its
``repro-net-server`` loop thread (the wrapped service, and so the
pool, stays the caller's to close).  Each shutdown path is driven
here and ``threading.enumerate()`` must show the owned threads gone.
A durable :class:`ServerThread` also owns its store's open WAL segment:
both ``close()`` and ``kill()`` must release the descriptor themselves
(not leave it to the garbage collector, which says so with a
``ResourceWarning``) and leave no ``*.tmp`` file behind.
"""

import gc
import sys
import threading
import warnings

import pytest

from repro.api.net import ServerThread
from repro.api.service import QueryService, ServiceConfig
from repro.api.specs import KNNSpec, RangeSpec
from repro.baselines import NaiveEvaluator
from repro.geometry import Circle, Point
from repro.objects import InstanceSet
from repro.objects.population import ObjectMove
from repro.persist import CheckpointStore
from repro.queries import ShardedMonitor

Q_LEFT = Point(5.0, 5.0, 0)
Q_RIGHT = Point(25.0, 5.0, 0)
POOLED = ServiceConfig(n_shards=2, workers=2)


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


def test_sharded_monitor_close_joins_its_pool(
    crowded_index, five_rooms, owned_threads
):
    sharded = ShardedMonitor(crowded_index, n_shards=2, workers=2)
    left = sharded.register(RangeSpec(Q_LEFT, 10.0))
    sharded.register(KNNSpec(Q_RIGHT, 2))
    sharded.apply_moves([_point_move("far", 6.0, 6.0)])
    assert owned_threads("shard")  # the pool really ran the plan
    sharded.close()
    sharded.close()  # idempotent
    assert owned_threads("shard") == []
    # Still usable, serially: no pool comes back.
    sharded.apply_moves([_point_move("far2", 7.0, 6.0)])
    oracle = NaiveEvaluator(five_rooms, crowded_index.population)
    assert sharded.result_ids(left) == oracle.range_query(Q_LEFT, 10.0)
    assert owned_threads("shard") == []


def test_service_close_joins_the_pool(crowded_index, owned_threads):
    service = QueryService(crowded_index, POOLED)
    service.watch(RangeSpec(Q_LEFT, 10.0))
    service.watch(KNNSpec(Q_RIGHT, 2))
    service.ingest([_point_move("far", 6.0, 6.0)])
    assert owned_threads("shard")
    service.close()
    service.close()
    assert owned_threads("shard") == []


@pytest.mark.parametrize("stop", ["close", "kill"])
def test_server_thread_stop_joins_its_loop(
    crowded_index, tmp_path, owned_threads, stop
):
    service = QueryService(crowded_index, POOLED)
    st = ServerThread(service, store=CheckpointStore(tmp_path)).__enter__()
    st.watch(RangeSpec(Q_LEFT, 10.0))
    st.watch(KNNSpec(Q_RIGHT, 2))
    st.ingest([_point_move("far", 6.0, 6.0)])
    assert owned_threads("repro-net-server")
    assert owned_threads("shard")
    getattr(st, stop)()
    assert owned_threads("repro-net-server") == []
    service.close()
    assert owned_threads("shard") == []


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
        service = QueryService(crowded_index, POOLED)
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
