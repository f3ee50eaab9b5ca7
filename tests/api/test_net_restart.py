"""Crash-restart of the served network layer.

The acceptance story for the durable serving stack: a
:class:`~repro.api.net.ServerThread` with a
:class:`~repro.persist.store.CheckpointStore` is **killed** mid-stream
(connections aborted, no goodbye, no final checkpoint), brought back
with :meth:`~repro.api.net.ServerThread.from_store` on the same port,
and every pre-crash client — resume token minted by the dead process —
reconnects transparently and ends **bit-identical** to a client whose
server never died, and to a from-scratch evaluation of the same
queries.  The fault harness from ``test_net_faults`` composes on top:
a connection that was *already* misbehaving before the crash still
converges after it.
"""

import signal
import time

import pytest

from repro.api.net import NetClient, ServerThread
from repro.api.service import QueryService
from repro.api.specs import CountSpec, KNNSpec, ProbRangeSpec, RangeSpec
from repro.api.testing import FlakyTransportFactory
from repro.errors import NetError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove
from repro.persist import CheckpointStore
from repro.space.events import CloseDoor
from repro.space.io import space_from_dict, space_to_dict


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _build_index(five_rooms):
    pop = ObjectPopulation(five_rooms)
    pop.insert(_point_object("near", 4.0, 5.0))
    pop.insert(_point_object("mid", 8.0, 5.0))
    pop.insert(_point_object("far", 25.0, 5.0))
    return CompositeIndex.build(five_rooms, pop)


@pytest.fixture
def service(five_rooms):
    return QueryService(_build_index(five_rooms))


Q1 = Point(5.0, 5.0, 0)
Q3 = Point(25.0, 5.0, 0)

#: The move script driven before and after the crash (absolute
#: positions, so the same script replays onto any twin engine).
PRE_CRASH = [
    [_point_move("far", 6.0, 5.0)],
    [_point_move("mid", 25.0, 5.0)],
    [_point_move("far", 25.0, 5.0)],
]
POST_CRASH = [
    [_point_move("mid", 8.0, 5.0)],
    [_point_move("far", 6.5, 5.0)],
]

SPECS = {
    "kiosk": RangeSpec(Q1, 8.0),
    "board": KNNSpec(Q3, 2),
    "vip": ProbRangeSpec(Q1, 8.0, 0.5),
    "crowd": CountSpec(Q1, 8.0, 2),
}


def _manifest_seqs(store: CheckpointStore) -> list[int]:
    return [e["seq"] for e in store.read_manifest()]


class TestKillRestartResume:
    @pytest.mark.parametrize("n_clients", [1, 3])
    def test_client_resumes_bit_identical(
        self, five_rooms, tmp_path, n_clients
    ):
        """The acceptance path: kill mid-stream, restart from the
        manifest on the same port, every reconnected client (each
        watching its own share of ``SPECS``) == uninterrupted twin ==
        from-scratch evaluation."""
        service = QueryService(_build_index(five_rooms))
        # The uninterrupted twin: same engine, same scripted moves,
        # never crashes.
        twin = QueryService(_build_index(five_rooms))
        twin_ids = {
            name: twin.watch(spec, query_id=name)
            for name, spec in SPECS.items()
        }

        store = CheckpointStore(tmp_path)
        st = ServerThread(service, store=store).__enter__()
        host, port = st.address
        names = list(SPECS)
        clients = []
        for c in range(n_clients):
            client = NetClient(host, port, timeout=5.0)
            client.connect()
            for name in names[c::n_clients]:
                client.watch(SPECS[name], query_id=name)
            client.sync()
            clients.append(client)
        holder = {
            name: client for client in clients for name in client.watched
        }
        assert sorted(holder) == sorted(SPECS)

        for i, moves in enumerate(PRE_CRASH):
            st.ingest(list(moves))
            twin.ingest(list(moves))
            if i == 0:
                st.checkpoint_now()  # later moves live in the WAL
        for client in clients:
            client.sync()
        st.kill()

        st2 = ServerThread.from_store(store, port=port).__enter__()
        assert st2.recovery.wal_records > 0
        for moves in POST_CRASH:
            st2.ingest(list(moves))
            twin.ingest(list(moves))
        for client in clients:
            client.poll()
            client.sync()
            assert client.reconnects == 1

        restored = st2.service
        for name, client in holder.items():
            live = st2.run(restored.result_distances, name)
            assert client.states[name] == live
            assert live == twin.result_distances(twin_ids[name])
        # From-scratch one-shots on the restored engine agree
        # (CountSpec is watch-only; its from-scratch form is the range
        # count).
        for name in ("kiosk", "board", "vip"):
            assert set(holder[name].states[name]) == \
                st2.run(restored.run, SPECS[name]).ids()
        n_in_range = len(
            st2.run(restored.run, RangeSpec(Q1, 8.0)).objects
        )
        want = {"count": float(n_in_range)} if n_in_range >= 2 else {}
        assert holder["crowd"].states["crowd"] == want

        for client in clients:
            client.close()
        st2.close()
        service.close()
        restored.close()
        twin.close()

    def test_faulty_connection_then_crash_still_converges(
        self, five_rooms, tmp_path
    ):
        """Compose the PR-6 fault harness with the crash: the client's
        first connection dies to a scripted mid-frame cut, the resumed
        connection then dies to the server kill — two generations of
        resume token, one exact final state."""
        service = QueryService(_build_index(five_rooms))
        store = CheckpointStore(tmp_path)
        st = ServerThread(service, store=store).__enter__()
        host, port = st.address
        factory = FlakyTransportFactory(host, port, faults=("cut",))
        client = NetClient(
            host, port, timeout=2.0, transport_factory=factory
        )
        client.connect()
        client.watch(SPECS["kiosk"], query_id="kiosk")
        client.sync()
        # Trip the scripted cut while the stream flows.
        for i in range(4):
            st.ingest([_point_move("far", 6.0 if i % 2 else 25.0, 5.0)])
            client.poll(timeout=0.1)
        client.sync()
        assert client.reconnects == 1  # the scripted fault fired

        st.checkpoint_now()
        st.kill()
        st2 = ServerThread.from_store(store, port=port).__enter__()
        st2.ingest([_point_move("far", 6.0, 5.0)])
        client.poll()
        client.sync()
        assert client.reconnects == 2  # ...and the crash resume
        assert client.states["kiosk"] == st2.run(
            st2.service.result_distances, "kiosk"
        )
        client.close()
        st2.close()
        service.close()
        st2.service.close()

    def test_kill_preserves_only_durable_state(
        self, five_rooms, tmp_path
    ):
        """kill() cuts no checkpoint: recovery sees exactly the last
        durable point plus the WAL tail, not the in-memory state the
        crash destroyed — and that is still the *same* state, because
        the WAL captured every mutation."""
        service = QueryService(_build_index(five_rooms))
        store = CheckpointStore(tmp_path)
        st = ServerThread(service, store=store).__enter__()
        st.watch(SPECS["kiosk"], query_id="kiosk")
        st.ingest([_point_move("far", 6.0, 5.0)])
        live = st.run(service.result_distances, "kiosk")
        seqs_before = _manifest_seqs(store)
        st.kill()
        assert _manifest_seqs(store) == seqs_before  # no parting cut

        st2 = ServerThread.from_store(store)
        assert st2.recovery.wal_records == 2  # watch + moves
        thread = st2.__enter__()
        assert thread.run(
            thread.service.result_distances, "kiosk"
        ) == live
        thread.close()
        service.close()
        thread.service.close()


class TestDurabilityLifecycle:
    def test_boot_cuts_the_first_durable_point(
        self, service, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        with ServerThread(service, store=store):
            assert _manifest_seqs(store) == [1]
        service.close()

    def test_clean_close_cuts_a_final_checkpoint(
        self, service, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        st = ServerThread(service, store=store).__enter__()
        st.watch(SPECS["kiosk"], query_id="kiosk")
        st.ingest([_point_move("far", 6.0, 5.0)])
        live = st.run(service.result_distances, "kiosk")
        st.close()
        # The close-time cut means recovery replays nothing.
        st2 = ServerThread.from_store(store)
        assert st2.recovery.wal_records == 0
        thread = st2.__enter__()
        assert thread.service.query_ids() == ["kiosk"]
        assert thread.run(
            thread.service.result_distances, "kiosk"
        ) == live
        thread.close()
        service.close()
        thread.service.close()

    def test_periodic_checkpoints_accumulate(self, service, tmp_path):
        store = CheckpointStore(tmp_path)
        with ServerThread(
            service, store=store, checkpoint_every_s=0.05
        ):
            deadline = time.monotonic() + 5.0
            while (
                len(_manifest_seqs(store)) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
        # keep=2 compaction holds the manifest at two entries while
        # sequence numbers keep climbing (boot + periodic + close).
        seqs = _manifest_seqs(store)
        assert len(seqs) == 2
        assert seqs[-1] >= 3
        service.close()

    def test_sigterm_cuts_a_checkpoint_then_chains(
        self, service, tmp_path
    ):
        hits: list[int] = []
        prev = signal.signal(
            signal.SIGTERM, lambda signum, frame: hits.append(signum)
        )
        try:
            store = CheckpointStore(tmp_path)
            st = ServerThread(
                service, store=store, install_sigterm=True
            ).__enter__()
            before = _manifest_seqs(store)[-1]
            signal.raise_signal(signal.SIGTERM)
            assert hits == [signal.SIGTERM]  # chained to the previous
            assert _manifest_seqs(store)[-1] == before + 1
            # The handler uninstalled itself: a second SIGTERM skips
            # the checkpoint and goes straight through.
            signal.raise_signal(signal.SIGTERM)
            assert hits == [signal.SIGTERM, signal.SIGTERM]
            assert _manifest_seqs(store)[-1] == before + 1
            st.close()
        finally:
            signal.signal(signal.SIGTERM, prev)
        service.close()

    def test_checkpoint_now_requires_a_store(self, service):
        with ServerThread(service) as st:
            with pytest.raises(NetError, match="store"):
                st.checkpoint_now()
        service.close()

    def test_checkpoint_every_requires_a_store(self, service):
        with pytest.raises(NetError, match="store"):
            ServerThread(service, checkpoint_every_s=1.0)
        service.close()

    def test_sessions_ride_the_checkpoint(self, service, tmp_path):
        """The resume-session table is part of every durable point:
        a token minted before the cut is honoured after recovery."""
        store = CheckpointStore(tmp_path)
        st = ServerThread(service, store=store).__enter__()
        host, port = st.address
        client = NetClient(host, port, timeout=5.0)
        client.connect()
        client.watch(SPECS["kiosk"], query_id="kiosk")
        client.sync()
        token = client.token
        st.checkpoint_now()
        st.kill()
        st2 = ServerThread.from_store(store, port=port).__enter__()
        sessions = st2.recovery.extra["net_sessions"]
        assert [s["token"] for s in sessions] == [token]
        assert sessions[0]["watched"] == ["kiosk"]
        client.poll()
        client.sync()
        assert client.token == token  # resumed, not re-helloed
        client.close()
        st2.close()
        service.close()
        st2.service.close()


class TestOneWritePath:
    def test_served_and_bare_service_write_one_wal(
        self, five_rooms, tmp_path
    ):
        """A ``ServerThread`` verb is the ``QueryService`` verb: one
        script through a durable ``ServerThread`` and through a bare
        service whose WAL a ``CheckpointStore`` attached writes
        byte-identical WAL segments, and both stores recover to the
        same results — a second writer could not fork the log unseen."""

        def script(target) -> None:
            target.watch(SPECS["kiosk"], query_id="kiosk")
            target.watch(SPECS["board"])  # the auto id is logged too
            target.ingest([_point_move("far", 6.0, 5.0)])
            target.insert(_point_object("new", 5.0, 4.0))
            target.delete("mid")
            target.apply_event(CloseDoor("d12"))
            target.ingest([_point_move("far", 25.0, 5.0)])

        # The door event mutates the space: each side gets its own.
        twin_space = space_from_dict(space_to_dict(five_rooms))
        served = QueryService(_build_index(five_rooms))
        st = ServerThread(
            served, store=CheckpointStore(tmp_path / "served")
        ).__enter__()
        script(st)
        live = st.run(served.results)
        st.kill()  # no parting checkpoint: recovery replays the WAL

        bare = QueryService(_build_index(twin_space))
        store = CheckpointStore(tmp_path / "bare")
        store.attach(bare)
        script(bare)
        store.close()
        assert bare.results() == live

        def wal(root) -> dict[str, bytes]:
            return {p.name: p.read_bytes() for p in root.glob("wal-*")}

        assert wal(tmp_path / "served") == wal(tmp_path / "bare")
        assert any(wal(tmp_path / "served").values())

        def recovered(root) -> dict:
            store = CheckpointStore(root)
            service, report = store.recover()
            store.close()
            assert report.wal_records == 7
            return {
                qid: service.result_distances(qid)
                for qid in service.query_ids()
            }

        want = {qid: bare.result_distances(qid) for qid in live}
        assert recovered(tmp_path / "served") == want
        assert recovered(tmp_path / "bare") == want
        served.close()
        bare.close()
