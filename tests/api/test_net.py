"""The network serving layer's contracts, fault-free.

* **Framing**: arbitrary read boundaries reassemble; duplicated,
  reordered, oversized or torn frames raise
  :class:`~repro.errors.FramingError` (the property suite widens this).
* **Serving**: negotiation (watch by spec, by id, both), the snapshot
  prime, live deltas, the ping/pong drain barrier, heartbeats, idle
  teardown, server-side deregistration, and error surfacing.
* **Resume**: a disconnected client presenting its token is re-acked
  and re-primed to the exact live result.
* **Backpressure**: a connection that sheds deltas re-primes in-band
  from a snapshot and still converges exactly.

Every convergence check is the strong form: the client's replayed
state is compared against ``service.result_distances`` (annotations
included), not just membership.
"""

import asyncio
import inspect
import time

import pytest

from repro.api import wire
from repro.api.framing import (
    ByeRecord,
    ErrorRecord,
    FrameDecoder,
    FrameEncoder,
    HeartbeatRecord,
    HelloRecord,
    PingRecord,
    PongRecord,
    ResumeRequest,
    WatchRequest,
    decode_net_record,
    encode_net_record,
)
from repro.api.net import AsyncNetClient, NetClient, NetServer, ServerThread
from repro.api.service import QueryService
from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.errors import FramingError, NetError, WireError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove
from repro.queries import ResultDelta


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


@pytest.fixture
def service(five_rooms):
    pop = ObjectPopulation(five_rooms)
    pop.insert(_point_object("near", 4.0, 5.0))
    pop.insert(_point_object("mid", 8.0, 5.0))
    pop.insert(_point_object("far", 25.0, 5.0))
    return QueryService(CompositeIndex.build(five_rooms, pop))


Q1 = Point(5.0, 5.0, 0)
Q3 = Point(25.0, 5.0, 0)


# ---------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------


class TestFraming:
    def test_frames_reassemble_across_any_boundaries(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        payloads = ["alpha", "", "beta\nwith\nnewlines", "γδε"]
        data = b"".join(enc.encode(p) for p in payloads)
        # one byte at a time
        out = []
        for i in range(len(data)):
            out.extend(dec.feed(data[i:i + 1]))
        assert out == payloads
        assert dec.partial_bytes == 0
        # and all at once
        dec2 = FrameDecoder()
        assert dec2.feed(data) == payloads

    def test_duplicated_frame_is_a_sequence_violation(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        frame = enc.encode("hello")
        dec.feed(frame)
        with pytest.raises(FramingError, match="sequence violation"):
            dec.feed(frame)

    def test_skipped_frame_is_a_sequence_violation(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        enc.encode("lost")
        second = enc.encode("arrives")
        with pytest.raises(FramingError, match="sequence violation"):
            dec.feed(second)

    def test_bad_header_rejected(self):
        with pytest.raises(FramingError, match="bad frame header"):
            FrameDecoder().feed(b"garbage without at-sign\n")
        with pytest.raises(FramingError, match="bad frame header"):
            FrameDecoder().feed(b"@1 notanumber\n")

    def test_oversized_length_rejected_without_buffering(self):
        with pytest.raises(FramingError, match="ceiling"):
            FrameDecoder().feed(b"@0 99999999999\n")

    def test_runaway_header_rejected(self):
        with pytest.raises(FramingError, match="header terminator"):
            FrameDecoder().feed(b"@" + b"1" * 100)

    def test_missing_terminator_rejected(self):
        enc = FrameEncoder()
        frame = bytearray(enc.encode("abc"))
        frame[-1] = ord("X")  # clobber the trailing newline
        with pytest.raises(FramingError, match="newline-terminated"):
            FrameDecoder().feed(bytes(frame))

    def test_torn_tail_stays_pending(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        frame = enc.encode("complete")
        torn = enc.encode("torn in half")
        assert dec.feed(frame + torn[: len(torn) // 2]) == ["complete"]
        assert dec.partial_bytes > 0  # EOF here = torn tail, detectable


class TestControlRecords:
    RECORDS = [
        HelloRecord(),
        HelloRecord("tok-1", heartbeat_s=2.0),
        WatchRequest(RangeSpec(Q1, 60.0), "kiosk"),
        WatchRequest(None, "kiosk"),
        WatchRequest(KNNSpec(Q3, 3), None),
        ResumeRequest("tok-1"),
        HeartbeatRecord(7),
        PingRecord(41),
        PongRecord(41),
        ErrorRecord("boom"),
        ByeRecord(),
    ]

    @pytest.mark.parametrize(
        "record", RECORDS, ids=lambda r: type(r).__name__
    )
    def test_round_trip_and_byte_identity(self, record):
        line = encode_net_record(record)
        decoded = decode_net_record(line)
        assert decoded == record
        assert encode_net_record(decoded) == line

    def test_data_records_pass_through_to_wire(self):
        delta = ResultDelta("kiosk", "move", {"o1": 1.5}, ("o2",))
        line = encode_net_record(delta)
        assert line == wire.encode_record(delta)
        assert decode_net_record(line) == delta

    def test_versioned_like_the_wire(self):
        line = encode_net_record(PingRecord(1))
        assert f'"v":{wire.WIRE_VERSION}' in line
        with pytest.raises(WireError, match="version"):
            decode_net_record(line.replace('"v":2', '"v":99'))

    def test_missing_field_rejected(self):
        with pytest.raises(WireError, match="missing"):
            decode_net_record('{"type":"ping","v":2}')


# ---------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------


class TestServing:
    def test_watch_prime_deltas_and_barrier(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            assert client.token is not None
            assert client.state.heartbeat_s == st.server.heartbeat_s
            qid = client.watch(RangeSpec(Q1, 6.0), query_id="kiosk")
            assert qid == "kiosk"
            client.sync()  # snapshot prime has arrived
            assert client.states[qid] == st.run(
                service.result_distances, qid
            )
            st.ingest([_point_move("far", 6.0, 5.0)])
            st.ingest([_point_move("mid", 25.0, 5.0)])
            client.sync()
            assert client.states[qid] == st.run(
                service.result_distances, qid
            )
            assert set(client.states[qid]) == {"near", "far"}
            # ...and equals a fresh one-shot evaluation.
            want = st.run(service.run, RangeSpec(Q1, 6.0))
            assert set(client.states[qid]) == set(want.ids())
            client.close()

    def test_watch_existing_query_by_id(self, service):
        with ServerThread(service) as st:
            qid = st.watch(KNNSpec(Q3, 2), query_id="board")
            client = NetClient(*st.address)
            client.connect()
            assert client.watch(query_id=qid) == qid
            client.sync()
            assert client.watched[qid] == KNNSpec(Q3, 2)
            assert client.states[qid] == st.run(
                service.result_distances, qid
            )
            client.close()

    def test_one_connection_many_queries(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            a = client.watch(RangeSpec(Q1, 6.0))
            b = client.watch(KNNSpec(Q3, 2))
            c = client.watch(ProbRangeSpec(Q1, 10.0, 0.5))
            st.ingest([_point_move("far", 6.0, 5.0)])
            client.sync()
            for qid in (a, b, c):
                assert client.states[qid] == st.run(
                    service.result_distances, qid
                )
            client.close()

    def test_server_side_unwatch_closes_the_query(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            qid = client.watch(RangeSpec(Q1, 6.0))
            client.sync()
            assert qid in client.states
            st.unwatch(qid)
            client.sync()
            assert qid not in client.states
            assert qid not in client.watched
            client.close()

    def test_watch_spec_mismatch_surfaces_error(self, service):
        with ServerThread(service) as st:
            st.watch(RangeSpec(Q1, 6.0), query_id="kiosk")
            client = NetClient(*st.address)
            client.connect()
            with pytest.raises(NetError, match="different spec"):
                client.watch(RangeSpec(Q1, 99.0), query_id="kiosk")

    def test_watch_nothing_rejected(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            with pytest.raises(NetError):
                client.watch()  # neither spec nor id
            client.close()

    def test_heartbeats_flow_while_idle(self, service):
        with ServerThread(service, heartbeat_s=0.05) as st:
            client = NetClient(*st.address)
            client.connect()
            client.watch(RangeSpec(Q1, 6.0))
            deadline = time.monotonic() + 5.0
            while (
                client.state.heartbeats_seen < 2
                and time.monotonic() < deadline
            ):
                client.poll(timeout=0.05)
            assert client.state.heartbeats_seen >= 2
            client.close()

    def test_idle_connection_torn_down(self, service):
        with ServerThread(
            service, heartbeat_s=0.05, idle_timeout_s=0.2
        ) as st:
            client = NetClient(*st.address, auto_reconnect=False)
            client.connect()  # never watches anything
            with pytest.raises(NetError, match="idle"):
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    client.poll(timeout=0.05)
            assert st.server.stats.idle_teardowns == 1

    def test_resume_reprimes_to_live_state(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            qid = client.watch(RangeSpec(Q1, 6.0))
            client.sync()
            client.disconnect()  # no goodbye: session stays resumable
            # the world moves on while the client is gone
            st.ingest([_point_move("far", 6.0, 5.0)])
            st.ingest([_point_move("near", 25.0, 5.0)])
            client.reconnect()
            client.sync()
            assert client.states[qid] == st.run(
                service.result_distances, qid
            )
            assert client.state.resyncs >= 1  # the re-prime snapshot
            assert st.server.stats.resumes == 1
            client.close()

    def test_resume_of_deregistered_query_closes_it(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            qid = client.watch(RangeSpec(Q1, 6.0))
            client.sync()
            client.disconnect()
            st.unwatch(qid)
            client.reconnect()
            client.sync()
            assert qid not in client.states
            client.close()

    def test_unknown_resume_token_is_refused(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address, auto_reconnect=False)
            client.state.token = "never-issued"
            with pytest.raises(NetError):
                client.connect()

    def test_bye_ends_the_session(self, service):
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            token = client.token
            client.close()  # polite: the session is forgotten
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if token not in st.run(
                    lambda: dict(st.server._sessions)
                ):
                    break
                time.sleep(0.01)
            fresh = NetClient(*st.address, auto_reconnect=False)
            fresh.state.token = token
            with pytest.raises(NetError):
                fresh.connect()

    def test_backpressure_drop_reprimes_in_band(self, service):
        with ServerThread(service, maxlen=2) as st:
            client = NetClient(*st.address)
            client.connect()
            qid = client.watch(RangeSpec(Q1, 8.0))
            client.sync()

            def burst():
                # Back-to-back sync mutations on the loop thread: the
                # pump cannot run between them, so the maxlen=2 queue
                # must shed deltas.  Each move flips membership (in at
                # x=6, out at x=25), so every ingest publishes one.
                for i in range(8):
                    x = 6.0 if i % 2 == 0 else 25.0
                    service.ingest([_point_move("far", x, 5.0)])
                    service.ingest([_point_move("mid", x, 5.0)])

            st.run(burst)
            client.sync()
            assert client.states[qid] == st.run(
                service.result_distances, qid
            )
            assert client.state.resyncs >= 1
            client.close()

    def test_server_close_says_bye(self, service):
        st = ServerThread(service)
        st.__enter__()
        client = NetClient(*st.address)
        client.connect()
        client.watch(RangeSpec(Q1, 6.0))
        st.close()
        deadline = time.monotonic() + 5.0
        while (
            not client.state.server_said_bye
            and time.monotonic() < deadline
        ):
            client.poll(timeout=0.05)
        assert client.state.server_said_bye

    @pytest.mark.parametrize("stop", ["close", "kill"])
    def test_stopped_thread_refuses_work(self, service, stop):
        """After either shutdown path every marshalled verb raises
        ``NetError`` (not an ``AttributeError`` on the dropped loop),
        and a coroutine handed to ``call`` is closed, never left for
        the collector to report as never awaited."""
        st = ServerThread(service).__enter__()
        getattr(st, stop)()
        with pytest.raises(NetError, match="not running"):
            st.watch(RangeSpec(Q1, 6.0))
        with pytest.raises(NetError, match="not running"):
            st.ingest([])
        coro = asyncio.sleep(0)
        with pytest.raises(NetError, match="not running"):
            st.call(coro)
        assert inspect.getcoroutinestate(coro) == inspect.CORO_CLOSED


# ---------------------------------------------------------------------
# the async client
# ---------------------------------------------------------------------


class TestAsyncClient:
    def test_watch_stream_sync_and_resume(self, service):
        async def scenario():
            server = NetServer(service)
            await server.start()
            client = AsyncNetClient(*server.address)
            await client.connect()
            qid = await client.watch(RangeSpec(Q1, 6.0))
            await client.sync()
            assert client.states[qid] == service.result_distances(qid)

            service.ingest([_point_move("far", 6.0, 5.0)])
            await client.sync()
            assert client.states[qid] == service.result_distances(qid)
            assert set(client.states[qid]) == {"near", "mid", "far"}

            # resume: drop without bye, mutate, reconnect, converge
            await client.aclose(say_bye=False)
            service.ingest([_point_move("far", 25.0, 5.0)])
            await client.resume()
            await client.sync()
            assert client.states[qid] == service.result_distances(qid)
            assert client.reconnects == 1

            await client.aclose()
            await server.aclose()

        asyncio.run(scenario())

    def test_async_iteration_sees_typed_records(self, service):
        async def scenario():
            server = NetServer(service)
            await server.start()
            client = AsyncNetClient(*server.address)
            await client.connect()
            await client.watch(RangeSpec(Q1, 6.0), query_id="kiosk")
            service.ingest([_point_move("far", 6.0, 5.0)])
            kinds = []
            async for record in client:
                kinds.append(type(record).__name__)
                if isinstance(record, ResultDelta):
                    break
            # The watch ack is folded inside watch() itself; iteration
            # sees what follows: the prime, then the live delta.
            assert kinds[0] == "SnapshotRecord"
            assert kinds[-1] == "ResultDelta"
            assert client.states["kiosk"] == \
                service.result_distances("kiosk")
            await client.aclose()
            await server.aclose()

        asyncio.run(scenario())
