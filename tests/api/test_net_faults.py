"""Fault injection: the serving layer under a misbehaving network.

The invariant, from the module docs: a client either **converges to
the exact live result** (reconnect + snapshot re-prime) or **surfaces
a loud error** — never a silent divergence.  Every scenario here
manufactures one failure with :class:`~repro.api.testing.FlakyTransport`
(mid-frame disconnect, duplicated chunk, stalled read, one-byte
writes), then asserts the client's replayed state equals
``service.result_distances`` bit for bit.
"""

import socket

import pytest

from repro.api.framing import (
    ErrorRecord,
    FrameDecoder,
    FrameEncoder,
    HelloRecord,
    decode_net_record,
    encode_net_record,
)
from repro.api.net import NetClient, ServerThread
from repro.api.service import QueryService
from repro.api.specs import KNNSpec, RangeSpec
from repro.api.testing import FlakyTransportFactory
from repro.errors import NetError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove


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


def _flaky_client(st: ServerThread, *faults: str | None) -> tuple[
    NetClient, FlakyTransportFactory
]:
    host, port = st.address
    factory = FlakyTransportFactory(host, port, faults=faults)
    client = NetClient(
        host, port, timeout=2.0, transport_factory=factory
    )
    return client, factory


def _converges(client: NetClient, st: ServerThread, qid: str) -> None:
    client.sync()
    assert client.states[qid] == st.run(
        st.service.result_distances, qid
    )


class TestRecoverableFaults:
    """One transport fault mid-stream; the client transparently resumes
    and converges to the exact live result."""

    @pytest.mark.parametrize("fault", ["cut", "dup", "stall"])
    def test_fault_then_reconnect_then_exact_state(
        self, service, fault
    ):
        with ServerThread(service) as st:
            client, factory = _flaky_client(st, fault)
            client.connect()
            qid = client.watch(RangeSpec(Q1, 8.0), query_id="kiosk")
            client.sync()
            # Mutations keep flowing; somewhere in here the transport
            # misbehaves and the client must resume behind our back.
            for i in range(6):
                x = 6.0 if i % 2 == 0 else 25.0
                st.ingest([_point_move("far", x, 5.0)])
                client.poll(timeout=0.1)
            _converges(client, st, qid)
            assert client.reconnects == 1
            assert factory.connections == 2  # faulty + clean resume
            # The query was (re-)primed from a snapshot; whether that
            # counts as a "resync" depends on whether the fault tore
            # the original prime, so only convergence is asserted.
            client.close()

    def test_mid_frame_disconnect_drops_the_torn_half(self, service):
        """The frame torn by the cut must not be half-applied: after
        resume the state comes from the re-prime, not the fragment."""
        with ServerThread(service) as st:
            client, _factory = _flaky_client(st, "cut")
            client.connect()
            qid = client.watch(KNNSpec(Q3, 2), query_id="board")
            client.sync()
            st.ingest([_point_move("near", 24.0, 5.0)])
            st.ingest([_point_move("near", 4.0, 5.0)])
            _converges(client, st, qid)
            client.close()

    def test_duplicated_chunk_never_double_applies(self, service):
        """Without sequence numbers a duplicated chunk would silently
        re-apply deltas; with them it is a loud reconnect, and the
        counters prove the double-delivery was actually seen."""
        with ServerThread(service) as st:
            client, factory = _flaky_client(st, "dup")
            client.connect()
            qid = client.watch(RangeSpec(Q1, 8.0))
            client.sync()
            for i in range(6):
                x = 6.0 if i % 2 == 0 else 25.0
                st.ingest([_point_move("far", x, 5.0)])
                client.poll(timeout=0.1)
            _converges(client, st, qid)
            assert factory.transports[0]._armed_fired
            assert client.reconnects == 1
            client.close()

    def test_two_successive_faults_still_converge(self, service):
        with ServerThread(service) as st:
            client, _factory = _flaky_client(st, "cut", "dup")
            client.connect()
            qid = client.watch(RangeSpec(Q1, 8.0))
            client.sync()
            for i in range(10):
                x = 6.0 if i % 2 == 0 else 25.0
                st.ingest([_point_move("far", x, 5.0)])
                client.poll(timeout=0.1)
            _converges(client, st, qid)
            assert client.reconnects == 2
            client.close()

    def test_tiny_writes_are_not_a_fault_at_all(self, service):
        """One-byte client writes: the server's incremental decoder
        reassembles; nothing drops, nothing reconnects."""
        with ServerThread(service) as st:
            client, _factory = _flaky_client(st, "tiny")
            client.connect()
            qid = client.watch(RangeSpec(Q1, 8.0))
            st.ingest([_point_move("far", 6.0, 5.0)])
            _converges(client, st, qid)
            assert client.reconnects == 0
            client.close()


class TestSurfacedErrors:
    """Failures that must NOT be silently retried."""

    def test_reconnect_disabled_surfaces_the_fault(self, service):
        with ServerThread(service) as st:
            client, _factory = _flaky_client(st, "cut")
            client.auto_reconnect = False
            client.connect()
            client.watch(RangeSpec(Q1, 8.0))
            with pytest.raises(NetError, match="connection lost"):
                client.sync()
                st.ingest([_point_move("far", 6.0, 5.0)])
                for _ in range(50):
                    client.poll(timeout=0.05)

    def test_reconnect_budget_exhausts_loudly(self, service):
        with ServerThread(service) as st:
            # Every connection faulty, budget of 2: the client must
            # give up with an error, not spin forever.
            client, _factory = _flaky_client(
                st, *(["cut"] * 10)
            )
            client.max_reconnects = 2
            client.connect()
            client.watch(RangeSpec(Q1, 8.0))
            with pytest.raises(NetError, match="connection lost"):
                client.sync()
                for i in range(50):
                    x = 6.0 if i % 2 == 0 else 25.0
                    st.ingest([_point_move("far", x, 5.0)])
                    client.poll(timeout=0.05)
            assert client.reconnects == 2

    def test_server_error_record_is_never_swallowed(self, service):
        """A server-refused negotiation surfaces even with
        auto-reconnect on: error records are fatal by contract."""
        with ServerThread(service) as st:
            st.watch(RangeSpec(Q1, 6.0), query_id="kiosk")
            client = NetClient(*st.address)  # auto_reconnect=True
            client.connect()
            with pytest.raises(NetError, match="different spec"):
                client.watch(RangeSpec(Q1, 99.0), query_id="kiosk")

    def test_fresh_connection_failure_has_no_token_to_resume(
        self, service
    ):
        """A fault before the hello completes cannot loop: with no
        token there is nothing to resume, so the failure surfaces."""
        with ServerThread(service) as st:
            host, port = st.address
            factory = FlakyTransportFactory(
                host, port, faults=("stall",), after_recvs=0
            )
            client = NetClient(
                host, port, timeout=0.3, transport_factory=factory
            )
            with pytest.raises(NetError):
                client.connect()


#: Lines that once escaped the server's read loop as an unhandled
#: ``TypeError`` / ``ValueError`` / ``QueryError``: each sent right
#: after a valid hello.
_MALFORMED_FIELDS = {
    "heartbeat-seq-object": '{"type":"heartbeat","v":2,"seq":{}}',
    "hello-heartbeat-text": (
        '{"type":"hello","v":2,"token":null,"heartbeat_s":"x"}'
    ),
    "watch-req-spec-list": (
        '{"type":"watch_req","v":2,"query_id":"a","spec":[]}'
    ),
    "spec-null": '{"type":"spec","v":1,"spec":null}',
}


def _raw_exchange(address, line: str) -> list:
    """Open a raw socket, say hello, await the server's, send
    ``line``; every record the server sends until it hangs up."""
    encoder, decoder = FrameEncoder(), FrameDecoder()
    records = []
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(encoder.encode(encode_net_record(HelloRecord())))
        while not records:
            records += map(decode_net_record, decoder.feed(sock.recv(4096)))
        sock.sendall(encoder.encode(line))
        while data := sock.recv(65536):
            records += map(decode_net_record, decoder.feed(data))
    return records


class TestMalformedControlFields:
    """A control record with a field of the wrong type is a protocol
    violation: the client gets an ``error`` record, the loop sees no
    unhandled exception, and the server keeps serving."""

    @pytest.mark.parametrize(
        "line", _MALFORMED_FIELDS.values(), ids=_MALFORMED_FIELDS
    )
    def test_answered_with_an_error_record(self, service, line):
        with ServerThread(service) as st:
            unhandled = []
            st.run(
                lambda: st._loop.set_exception_handler(
                    lambda loop, context: unhandled.append(context)
                )
            )
            records = _raw_exchange(st.address, line)
            assert isinstance(records[0], HelloRecord)
            errors = [r for r in records if isinstance(r, ErrorRecord)]
            assert len(errors) == 1
            assert errors[0].message.startswith("protocol violation: ")
            client = NetClient(*st.address, timeout=2.0)
            client.connect()
            qid = client.watch(RangeSpec(Q1, 8.0))
            st.ingest([_point_move("far", 6.0, 5.0)])
            _converges(client, st, qid)
            client.close()
            assert unhandled == []
