"""Multi-client integration: one server, many concurrent subscribers.

A :class:`~repro.api.net.NetServer` over a mall-sized
:class:`~repro.api.service.QueryService` serves five concurrent
clients on real threads — mixed iRQ / ikNN / iPRQ standing queries,
some shared between clients, one client reconnecting mid-run — while a
scripted :class:`~repro.objects.MovementStream` churns the population.
At quiesce (one ping/pong barrier per client), every client's replayed
state must equal the service's live ``result_distances``, which in
turn equals a from-scratch :meth:`QueryService.run` — the acceptance
check of the serving layer.
"""

import threading

import pytest

from repro.api.net import NetClient, ServerThread
from repro.api.service import QueryService
from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.index import CompositeIndex
from repro.objects import MovementStream, ObjectGenerator


@pytest.fixture(scope="module")
def world(small_mall):
    gen = ObjectGenerator(small_mall, radius=3.0, n_instances=10, seed=5)
    pop = gen.generate(60)
    index = CompositeIndex.build(small_mall, pop)
    stream = MovementStream(small_mall, pop, gen, seed=11)
    return small_mall, index, stream


class _Tail(threading.Thread):
    """One remote subscriber on its own thread: watches its queries,
    then keeps polling (folding deltas) until told to quiesce."""

    def __init__(self, host, port, watches, reconnect_after=None):
        super().__init__(daemon=True)
        self.client = NetClient(host, port, timeout=15.0)
        self.watches = watches  # list of (spec, query_id | None)
        self.reconnect_after = reconnect_after
        self.query_ids: list[str] = []
        self.stop = threading.Event()
        self.ready = threading.Event()
        self.error: BaseException | None = None

    def run(self):
        try:
            self.client.connect()
            for spec, query_id in self.watches:
                self.query_ids.append(
                    self.client.watch(spec, query_id=query_id)
                )
            self.ready.set()
            polls = 0
            while not self.stop.is_set():
                self.client.poll(timeout=0.02)
                polls += 1
                if polls == self.reconnect_after:
                    # an unannounced drop + token resume, mid-stream
                    self.client.disconnect()
                    self.client.reconnect()
            self.client.sync()  # quiesce: drain everything published
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc
            self.ready.set()


class TestManyClients:
    def test_five_concurrent_clients_converge_exactly(self, world):
        space, index, stream = world
        service = QueryService(index)
        q_a = space.random_point(seed=21)
        q_b = space.random_point(seed=22)
        q_c = space.random_point(seed=23)

        with ServerThread(service) as st:
            host, port = st.address
            # Shared standing query, registered server-side up front.
            shared = st.watch(RangeSpec(q_a, 60.0), query_id="lobby")
            tails = [
                _Tail(host, port, [(None, shared)]),
                _Tail(
                    host, port,
                    [(KNNSpec(q_b, 8), None), (None, shared)],
                ),
                _Tail(host, port, [(ProbRangeSpec(q_c, 70.0, 0.5),
                                    "vip")]),
                _Tail(
                    host, port,
                    [(RangeSpec(q_c, 50.0), None),
                     (KNNSpec(q_a, 5), None)],
                    reconnect_after=3,
                ),
                _Tail(host, port, [(None, "vip")]),
            ]
            # "vip" must exist before client 4 subscribes to it by id.
            tails[2].start()
            tails[2].ready.wait(timeout=30)
            assert tails[2].error is None
            for t in (tails[0], tails[1], tails[3], tails[4]):
                t.start()
            for t in tails:
                t.ready.wait(timeout=30)
                assert t.error is None, t.error

            # The scripted churn, concurrent with all five tails.
            for _ in range(12):
                st.ingest(stream.next_moves(25))

            for t in tails:
                t.stop.set()
            for t in tails:
                t.join(timeout=60)
                assert not t.is_alive()
                assert t.error is None, t.error

            # Quiesce reached: every client replayed every query it
            # watched to the exact live state...
            live = {
                qid: st.run(service.result_distances, qid)
                for qid in st.run(lambda: list(service.query_ids()))
            }
            for t in tails:
                for qid in t.query_ids:
                    assert t.client.states[qid] == live[qid]

            # ...and the live state equals from-scratch evaluation.
            for qid, state in live.items():
                spec = st.run(service.query_spec, qid)
                want = st.run(service.run, spec)
                assert set(state) == set(want.ids())

            # The mid-run reconnect actually happened.
            assert tails[3].client.reconnects == 1
            assert st.server.stats.resumes == 1
            # All five connections negotiated watches.
            assert st.server.stats.watches == 7

            for t in tails:
                t.client.close()
