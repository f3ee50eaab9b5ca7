"""Standing queries beside a room whose two doors lie far apart.

Room ``B`` is entered from room ``A`` by a door next to the query point
``q`` and from the hallway ``H`` by a door at its far end.  Object
``o`` has seven instances in ``B`` and one out in ``H``: it qualifies
for the range ``r = 10`` on its mean (9.66) although its hallway
instance is far, and its nearest rival ``p`` lies just beyond it
(10.2).  The hallway instance is reached through ``B`` and its far
door; the path through ``A``'s hallway door is 8 m longer, and costing
it that way puts ``o`` beyond ``r`` and behind ``p``.  Standing range
and kNN queries at ``q``, maintained through the service while ``o``
and ``p`` leave these spots and come back, equal the oracle and a fresh
``run()`` after every batch.  So do the bare one-shot calls, which run
their own door search, and the selectivity estimate: a search cut off
at ``r`` reaches the hallway only through ``A``'s door and costs the
hallway instance the long way round.
"""

import numpy as np
import pytest

from repro.api.service import QueryService
from repro.api.specs import KNNSpec, RangeSpec
from repro.geometry import Circle, Point, Rect
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    ObjectPopulation,
    UncertainObject,
)
from repro.objects.population import ObjectMove
from repro.queries import estimate_irq_result_size, iRQ, ikNNQ
from repro.reference import NaiveEvaluator, object_bounds
from repro.space.builder import SpaceBuilder

Q = Point(9.5, 14.0, 0)

#: Seven instances in ``B`` near the door to ``A``, one out in ``H``.
O_STRADDLING = [
    (16.0, 14.0),
    (16.5, 14.0),
    (17.0, 14.0),
    (16.0, 13.5),
    (16.5, 13.5),
    (17.0, 13.5),
    (16.5, 14.5),
    (35.0, 2.0),
]
P_HOME = [(19.7, 14.0)]


@pytest.fixture
def two_door_room():
    b = SpaceBuilder()
    b.add_room("A", Rect(0, 5, 10, 15))
    b.add_room("B", Rect(10, 5, 30, 15))
    b.add_hallway("H", Rect(0, 0, 40, 5))
    b.connect("A", "H", at=Point(8.0, 5.0, 0), door_id="AH")
    b.connect("A", "B", at=Point(10.0, 14.0, 0), door_id="AB")
    b.connect("B", "H", at=Point(29.0, 5.0, 0), door_id="BH")
    return b.build()


def _object(oid, xy):
    xy = np.array(xy, dtype=np.float64)
    cx, cy = xy.mean(axis=0)
    return UncertainObject(
        oid, Circle(Point(cx, cy, 0), 20.0), InstanceSet.uniform(xy, 0)
    )


def _move(oid, xy):
    obj = _object(oid, xy)
    return ObjectMove(oid, obj.region, obj.instances)


def _world(space):
    pop = ObjectPopulation(space)
    pop.insert(_object("o", O_STRADDLING))
    pop.insert(_object("p", P_HOME))
    return CompositeIndex.build(space, pop), NaiveEvaluator(space, pop)


def _assert_exact(service, space, range_id, knn_id):
    oracle = NaiveEvaluator(space, service.index.population)
    want_range = oracle.range_query(Q, 10.0)
    want_knn = {oid for oid, _ in oracle.knn_query(Q, 1)}
    assert service.result_ids(range_id) == want_range
    assert service.run(RangeSpec(Q, 10.0)).ids() == want_range
    assert service.result_ids(knn_id) == want_knn
    assert service.run(KNNSpec(Q, 1)).ids() == want_knn


class TestTwoDoorRoom:
    def test_standing_results_follow_the_oracle(self, two_door_room):
        space = two_door_room
        pop = ObjectPopulation(space)
        pop.insert(_object("o", O_STRADDLING))
        pop.insert(_object("p", P_HOME))
        service = QueryService(CompositeIndex.build(space, pop))
        range_id = service.watch(RangeSpec(Q, 10.0))
        knn_id = service.watch(KNNSpec(Q, 1))
        # The shape under test: o qualifies on its mean, and beats p.
        oracle = NaiveEvaluator(space, pop)
        assert oracle.range_query(Q, 10.0) == {"o"}
        assert oracle.knn_query(Q, 1)[0][0] == "o"
        _assert_exact(service, space, range_id, knn_id)
        batches = [
            # o out into the hallway, p into room A next to q.
            [
                _move("o", [(34.0, 2.0), (35.0, 2.5), (36.0, 1.0)]),
                _move("p", [(5.0, 10.0)]),
            ],
            # Both back.
            [_move("o", O_STRADDLING), _move("p", P_HOME)],
            # o deep in B, p out by the hallway's far end.
            [
                _move("o", [(25.0, 8.0), (26.0, 10.0), (27.0, 12.0)]),
                _move("p", [(38.0, 1.0)]),
            ],
            # p back alone, then o back alone.
            [_move("p", P_HOME)],
            [_move("o", O_STRADDLING)],
            # o split across B's far door: half in B, half in H.
            [
                _move(
                    "o", [(28.0, 6.0), (28.5, 7.0), (30.5, 4.0), (31.0, 2.0)]
                )
            ],
            [_move("o", O_STRADDLING)],
        ]
        for batch in batches:
            service.ingest(batch)
            _assert_exact(service, space, range_id, knn_id)
        assert service.result_ids(range_id) == {"o"}
        assert service.result_ids(knn_id) == {"o"}


class TestBareCalls:
    """One-shot calls without a session's search equal the oracle."""

    @pytest.mark.parametrize("with_pruning", [True, False])
    def test_irq(self, two_door_room, with_pruning):
        index, oracle = _world(two_door_room)
        got = iRQ(Q, 10.0, index, with_pruning=with_pruning).ids()
        assert got == oracle.range_query(Q, 10.0) == {"o"}

    def test_iknnq(self, two_door_room):
        index, oracle = _world(two_door_room)
        want = {oid for oid, _ in oracle.knn_query(Q, 1)}
        assert ikNNQ(Q, 1, index).ids() == want == {"o"}

    def test_selectivity_estimate(self, two_door_room):
        """``p`` scores 0; ``o``'s interval on the full search straddles
        ``r`` and scores where ``r`` falls in it.  (The estimate
        interpolates, so it is not the true size 1; a search cut off
        at ``r`` put ``o`` entirely beyond and read 0.)"""
        index, _ = _world(two_door_room)
        space, pop = index.space, index.population
        dd = index.doors_graph.dijkstra_from_point(Q)
        o, p = (
            object_bounds(Q, pop.get(oid), dd, space, pop.grid)
            for oid in ("o", "p")
        )
        assert p.entirely_beyond(10.0)
        assert o.lower < 10.0 < o.upper
        want = (10.0 - o.lower) / (o.upper - o.lower)
        assert estimate_irq_result_size(index, Q, 10.0) == want > 0.5
