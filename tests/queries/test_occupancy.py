"""Per-partition occupancy watches (``OccupancySpec`` / ``iocc``).

The contract: an occupancy watch on partition ``p`` with threshold
``N`` publishes the synthetic ``"occupancy"`` member annotated with the
partition's current population while that population is at least ``N``,
and an empty result while it is not — through the monitor, the wire
encoding, persistence round-trips, and TCP serving.
"""

import pytest

from repro.api.net import NetClient, ServerThread
from repro.api.service import QueryService
from repro.api.specs import OccupancySpec, spec_from_dict
from repro.errors import QueryError, SpaceError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove
from repro.queries.maintainers import OCCUPANCY_KEY, partition_anchor


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _build_index(space):
    pop = ObjectPopulation(space)
    pop.insert(_point_object("a", 2.0, 2.0))    # r1
    pop.insert(_point_object("b", 5.0, 7.0))    # r1
    pop.insert(_point_object("c", 15.0, 5.0))   # r2
    pop.insert(_point_object("d", 25.0, 5.0))   # r3
    return CompositeIndex.build(space, pop)


R1_WATCH = OccupancySpec("r1", 2)


# ---------------------------------------------------------------------
# spec semantics
# ---------------------------------------------------------------------


class TestSpec:
    def test_validation(self):
        with pytest.raises(QueryError, match="partition_id"):
            OccupancySpec("", 2)
        with pytest.raises(QueryError, match="partition_id"):
            OccupancySpec(None, 2)
        with pytest.raises(QueryError, match="threshold"):
            OccupancySpec("r1", 0)
        with pytest.raises(QueryError, match="integer"):
            OccupancySpec("r1", 1.5)

    def test_dict_round_trip(self):
        spec = OccupancySpec("f0_hall1", 25)
        data = spec.to_dict()
        assert data["kind"] == "iocc"
        assert "q" not in data  # anchored: no query point on the wire
        assert spec_from_dict(data) == spec

    def test_run_refuses_watch_only(self, five_rooms):
        service = QueryService(_build_index(five_rooms))
        with pytest.raises(QueryError, match="watch-only"):
            service.run(R1_WATCH)
        service.close()

    def test_anchor_derivation(self, five_rooms):
        anchor = partition_anchor(five_rooms, "r1")
        assert five_rooms.partition("r1").contains_point(anchor)
        service = QueryService(_build_index(five_rooms))
        qid = service.watch(R1_WATCH)
        assert service.monitor._queries[qid].q == anchor
        service.close()

    def test_unknown_partition_fails_at_registration(self, five_rooms):
        service = QueryService(_build_index(five_rooms))
        with pytest.raises(SpaceError, match="unknown partition"):
            service.watch(OccupancySpec("nope", 2))
        service.close()


# ---------------------------------------------------------------------
# standing maintenance on the single monitor
# ---------------------------------------------------------------------


class TestWatch:
    def test_threshold_crossing_cycle(self, five_rooms):
        service = QueryService(_build_index(five_rooms))
        qid = service.watch(R1_WATCH, query_id="alarm")
        # two objects in r1 at registration: alert is live
        assert service.result_distances(qid) == {OCCUPANCY_KEY: 2.0}

        # one leaves for r2 -> below threshold -> alert clears
        service.ingest([_point_move("b", 15.0, 7.0)])
        assert service.result_distances(qid) == {}

        # it comes back -> alert re-fires
        service.ingest([_point_move("b", 5.0, 7.0)])
        assert service.result_distances(qid) == {OCCUPANCY_KEY: 2.0}

        # a third joins -> re-annotation above the threshold
        service.ingest([_point_move("c", 8.0, 2.0)])
        assert service.result_distances(qid) == {OCCUPANCY_KEY: 3.0}
        service.close()

    def test_insert_and_delete_adjust_occupancy(self, five_rooms):
        service = QueryService(_build_index(five_rooms))
        qid = service.watch(R1_WATCH)
        service.insert(_point_object("e", 3.0, 3.0))
        assert service.result_distances(qid) == {OCCUPANCY_KEY: 3.0}
        service.delete("e")
        assert service.result_distances(qid) == {OCCUPANCY_KEY: 2.0}
        service.delete("a")  # drops below threshold
        assert service.result_distances(qid) == {}
        service.delete("c")  # never a member: no-op for the watch
        assert service.result_distances(qid) == {}
        service.close()

    def test_delta_stream_carries_alert_transitions(self, five_rooms):
        service = QueryService(_build_index(five_rooms))
        service.watch(R1_WATCH)

        batch = service.ingest([_point_move("b", 15.0, 7.0)])
        (delta,) = [d for d in batch if not d.is_empty]
        assert delta.left == (OCCUPANCY_KEY,)

        batch = service.ingest([_point_move("b", 5.0, 7.0)])
        (delta,) = [d for d in batch if not d.is_empty]
        assert dict(delta.entered) == {OCCUPANCY_KEY: 2.0}
        service.close()

    def test_irrelevant_updates_do_not_touch_result(self, five_rooms):
        service = QueryService(_build_index(five_rooms))
        qid = service.watch(R1_WATCH)
        before = service.result_distances(qid)
        batch = service.ingest([_point_move("d", 22.0, 3.0)])  # r3 -> r3
        assert all(d.is_empty for d in batch)
        assert service.result_distances(qid) == before
        service.close()


# ---------------------------------------------------------------------
# persistence and network serving
# ---------------------------------------------------------------------


class TestDurabilityAndServing:
    def test_checkpoint_restore_round_trips(self, five_rooms, tmp_path):
        service = QueryService(_build_index(five_rooms))
        qid = service.watch(R1_WATCH, query_id="alarm")
        service.ingest([_point_move("c", 8.0, 2.0)])
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        twin = QueryService.restore(path)
        assert twin.result_distances(qid) == \
            service.result_distances(qid)
        # identical subsequent updates keep the twins identical
        for svc in (service, twin):
            svc.ingest([_point_move("a", 15.0, 5.0)])
            svc.ingest([_point_move("b", 25.0, 5.0)])
        assert twin.result_distances(qid) == \
            service.result_distances(qid)
        service.close()
        twin.close()

    def test_watch_over_tcp(self, five_rooms):
        service = QueryService(_build_index(five_rooms))
        with ServerThread(service) as st:
            client = NetClient(*st.address)
            client.connect()
            qid = client.watch(R1_WATCH, query_id="alarm")
            client.sync()
            assert client.watched[qid] == R1_WATCH
            assert client.states[qid] == {OCCUPANCY_KEY: 2.0}
            st.ingest([_point_move("b", 15.0, 7.0)])
            client.sync()
            assert client.states[qid] == {}
            st.ingest([_point_move("b", 5.0, 7.0)])
            st.ingest([_point_move("c", 8.0, 2.0)])
            client.sync()
            assert client.states[qid] == {OCCUPANCY_KEY: 3.0}
            client.close()
