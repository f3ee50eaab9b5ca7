"""Unit tests for result deltas: the pure delta algebra in
repro.queries.deltas and the monitor's per-mutation emission paths
(moves, insert, delete, topology resync, register/deregister)."""

import pytest

from repro.api.specs import KNNSpec, RangeSpec
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove
from repro.queries import (
    DeltaBatch,
    QueryMonitor,
    ResultDelta,
    diff_results,
    replay_deltas,
)
from repro.space.events import CloseDoor


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


@pytest.fixture
def five_rooms_index(five_rooms):
    pop = ObjectPopulation(five_rooms)
    pop.insert(_point_object("near", 4.0, 5.0))
    pop.insert(_point_object("mid", 8.0, 5.0))
    pop.insert(_point_object("far", 25.0, 5.0))
    return CompositeIndex.build(five_rooms, pop)


Q1 = Point(5.0, 5.0, 0)


class TestDeltaAlgebra:
    def test_diff_results_partitions_changes(self):
        before = {"a": 1.0, "b": 2.0, "c": None}
        after = {"b": 2.5, "c": None, "d": 4.0}
        delta = diff_results("q", "move", before, after)
        assert delta.entered == {"d": 4.0}
        assert delta.left == ("a",)
        assert delta.distance_changed == {"b": 2.5}
        assert bool(delta) and not delta.is_empty

    def test_diff_results_none_when_equal(self):
        state = {"a": 1.0, "b": None}
        assert diff_results("q", "move", state, dict(state)) is None

    def test_none_to_value_counts_as_distance_change(self):
        delta = diff_results("q", "move", {"a": None}, {"a": 3.0})
        assert delta.distance_changed == {"a": 3.0}
        assert not delta.entered and not delta.left

    def test_apply_to_is_the_diff_inverse(self):
        before = {"a": 1.0, "b": 2.0}
        after = {"b": 1.5, "c": 9.0}
        delta = diff_results("q", "move", before, after)
        state = dict(before)
        delta.apply_to(state)
        assert state == after

    def test_replay_deltas_folds_in_order(self):
        deltas = [
            ResultDelta("q", "register", {"a": 1.0}),
            ResultDelta("q", "move", {"b": 2.0}, ("a",)),
            ResultDelta("q", "move", {}, (), {"b": 2.5}),
        ]
        assert replay_deltas(deltas) == {"b": 2.5}
        # With an explicit starting state, the input is not mutated.
        start = {"z": 0.0}
        assert replay_deltas(deltas, start) == {"z": 0.0, "b": 2.5}
        assert start == {"z": 0.0}

    def test_unknown_cause_rejected(self):
        with pytest.raises(ValueError):
            ResultDelta("q", "telepathy", {})

    def test_summary_renders_compactly(self):
        delta = ResultDelta("q", "move", {"a": 1.0}, ("b",), {"c": 2.0})
        assert delta.summary() == "q[move] +a -b ~c"
        assert ResultDelta("q", "move").summary() == "q[move] (no change)"


class TestDeltaBatch:
    def test_iteration_len_and_truthiness(self):
        d1 = ResultDelta("q1", "move", {"a": 1.0})
        d2 = ResultDelta("q2", "move", {}, ("b",))
        batch = DeltaBatch(deltas=(d1, d2))
        assert list(batch) == [d1, d2]
        assert len(batch) == 2 and batch
        assert not DeltaBatch()

    def test_for_query_and_query_ids(self):
        d1 = ResultDelta("q1", "topology", {"a": 1.0})
        d2 = ResultDelta("q2", "move", {"b": 2.0})
        d3 = ResultDelta("q1", "move", {}, ("a",))
        batch = DeltaBatch(deltas=(d1, d2, d3))
        assert batch.for_query("q1") == (d1, d3)
        assert batch.query_ids() == ["q1", "q2"]


class TestMonitorEmission:
    def test_register_parks_initial_delta(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        batch = monitor.drain_pending_deltas()
        (delta,) = batch.for_query(a)
        assert delta.cause == "register"
        assert set(delta.entered) == {"near", "mid"}
        # Draining is idempotent: nothing parked twice.
        assert not monitor.drain_pending_deltas()

    def test_moves_emit_entered_and_left(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.drain_pending_deltas()
        batch = monitor.apply_moves([_point_move("far", 6.0, 6.0)])
        (delta,) = batch.for_query(a)
        assert delta.cause == "move"
        assert set(delta.entered) == {"far"} and not delta.left
        batch = monitor.apply_moves([_point_move("far", 25.0, 5.0)])
        (delta,) = batch.for_query(a)
        assert delta.left == ("far",) and not delta.entered
        assert [obj.object_id for obj in batch.moved] == ["far"]

    def test_unaffected_query_emits_no_delta(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q1, 3.0))
        monitor.drain_pending_deltas()
        batch = monitor.apply_moves([_point_move("far", 26.0, 6.0)])
        assert not batch  # far stays far: no delta at all

    def test_member_move_emits_distance_change(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        b = monitor.register(KNNSpec(Q1, 2))
        monitor.drain_pending_deltas()
        batch = monitor.apply_moves([_point_move("near", 4.5, 5.0)])
        (delta,) = batch.for_query(b)
        assert set(delta.distance_changed) == {"near"}
        assert not delta.entered and not delta.left

    def test_insert_and_delete_emit(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.drain_pending_deltas()
        batch = monitor.apply_insert(_point_object("new", 5.0, 4.0))
        (delta,) = batch.for_query(a)
        assert delta.cause == "insert" and "new" in delta.entered
        batch = monitor.apply_delete("new")
        (delta,) = batch.for_query(a)
        assert delta.cause == "delete" and delta.left == ("new",)
        assert batch.deleted.object_id == "new"

    def test_event_emits_topology_deltas(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 40.0))
        monitor.drain_pending_deltas()
        batch = monitor.apply_event(CloseDoor("d3"))
        (delta,) = batch.for_query(a)
        assert delta.cause == "topology"
        assert "far" in delta.left  # r3 lost its only door
        assert batch.event_result is not None

    def test_external_bump_parks_topology_delta(self, five_rooms_index,
                                                five_rooms):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 40.0))
        monitor.drain_pending_deltas()
        five_rooms.remove_door("d3")
        five_rooms.topology_version += 1
        monitor.result_ids(a)  # access notices the bump, parks deltas
        batch = monitor.drain_pending_deltas()
        (delta,) = batch.for_query(a)
        assert delta.cause == "topology" and "far" in delta.left

    def test_deregister_emits_everything_left(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        a = monitor.register(RangeSpec(Q1, 10.0))
        monitor.drain_pending_deltas()
        monitor.deregister(a)
        batch = monitor.drain_pending_deltas()
        (delta,) = batch.for_query(a)
        assert delta.cause == "deregister"
        assert set(delta.left) == {"near", "mid"}

    def test_deltas_emitted_counted(self, five_rooms_index):
        monitor = QueryMonitor(five_rooms_index)
        monitor.register(RangeSpec(Q1, 10.0))
        monitor.apply_moves([_point_move("far", 6.0, 6.0)])
        assert monitor.stats.deltas_emitted == 2  # register + move
