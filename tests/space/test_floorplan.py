"""Unit tests for repro.space.floorplan (IndoorSpace)."""

import pytest

from repro.errors import SpaceError
from repro.geometry import Point, Rect
from repro.space import Door, IndoorSpace, Partition


def simple_space():
    s = IndoorSpace()
    s.add_partition(Partition("a", Rect(0, 0, 10, 10), 0))
    s.add_partition(Partition("b", Rect(10, 0, 20, 10), 0))
    s.add_door(Door("d", Point(10, 5), ("a", "b")))
    return s


class TestMutation:
    def test_duplicate_partition_rejected(self):
        s = simple_space()
        with pytest.raises(SpaceError):
            s.add_partition(Partition("a", Rect(0, 0, 1, 1), 0))

    def test_duplicate_door_rejected(self):
        s = simple_space()
        with pytest.raises(SpaceError):
            s.add_door(Door("d", Point(10, 2), ("a", "b")))

    def test_door_requires_known_partitions(self):
        s = simple_space()
        with pytest.raises(SpaceError):
            s.add_door(Door("d2", Point(0, 0), ("a", "zzz")))

    def test_add_door_registers_with_partitions(self):
        s = simple_space()
        assert s.partition("a").door_ids == ["d"]
        assert s.partition("b").door_ids == ["d"]

    def test_remove_door_detaches(self):
        s = simple_space()
        s.remove_door("d")
        assert s.partition("a").door_ids == []
        assert "d" not in s.doors
        with pytest.raises(SpaceError):
            s.remove_door("d")

    def test_remove_partition_cascades_doors(self):
        s = simple_space()
        s.remove_partition("a")
        assert "d" not in s.doors
        assert s.partition("b").door_ids == []
        with pytest.raises(SpaceError):
            s.partition("a")

    def test_topology_version_bumps(self):
        s = IndoorSpace()
        v0 = s.topology_version
        s.add_partition(Partition("a", Rect(0, 0, 1, 1), 0))
        assert s.topology_version > v0


class TestAccessors:
    def test_doors_of(self, five_rooms):
        ids = {d.door_id for d in five_rooms.doors_of("r1")}
        assert ids == {"d1", "d12"}

    def test_adjacent_partitions(self, five_rooms):
        assert set(five_rooms.adjacent_partitions("r1")) == {"h", "r2"}
        assert set(five_rooms.adjacent_partitions("h")) == {
            "r1", "r2", "r3", "r4", "r5",
        }

    def test_one_way_adjacency_asymmetric(self, one_way_space):
        # d21 permits r2 -> r1 only.
        assert "r1" in one_way_space.adjacent_partitions("r2")
        assert "r2" not in one_way_space.adjacent_partitions("r1")

    def test_exit_entry_doors_one_way(self, one_way_space):
        r1_exits = {d.door_id for d in one_way_space.exit_doors("r1")}
        r1_entries = {d.door_id for d in one_way_space.entry_doors("r1")}
        assert r1_exits == {"dh1"}
        assert r1_entries == {"dh1", "d21"}

    def test_staircases(self, two_floor_space):
        assert [p.partition_id for p in two_floor_space.staircases()] == ["stair"]

    def test_partitions_on_floor(self, two_floor_space):
        on0 = {p.partition_id for p in two_floor_space.partitions_on_floor(0)}
        assert on0 == {"room0", "hall0", "stair"}
        on1 = {p.partition_id for p in two_floor_space.partitions_on_floor(1)}
        assert on1 == {"room1", "hall1", "stair"}

    def test_num_floors(self, two_floor_space, five_rooms):
        assert two_floor_space.num_floors == 2
        assert five_rooms.num_floors == 1


class TestGeometry:
    def test_bounds(self, five_rooms):
        assert five_rooms.bounds() == Rect(0, 0, 30, 24)

    def test_empty_bounds_raises(self):
        with pytest.raises(SpaceError):
            IndoorSpace().bounds()

    def test_locate(self, five_rooms):
        assert five_rooms.locate(Point(5, 5, 0)).partition_id == "r1"
        assert five_rooms.locate(Point(15, 12, 0)).partition_id == "h"
        assert five_rooms.locate(Point(5, 5, 3)) is None

    def test_door_to_door_cross_floor(self, two_floor_space):
        d0 = two_floor_space.door("se0")
        d1 = two_floor_space.door("se1")
        dist = two_floor_space.door_to_door(d0, d1)
        assert dist >= two_floor_space.floor_height

    def test_random_point_is_inside(self, five_rooms):
        for seed in range(10):
            p = five_rooms.random_point(seed=seed)
            assert five_rooms.locate(p) is not None

    def test_random_point_avoids_staircases(self, two_floor_space):
        for seed in range(20):
            p = two_floor_space.random_point(seed=seed)
            part = two_floor_space.locate(p)
            assert part.kind.value != "staircase"


class TestValidation:
    def test_valid_space(self, five_rooms):
        assert five_rooms.validate() == []

    def test_isolated_partition_reported(self):
        s = IndoorSpace()
        s.add_partition(Partition("lonely", Rect(0, 0, 1, 1), 0))
        assert any("no doors" in p for p in s.validate())

    def test_door_floor_mismatch_reported(self):
        s = IndoorSpace()
        s.add_partition(Partition("a", Rect(0, 0, 10, 10), 0))
        s.add_partition(Partition("b", Rect(10, 0, 20, 10), 0))
        s.add_door(Door("d", Point(10, 5, floor=7), ("a", "b")))
        assert any("outside partition" in p for p in s.validate())
