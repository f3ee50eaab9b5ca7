"""Unit tests for the tree tier: the index's unit list (Algorithm 3)
and the reference indR-tree packed over it."""

import pytest

from repro.errors import IndexError_
from repro.geometry import Point, Rect
from repro.index import CompositeIndex
from repro.reference.tree import IndRTree, unit_box
from repro.space import Partition


def _tree(space):
    return IndRTree.of(CompositeIndex.build(space))


class TestConstruction:
    def test_indexes_every_partition(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        assert set(idx.units_of_partition) == set(five_rooms.partitions)

    def test_units_cover_partition_areas(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        for pid, partition in five_rooms.partitions.items():
            units = idx.units_of_partition[pid]
            assert sum(u.rect.area for u in units) == pytest.approx(partition.area)

    def test_hallway_decomposed(self, five_rooms):
        idx = CompositeIndex.build(five_rooms, t_shape=0.5)
        # The hallway is 30 x 4 (ratio 0.133) and must be split.
        assert len(idx.units_of_partition["h"]) > 1

    def test_t_shape_zero_keeps_whole(self, five_rooms):
        idx = CompositeIndex.build(five_rooms, t_shape=0.0)
        assert len(idx.units_of_partition["h"]) == 1

    def test_staircase_unit_per_floor(self, two_floor_space):
        idx = CompositeIndex.build(two_floor_space)
        units = idx.units_of_partition["stair"]
        assert {u.floor for u in units} == {0, 1}
        floors = [u.floor for u in units]
        assert floors.count(0) == floors.count(1)

    def test_vertical_extent_one_centimeter(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        unit = next(iter(idx.units.values()))
        box = unit_box(unit, five_rooms.floor_height)
        assert box.maxz - box.minz == pytest.approx(0.01)

    def test_reference_tree_holds_the_index_units(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        indr = IndRTree.of(idx)
        assert indr.units == idx.units and len(indr) == len(idx.units)
        assert indr.tree.validate() == []
        assert IndRTree.of(idx) is indr


class TestPointLocation:
    def test_locate_room(self, five_rooms):
        indr = _tree(five_rooms)
        unit = indr.locate_point(Point(5, 5, 0))
        assert unit is not None and unit.partition_id == "r1"

    def test_locate_hallway(self, five_rooms):
        indr = _tree(five_rooms)
        unit = indr.locate_point(Point(15, 12, 0))
        assert unit.partition_id == "h"

    def test_locate_wrong_floor(self, five_rooms):
        indr = _tree(five_rooms)
        assert indr.locate_point(Point(5, 5, 3)) is None

    def test_locate_outside(self, five_rooms):
        indr = _tree(five_rooms)
        assert indr.locate_point(Point(-50, -50, 0)) is None

    def test_locate_on_mall(self, small_mall):
        indr = _tree(small_mall)
        for seed in range(10):
            p = small_mall.random_point(seed=seed)
            unit = indr.locate_point(p)
            assert unit is not None
            assert small_mall.partition(unit.partition_id).contains_point(p)


class TestRectQueries:
    def test_units_overlapping_rect(self, five_rooms):
        indr = _tree(five_rooms)
        probe = Rect(8, 4, 12, 6)  # straddles r1 | r2
        pids = {u.partition_id for u in indr.units_overlapping_rect(probe, 0)}
        assert pids == {"r1", "r2"}

    def test_floor_filter(self, two_floor_space):
        indr = _tree(two_floor_space)
        probe = Rect(0, 0, 30, 10)
        pids0 = {u.partition_id for u in indr.units_overlapping_rect(probe, 0)}
        pids1 = {u.partition_id for u in indr.units_overlapping_rect(probe, 1)}
        assert "room0" in pids0 and "room0" not in pids1
        assert "room1" in pids1
        assert "stair" in pids0 and "stair" in pids1


class TestDynamicOps:
    """Partition insert / delete edit the index's unit list; the
    reference tree is packed again over the new list."""

    def test_insert_partition(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        new = Partition("annex", Rect(30, 0, 40, 10), 0)
        five_rooms.add_partition(new)
        idx.insert_partition(new)
        assert idx.units_of_partition["annex"]
        unit = IndRTree.of(idx).locate_point(Point(35, 5, 0))
        assert unit.partition_id == "annex"

    def test_double_insert_rejected(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        with pytest.raises(IndexError_):
            idx.insert_partition(five_rooms.partition("r1"))

    def test_delete_partition(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        n_before = len(idx.units)
        removed = idx.units_of_partition["h"]
        idx.delete_partition("h")
        assert len(idx.units) == n_before - len(removed)
        assert "h" not in idx.units_of_partition
        indr = IndRTree.of(idx)
        assert indr.locate_point(Point(15, 12, 0)) is None
        assert indr.tree.validate() == []

    def test_delete_unknown_rejected(self, five_rooms):
        idx = CompositeIndex.build(five_rooms)
        with pytest.raises(IndexError_):
            idx.delete_partition("zzz")


class TestFloorSpans:
    def test_leaf_node_span(self, two_floor_space):
        indr = _tree(two_floor_space)
        lf, uf = indr.node_floor_span(indr.root)
        assert (lf, uf) == (0, 1)

    def test_single_floor_span(self, five_rooms):
        indr = _tree(five_rooms)
        assert indr.node_floor_span(indr.root) == (0, 0)
