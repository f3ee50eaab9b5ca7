"""Unit tests for repro.objects.uncertain (subregion resolution)."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ReproError
from repro.geometry import Circle, Point, Rect
from repro.objects import InstanceSet, UncertainObject
from repro.reference.subregions import subregions
from repro.space import Partition
from repro.space.grid import PartitionGrid


def obj_at(points, center, radius=5.0, floor=0, oid="o1"):
    xy = np.array(points, dtype=float)
    return UncertainObject(
        oid,
        Circle(Point(*center, floor), radius),
        InstanceSet.uniform(xy, floor),
    )


class TestConstruction:
    def test_floor_mismatch_rejected(self):
        with pytest.raises(ReproError):
            UncertainObject(
                "o1",
                Circle(Point(0, 0, 1), 5.0),
                InstanceSet.uniform(np.zeros((2, 2)), 0),
            )

    def test_identity(self):
        a = obj_at([[0, 0]], (0, 0))
        b = obj_at([[9, 9]], (9, 9))
        b.object_id = "o1"
        assert a == b and hash(a) == hash(b)

    def test_len_is_instance_count(self):
        assert len(obj_at([[0, 0], [1, 1], [2, 2]], (1, 1))) == 3

    def test_bounds_from_instances(self):
        o = obj_at([[1, 1], [3, 4]], (2, 2))
        b = o.bounds()
        assert (b.minx, b.miny, b.maxx, b.maxy) == (1, 1, 3, 4)


class TestSubregions:
    def test_single_partition(self, five_rooms):
        o = obj_at([[2, 2], [3, 3], [4, 4]], (3, 3))
        subs = subregions(o, five_rooms)
        assert len(subs) == 1
        assert subs[0].partition_id == "r1"
        assert subs[0].mass == pytest.approx(1.0)

    def test_straddling_two_rooms(self, five_rooms):
        # r1 is x in [0, 10], r2 is x in [10, 20]: instances across.
        o = obj_at([[8, 5], [9, 5], [12, 5], [13, 5]], (10, 5))
        subs = subregions(o, five_rooms)
        by_pid = {s.partition_id: s for s in subs}
        assert set(by_pid) == {"r1", "r2"}
        assert by_pid["r1"].mass == pytest.approx(0.5)
        assert by_pid["r2"].mass == pytest.approx(0.5)

    def test_three_partitions(self, five_rooms):
        o = obj_at([[5, 9], [5, 12], [5, 15]], (5, 12), radius=6.0)
        subs = subregions(o, five_rooms)
        assert {s.partition_id for s in subs} == {"r1", "h", "r4"}

    def test_total_mass_preserved(self, five_rooms):
        o = obj_at([[8, 5], [12, 5], [15, 12]], (11, 7), radius=8.0)
        subs = subregions(o, five_rooms)
        assert sum(s.mass for s in subs) == pytest.approx(1.0)

    def test_wall_instance_reattached(self, five_rooms):
        # (15, 30) lies outside every partition; mass must not vanish.
        o = obj_at([[5, 5], [15, 30]], (5, 5), radius=30.0)
        subs = subregions(o, five_rooms)
        assert sum(s.mass for s in subs) == pytest.approx(1.0)
        assert {s.partition_id for s in subs} == {"r1"}

    def test_object_outside_everything_raises(self, five_rooms):
        o = obj_at([[500, 500]], (500, 500))
        with pytest.raises(ReproError):
            subregions(o, five_rooms)

    def test_grid_path_matches_scan_path(self, five_rooms):
        o1 = obj_at([[8, 5], [12, 5], [15, 12]], (11, 7), radius=8.0)
        o2 = obj_at([[8, 5], [12, 5], [15, 12]], (11, 7), radius=8.0, oid="o2")
        grid = PartitionGrid.build(five_rooms)
        a = {s.partition_id: s.mass for s in subregions(o1, five_rooms)}
        b = {s.partition_id: s.mass for s in subregions(o2, five_rooms, grid)}
        assert a == b

    def test_overlapped_partitions(self, five_rooms):
        o = obj_at([[8, 5], [12, 5]], (10, 5))
        assert set(o.overlapped_partitions(five_rooms)) == {"r1", "r2"}

    def test_caching_and_invalidation(self, five_rooms):
        # The object holds no split of its own: the reference's split
        # (and any cache of it) lives with whoever evaluates it.
        fields = {f.name for f in dataclasses.fields(UncertainObject)}
        assert not any("subregion" in name for name in fields)
        assert not hasattr(UncertainObject, "subregions")
        assert not hasattr(UncertainObject, "invalidate_subregions")
        o = obj_at([[8, 5], [12, 5]], (10, 5))
        assert subregions(o, five_rooms) is not subregions(o, five_rooms)

    def test_cache_expires_on_topology_change(self, five_rooms):
        # (5, 30) lies in no partition: it rides with the centre's r1
        # until a partition covers it; pieces() sees that at once.
        o = obj_at([[5, 5], [5, 30]], (5, 5), radius=30.0)
        ids, pieces = o.pieces(five_rooms)
        assert ids == ["r1"] and pieces is None
        five_rooms.add_partition(Partition("r6", Rect(0, 24, 15, 34), 0))
        ids, pieces = o.pieces(five_rooms)
        assert ids == ["r1", "r6"] and pieces.tolist() == [0, 1]
        assert o.overlapped_partitions(five_rooms) == ids
        assert [s.mass for s in subregions(o, five_rooms)] == [0.5, 0.5]
