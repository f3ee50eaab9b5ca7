"""Unit tests for repro.geometry.rect."""

import random

import pytest

from repro.errors import GeometryError
from repro.geometry import Box3, Point, Rect


class TestRect:
    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            Rect(1, 0, 0, 1)

    def test_measures(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4 and r.height == 2
        assert r.area == 8
        assert r.margin == 6
        assert r.center == (2, 1)

    def test_aspect_ratio(self):
        assert Rect(0, 0, 4, 2).aspect_ratio() == pytest.approx(0.5)
        assert Rect(0, 0, 2, 2).aspect_ratio() == pytest.approx(1.0)
        assert Rect(0, 0, 0, 5).aspect_ratio() == pytest.approx(0.0)
        assert Rect(0, 0, 0, 0).aspect_ratio() == 1.0  # degenerate convention

    def test_contains_xy_boundary_inclusive(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_xy(0, 0) and r.contains_xy(1, 1)
        assert not r.contains_xy(1.0001, 0.5)

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(1, 1, 2, 2))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(9, 9, 11, 10))

    def test_intersects_touching_edges_count(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))

    def test_union(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert u == Rect(0, 0, 3, 3)

    def test_intersection(self):
        assert Rect(0, 0, 2, 2).intersection(Rect(1, 1, 3, 3)) == Rect(1, 1, 2, 2)
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_split_x(self):
        a, b = Rect(0, 0, 4, 2).split_x(1)
        assert a == Rect(0, 0, 1, 2) and b == Rect(1, 0, 4, 2)
        with pytest.raises(GeometryError):
            Rect(0, 0, 4, 2).split_x(5)

    def test_split_y(self):
        a, b = Rect(0, 0, 2, 4).split_y(3)
        assert a == Rect(0, 0, 2, 3) and b == Rect(0, 3, 2, 4)

    def test_buffered(self):
        assert Rect(1, 1, 2, 2).buffered(1) == Rect(0, 0, 3, 3)

    def test_random_xy_falls_inside(self):
        rng = random.Random(1)
        r = Rect(5, 5, 7, 9)
        for _ in range(50):
            x, y = r.random_xy(rng)
            assert r.contains_xy(x, y)

    def test_corners_count(self):
        assert len(Rect(0, 0, 1, 1).corners()) == 4


class TestBox3:
    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            Box3(0, 0, 1, 1, 1, 0)

    def test_volume_and_margin(self):
        b = Box3(0, 0, 0, 2, 3, 4)
        assert b.volume == 24
        assert b.margin == 9

    def test_union_and_intersection_volume(self):
        a = Box3(0, 0, 0, 2, 2, 2)
        b = Box3(1, 1, 1, 3, 3, 3)
        assert a.union(b) == Box3(0, 0, 0, 3, 3, 3)
        assert a.intersection_volume(b) == pytest.approx(1.0)
        assert a.intersection_volume(Box3(5, 5, 5, 6, 6, 6)) == 0.0

    def test_side(self):
        b = Box3(0, 1, 2, 3, 4, 5)
        assert b.side(0) == (0, 3)
        assert b.side(1) == (1, 4)
        assert b.side(2) == (2, 5)
        with pytest.raises(GeometryError):
            b.side(3)

    def test_contains(self):
        outer = Box3(0, 0, 0, 10, 10, 10)
        assert outer.contains_box(Box3(1, 1, 1, 2, 2, 2))

    def test_from_rect_applies_vertical_extent(self):
        b = Box3.from_rect(Rect(0, 0, 5, 5), floor=2, floor_height=4.0)
        assert b.minz == pytest.approx(8.0)
        assert b.maxz == pytest.approx(8.01)

    def test_flattened_collapses_z(self):
        b = Box3.from_rect(Rect(0, 0, 5, 5), floor=1, floor_height=4.0)
        f = b.flattened()
        assert f.minz == f.maxz == pytest.approx(4.0)

    def test_rect_roundtrip(self):
        r = Rect(1, 2, 3, 4)
        assert Box3.from_rect(r, 0, 4.0).rect() == r

    def test_point_box_distances(self):
        b = Box3.from_rect(Rect(0, 0, 10, 10), floor=0, floor_height=4.0)
        inside = Point(5, 5, 0)
        assert b.min_distance_xyz(inside.x, inside.y, inside.z(4.0)) == 0.0
        above = Point(5, 5, 1)  # directly above: one floor height less
        # the slab's 0.01 thickness
        assert b.min_distance_xyz(
            above.x, above.y, above.z(4.0)
        ) == pytest.approx(4.0 - 0.01)
        beside = Point(13, 14, 0)  # (3, 4) off the corner, same floor
        assert b.min_distance_xyz(
            beside.x, beside.y, beside.z(4.0)
        ) == pytest.approx(5.0)
        assert b.flattened().min_distance_xyz(5, 5, 4.0) == pytest.approx(4.0)
