"""Unit tests for repro.geometry.point."""

import math

import pytest

from repro.geometry import DEFAULT_FLOOR_HEIGHT, Point, euclidean_distance


class TestPointBasics:
    def test_default_floor_is_zero(self):
        assert Point(1.0, 2.0).floor == 0

    def test_points_are_hashable_and_equal_by_value(self):
        assert Point(1, 2, 3) == Point(1, 2, 3)
        assert len({Point(1, 2, 3), Point(1, 2, 3)}) == 1

    def test_z_uses_floor_height(self):
        assert Point(0, 0, 2).z() == 2 * DEFAULT_FLOOR_HEIGHT
        assert Point(0, 0, 2).z(floor_height=3.0) == 6.0

    def test_xy_tuple(self):
        assert Point(1.5, -2.0, 4).xy() == (1.5, -2.0)

    def test_on_floor(self):
        assert Point(1, 1, 0).on_floor(5) == Point(1, 1, 5)


class TestDistances:
    def test_same_floor_distance_is_planar(self):
        assert Point(0, 0).distance(Point(3, 4)) == pytest.approx(5.0)

    def test_cross_floor_distance_adds_vertical_leg(self):
        p, q = Point(0, 0, 0), Point(0, 0, 1)
        assert p.distance(q) == pytest.approx(DEFAULT_FLOOR_HEIGHT)
        assert p.distance(q, floor_height=10.0) == pytest.approx(10.0)

    def test_cross_floor_diagonal(self):
        p, q = Point(0, 0, 0), Point(3, 0, 1)
        expected = math.sqrt(9 + DEFAULT_FLOOR_HEIGHT**2)
        assert p.distance(q) == pytest.approx(expected)

    def test_distance_is_symmetric(self):
        p, q = Point(1, 7, 0), Point(-2, 3, 4)
        assert p.distance(q) == pytest.approx(q.distance(p))

    def test_module_level_alias(self):
        p, q = Point(0, 0), Point(1, 1)
        assert euclidean_distance(p, q) == pytest.approx(p.distance(q))

    def test_zero_distance(self):
        p = Point(2.5, 2.5, 1)
        assert p.distance(p) == 0.0
