"""Unit tests for repro.geometry.circle."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry import Circle, Point, Rect


class TestCircle:
    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            Circle(Point(0, 0), -1.0)

    def test_basic_measures(self):
        c = Circle(Point(0, 0, 2), 5.0)
        assert c.floor == 2
        assert c.diameter == 10.0
        assert c.area == pytest.approx(math.pi * 25)

    def test_bounds(self):
        c = Circle(Point(10, 20), 5)
        assert c.bounds() == Rect(5, 15, 15, 25)

    def test_contains_xy(self):
        c = Circle(Point(0, 0), 1)
        assert c.contains_xy(0.5, 0.5)
        assert c.contains_xy(1, 0)  # boundary inclusive
        assert not c.contains_xy(1.01, 0)

    def test_polygonize_vertices_on_circle(self):
        c = Circle(Point(1, 1), 2)
        for x, y in c.polygonize(12):
            assert math.hypot(x - 1, y - 1) == pytest.approx(2.0)

    def test_polygonize_needs_three(self):
        with pytest.raises(GeometryError):
            Circle(Point(0, 0), 1).polygonize(2)
