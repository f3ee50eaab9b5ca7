"""Unit tests for repro.geometry.polygon."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Polygon, Rect

# An L-shape: a 4x4 square missing its top-right 2x2 quadrant.
L_SHAPE = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)]


class TestConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1)])

    def test_closed_ring_is_unclosed(self):
        p = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(p.vertices) == 3

    def test_orientation_normalised_to_ccw(self):
        cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        ccw = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert cw.vertices[0] in ccw.vertices
        assert cw.area == pytest.approx(ccw.area)

    def test_from_rect(self):
        p = Polygon.from_rect(Rect(0, 0, 2, 3))
        assert p.area == pytest.approx(6.0)
        assert p.is_rectangle()


class TestMeasures:
    def test_area_square(self):
        assert Polygon.from_rect(Rect(0, 0, 2, 2)).area == pytest.approx(4.0)

    def test_area_l_shape(self):
        assert Polygon(L_SHAPE).area == pytest.approx(12.0)

    def test_bounds(self):
        assert Polygon(L_SHAPE).bounds() == Rect(0, 0, 4, 4)

    def test_edges_count(self):
        assert len(list(Polygon(L_SHAPE).edges())) == 6


class TestPredicates:
    def test_rectilinear(self):
        assert Polygon(L_SHAPE).is_rectilinear()
        assert not Polygon([(0, 0), (2, 1), (0, 2)]).is_rectilinear()

    def test_is_rectangle(self):
        assert Polygon.from_rect(Rect(0, 0, 5, 1)).is_rectangle()
        assert not Polygon(L_SHAPE).is_rectangle()


class TestContainment:
    def test_interior(self):
        p = Polygon(L_SHAPE)
        assert p.contains_xy(1, 1)
        assert p.contains_xy(3, 1)
        assert not p.contains_xy(3, 3)  # the notch

    def test_boundary_counts_as_inside(self):
        p = Polygon(L_SHAPE)
        assert p.contains_xy(0, 0)
        assert p.contains_xy(2, 3)  # on the notch wall
        assert p.contains_xy(4, 1)

    def test_outside(self):
        p = Polygon(L_SHAPE)
        assert not p.contains_xy(-1, -1)
        assert not p.contains_xy(5, 5)

    def test_on_boundary(self):
        p = Polygon.from_rect(Rect(0, 0, 2, 2))
        assert p.on_boundary(1, 0)
        assert p.on_boundary(2, 2)
        assert not p.on_boundary(1, 1)
