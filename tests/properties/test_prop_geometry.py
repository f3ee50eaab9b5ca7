"""Property-based tests for the geometry substrate (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.geometry.decompose import (
    _components,
    _trace_cell_outline,
    decompose_partition_geometry,
    fill_enclosed_cells,
)
from repro.reference.bisector import BisectorShape, Side, WeightedBisector

coords = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
sizes = st.floats(0.1, 500, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x = draw(coords)
    y = draw(coords)
    w = draw(sizes)
    h = draw(sizes)
    return Rect(x, y, x + w, y + h)


@st.composite
def cell_regions(draw):
    """A random 4-connected, simply connected set of unit grid cells (a
    rectilinear region), used to exercise outline tracing and
    decomposition.  The random walk can enclose holes, which a single
    outline ring cannot represent — they are filled, exactly as
    production callers (``rectilinearize``) do."""
    n = draw(st.integers(1, 18))
    cells = {(0, 0)}
    for _ in range(n):
        base = draw(st.sampled_from(sorted(cells)))
        dx, dy = draw(
            st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])
        )
        cells.add((base[0] + dx, base[1] + dy))
    return fill_enclosed_cells(max(_components(cells), key=len))


class TestRectProperties:
    @given(rects(), rects())
    @settings(max_examples=80, deadline=None)
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)

    @given(rects(), rects())
    @settings(max_examples=80, deadline=None)
    def test_intersection_inside_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_rect(inter) and b.contains_rect(inter)
            assert a.intersects(b)


class TestDecomposeProperties:
    @given(cell_regions(), st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_footprint(self, cells, t_shape):
        """Decomposition tiles the footprint exactly: areas add up,
        units are pairwise disjoint, every unit center is inside."""
        poly = _trace_cell_outline(cells, 0.0, 0.0, 1.0, 1.0)
        units = decompose_partition_geometry(poly, t_shape=t_shape)
        assert sum(u.area for u in units) == (len(cells))
        for i, a in enumerate(units):
            for b in units[i + 1:]:
                inter = a.intersection(b)
                assert inter is None or inter.area < 1e-9
        for u in units:
            cx, cy = u.center
            assert poly.contains_xy(cx, cy)

    @given(cell_regions())
    @settings(max_examples=60, deadline=None)
    def test_outline_area_matches_cells(self, cells):
        poly = _trace_cell_outline(cells, 0.0, 0.0, 1.0, 1.0)
        assert poly.area == len(cells)
        assert poly.is_rectilinear()


class TestBisectorProperties:
    @given(
        st.tuples(coords, coords), st.tuples(coords, coords),
        st.floats(0, 500), st.floats(0, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_null_shape_iff_dominance(self, di, dj, wi, wj):
        b = WeightedBisector(di, dj, wi, wj)
        dominated = abs(wi - wj) >= b.focal_distance - 1e-12
        assert (b.shape is BisectorShape.NULL) == dominated

    @given(
        st.tuples(coords, coords), st.tuples(coords, coords),
        st.floats(0, 500), st.floats(0, 500),
        coords, coords,
    )
    @settings(max_examples=100, deadline=None)
    def test_side_matches_weighted_gap(self, di, dj, wi, wj, x, y):
        b = WeightedBisector(di, dj, wi, wj)
        gi = wi + math.hypot(x - di[0], y - di[1])
        gj = wj + math.hypot(x - dj[0], y - dj[1])
        (on_i,), (on_j,) = b.split_points(np.array([[x, y]]))
        assert on_i == (gi <= gj)
        assert on_j == (gj <= gi)
        side = b.single_side(np.array([[x, y]]))
        if gi < gj:
            assert side is Side.I_SIDE
        elif gj < gi:
            assert side is Side.J_SIDE

    @given(
        st.floats(0, 100), st.floats(0, 100),
        coords, coords,
    )
    @settings(max_examples=100, deadline=None)
    def test_dominating_door_always_wins(self, wi, wj, x, y):
        b = WeightedBisector((0.0, 0.0), (10.0, 0.0), wi, wj)
        if b.shape is BisectorShape.NULL:
            gap = (wi + math.hypot(x, y)) - (wj + math.hypot(x - 10.0, y))
            if wi <= wj:
                assert gap <= 1e-9
            else:
                assert gap >= -1e-9


class TestPointProperties:
    @given(coords, coords, st.integers(0, 30), coords, coords, st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, x1, y1, f1, x2, y2, f2):
        p, q = Point(x1, y1, f1), Point(x2, y2, f2)
        origin = Point(0, 0, 0)
        assert p.distance(q) <= p.distance(origin) + origin.distance(q) + 1e-6
