"""Unit tests for repro.reference.bisector (Table II of the paper)."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.reference.bisector import BisectorShape, Side, WeightedBisector

DI, DJ = (0.0, 0.0), (10.0, 0.0)


def weighted_gap(b, x, y):
    """``(w_i + |p, d_i|) - (w_j + |p, d_j|)``: negative where ``d_i``
    serves ``p``, positive where ``d_j`` does."""
    return (b.wi + math.hypot(x - b.di[0], y - b.di[1])) - (
        b.wj + math.hypot(x - b.dj[0], y - b.dj[1])
    )


def sides(b, *points):
    on_i, on_j = b.split_points(np.array(points, dtype=float))
    return list(zip(on_i.tolist(), on_j.tolist()))


class TestShapeClassification:
    def test_equal_weights_is_line(self):
        b = WeightedBisector(DI, DJ, 3.0, 3.0)
        assert b.shape is BisectorShape.LINE

    def test_unequal_weights_is_hyperbola(self):
        b = WeightedBisector(DI, DJ, 2.0, 6.0)
        assert b.shape is BisectorShape.HYPERBOLA

    def test_dominance_is_null(self):
        # w_j - w_i = 15 >= |d_i, d_j| = 10: d_i always wins.
        b = WeightedBisector(DI, DJ, 0.0, 15.0)
        assert b.shape is BisectorShape.NULL

    def test_dominance_other_side(self):
        b = WeightedBisector(DI, DJ, 15.0, 0.0)
        assert b.shape is BisectorShape.NULL

    def test_non_null_has_no_dominating_side(self):
        # Around either door of a LINE or HYPERBOLA bisector some points
        # go to d_i and some to d_j: no side takes every point.
        spread = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
        for wj in (3.0, 6.0):
            b = WeightedBisector(DI, DJ, 3.0, wj)
            assert b.shape is not BisectorShape.NULL
            assert b.single_side(spread) is None

    def test_negative_weight_rejected(self):
        with pytest.raises(GeometryError):
            WeightedBisector(DI, DJ, -1.0, 0.0)


class TestSideTests:
    def test_line_case_splits_at_perpendicular_bisector(self):
        b = WeightedBisector(DI, DJ, 1.0, 1.0)
        assert sides(b, (2, 0), (8, 0), (5, 3)) == [
            (True, False),
            (False, True),
            (True, True),  # on x = 5: served by both
        ]

    def test_weighted_gap_sign(self):
        b = WeightedBisector(DI, DJ, 0.0, 4.0)
        # At x=6: w_i + 6 = 6, w_j + 4 = 8 -> d_i still wins.
        assert weighted_gap(b, 6, 0) < 0
        assert sides(b, (6, 0)) == [(True, False)]
        # At x=8: w_i + 8 = 8, w_j + 2 = 6 -> d_j wins.
        assert weighted_gap(b, 8, 0) > 0
        assert sides(b, (8, 0)) == [(False, True)]

    def test_on_curve_point(self):
        b = WeightedBisector(DI, DJ, 0.0, 4.0)
        # On the x-axis the bisector point solves x = (10 - x) + 4 -> x = 7.
        assert weighted_gap(b, 7, 0) == 0.0
        assert sides(b, (7, 0)) == [(True, True)]

    def test_split_points_masks(self):
        b = WeightedBisector(DI, DJ, 1.0, 1.0)
        xy = np.array([[1.0, 0.0], [9.0, 0.0], [5.0, 2.0]])
        on_i, on_j = b.split_points(xy)
        assert on_i.tolist() == [True, False, True]
        assert on_j.tolist() == [False, True, True]

    def test_single_side_detection(self):
        b = WeightedBisector(DI, DJ, 1.0, 1.0)
        left = np.array([[1.0, 0.0], [2.0, 1.0]])
        right = np.array([[8.0, 0.0], [9.0, 1.0]])
        both = np.vstack([left, right])
        assert b.single_side(left) is Side.I_SIDE
        assert b.single_side(right) is Side.J_SIDE
        assert b.single_side(both) is None


class TestHyperbolaParameters:
    def test_points_on_hyperbola_have_constant_difference(self):
        b = WeightedBisector(DI, DJ, 2.0, 6.0)
        assert b.shape is BisectorShape.HYPERBOLA
        # Along several horizontal lines the split flips exactly once,
        # where |p, d_i| - |p, d_j| = w_j - w_i, i.e. the weighted gap
        # vanishes.
        xs = np.linspace(-5, 15, 20001)
        for y in (0.0, 1.0, 3.0):
            on_i, on_j = b.split_points(
                np.column_stack([xs, np.full_like(xs, y)])
            )
            assert (on_i | on_j).all()
            flips = np.flatnonzero(np.diff(on_i.astype(int)) != 0)
            assert len(flips) == 1
            x0 = xs[flips[0]]
            assert on_i[: flips[0] + 1].all() and on_j[flips[0] + 1 :].all()
            assert abs(weighted_gap(b, x0, y)) < 1e-2

    def test_vertex_on_the_focal_axis(self):
        # Foci 10 apart (c = 5, centre x = 5), |w_i - w_j| = 4 (a = 2):
        # the branch nearer the heavier-weighted door d_j has its
        # vertex at x = 5 + 2.
        b = WeightedBisector(DI, DJ, 2.0, 6.0)
        assert sides(b, (7, 0)) == [(True, True)]
        assert sides(b, (7 - 1e-9, 0), (7 + 1e-9, 0)) == [
            (True, False),
            (False, True),
        ]
