"""Unit tests for repro.geometry.segment."""

import pytest

from repro.geometry import Segment


class TestSegment:
    def test_length_and_midpoint(self):
        s = Segment(0, 0, 3, 4)
        assert s.length == pytest.approx(5.0)
        assert s.midpoint == (1.5, 2.0)

    def test_axis_aligned(self):
        assert Segment(0, 0, 0, 5).is_axis_aligned()
        assert Segment(0, 0, 5, 0).is_axis_aligned()
        assert not Segment(0, 0, 1, 1).is_axis_aligned()


class TestOverlap1D:
    def test_vertical_overlap(self):
        a = Segment(2, 0, 2, 10)
        b = Segment(2, 5, 2, 15)
        got = a.overlap_1d(b)
        assert got == Segment(2, 5, 2, 10)

    def test_horizontal_overlap(self):
        a = Segment(0, 3, 8, 3)
        b = Segment(4, 3, 12, 3)
        assert a.overlap_1d(b) == Segment(4, 3, 8, 3)

    def test_no_overlap_when_disjoint(self):
        a = Segment(2, 0, 2, 1)
        b = Segment(2, 5, 2, 6)
        assert a.overlap_1d(b) is None

    def test_touching_endpoints_do_not_count(self):
        a = Segment(2, 0, 2, 5)
        b = Segment(2, 5, 2, 9)
        assert a.overlap_1d(b) is None

    def test_different_lines_no_overlap(self):
        assert Segment(2, 0, 2, 5).overlap_1d(Segment(3, 0, 3, 5)) is None

    def test_non_axis_aligned_returns_none(self):
        assert Segment(0, 0, 1, 1).overlap_1d(Segment(0, 0, 1, 1)) is None
