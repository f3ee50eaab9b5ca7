"""Unit tests for the skeleton tier (M_s2s, Definition 2, Lemma 6)."""

import math

import numpy as np
import pytest

from repro.geometry import Point
from repro.index import SkeletonTier
from repro.reference.tree import min_distance_to_box, skeleton_distance
from repro.space import DoorsGraph


class TestEntrances:
    def test_two_floor_space_has_two_entrances(self, two_floor_space):
        sk = SkeletonTier(two_floor_space)
        assert sk.num_entrances == 2
        assert {e.door_id for e in sk.entrances} == {"se0", "se1"}

    def test_by_floor(self, two_floor_space):
        sk = SkeletonTier(two_floor_space)
        assert [e.door_id for e in sk.entrances_on_floor(0)] == ["se0"]
        assert [e.door_id for e in sk.entrances_on_floor(1)] == ["se1"]
        assert sk.entrances_on_floor(7) == []

    def test_single_floor_building_has_none(self, five_rooms):
        sk = SkeletonTier(five_rooms)
        assert sk.num_entrances == 0

    def test_mall_entrance_count(self, small_mall):
        sk = SkeletonTier(small_mall)
        # 4 shafts x 2 entrances per shaft (2-floor mall).
        assert sk.num_entrances == 8


class TestMs2sProperties:
    def test_diagonal_zero(self, small_mall):
        sk = SkeletonTier(small_mall)
        assert np.allclose(np.diag(sk.ms2s), 0.0)

    def test_symmetric(self, small_mall):
        sk = SkeletonTier(small_mall)
        assert np.allclose(sk.ms2s, sk.ms2s.T)

    def test_same_floor_is_euclidean(self, small_mall):
        sk = SkeletonTier(small_mall)
        fh = small_mall.floor_height
        for a in sk.entrances:
            for b in sk.entrances:
                if a.floor == b.floor and a.index != b.index:
                    assert sk.ms2s[a.index, b.index] <= (
                        a.midpoint.distance(b.midpoint, fh) + 1e-9
                    )

    def test_same_staircase_direct(self, two_floor_space):
        sk = SkeletonTier(two_floor_space)
        a, b = sk.entrances
        expected = a.midpoint.distance(
            b.midpoint, two_floor_space.floor_height
        )
        assert sk.ms2s[a.index, b.index] == pytest.approx(expected)

    def test_triangle_inequality(self, small_mall):
        sk = SkeletonTier(small_mall)
        m = sk.ms2s
        n = sk.num_entrances
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] <= m[i, k] + m[k, j] + 1e-9


class TestSkeletonDistance:
    def test_same_floor_is_euclidean(self, two_floor_space):
        sk = SkeletonTier(two_floor_space)
        q, p = Point(1, 1, 0), Point(9, 7, 0)
        assert skeleton_distance(sk, q, p) == pytest.approx(q.distance(p))

    def test_cross_floor_routes_through_entrances(self, two_floor_space):
        sk = SkeletonTier(two_floor_space)
        q, p = Point(5, 5, 0), Point(5, 5, 1)
        d = skeleton_distance(sk, q, p)
        assert d > q.distance(p, two_floor_space.floor_height) - 1e-9
        se0 = two_floor_space.door("se0").midpoint
        assert d >= q.distance(se0, two_floor_space.floor_height)

    def test_unreachable_floor_is_infinite(self, five_rooms):
        sk = SkeletonTier(five_rooms)
        assert skeleton_distance(sk, Point(5, 5, 0), Point(5, 5, 3)) == math.inf

    def test_lemma6_lower_bound(self, small_mall):
        """|q,p|_K <= |q,p|_I on random point pairs (Lemma 6)."""
        sk = SkeletonTier(small_mall)
        graph = DoorsGraph.from_space(small_mall)
        for seed in range(8):
            q = small_mall.random_point(seed=seed)
            p = small_mall.random_point(seed=seed + 50)
            indoor = graph.indoor_distance(q, p)
            skel = skeleton_distance(sk, q, p)
            assert skel <= indoor + 1e-6, (q, p, skel, indoor)


class TestMinDistanceToBox:
    def test_same_floor_is_mindist(self, two_floor_space):
        sk = SkeletonTier(two_floor_space)
        unit_box = two_floor_space.partition("room0").bounds
        from repro.geometry.rect import Box3
        box = Box3.from_rect(unit_box, 0, two_floor_space.floor_height)
        q = Point(15, 5, 0)
        assert min_distance_to_box(sk, q, box, 0, 0) == pytest.approx(5.0)

    def test_cross_floor_bound_holds(self, small_mall):
        sk = SkeletonTier(small_mall)
        graph = DoorsGraph.from_space(small_mall)
        from repro.geometry.rect import Box3
        q = small_mall.random_point(seed=1)
        for seed in range(2, 8):
            p = small_mall.random_point(seed=seed)
            if p.floor == q.floor:
                continue
            part = small_mall.locate(p)
            box = Box3.from_rect(part.bounds, p.floor, small_mall.floor_height)
            bound = min_distance_to_box(sk, q, box, p.floor, p.floor)
            indoor = graph.indoor_distance(q, p)
            assert bound <= indoor + 1e-6

    def test_rebuild_on_topology_change(self, two_floor_space):
        sk = SkeletonTier(two_floor_space)
        assert sk.num_entrances == 2
        two_floor_space.remove_partition("stair")
        sk.ensure_fresh()
        assert sk.num_entrances == 0
