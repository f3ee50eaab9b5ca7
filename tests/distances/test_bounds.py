"""Tests for the pruning bounds (Lemmas 1-5): every bound must sandwich
the exact expected indoor distance."""

import math

import numpy as np
import pytest

from repro.distances import (
    DistanceInterval,
    euclidean_lower_bound,
    probabilistic_bounds,
)
from repro.errors import QueryError
from repro.geometry import Circle, Point
from repro.objects import InstanceSet, ObjectGenerator, UncertainObject
from repro.reference import (
    expected_indoor_distance,
    markov_lower_bound,
    object_bounds,
    subregion_stats,
    subregions,
    topological_bounds,
    topological_looser_upper_bound,
    weighted_topological_bounds,
)
from repro.space import DoorsGraph


def obj_from(points, floor=0, oid="o", probs=None):
    xy = np.array(points, dtype=float)
    cx, cy = xy.mean(axis=0)
    radius = float(np.hypot(xy[:, 0] - cx, xy[:, 1] - cy).max()) + 1.0
    inst = (
        InstanceSet(xy, floor, np.array(probs))
        if probs is not None
        else InstanceSet.uniform(xy, floor)
    )
    return UncertainObject(oid, Circle(Point(cx, cy, floor), radius), inst)


class TestDistanceInterval:
    def test_inverted_rejected(self):
        with pytest.raises(QueryError):
            DistanceInterval(5.0, 1.0)

    def test_predicates(self):
        iv = DistanceInterval(3.0, 7.0)
        assert iv.entirely_within(7.0)
        assert not iv.entirely_within(6.9)
        assert iv.entirely_beyond(2.9)
        assert not iv.entirely_beyond(3.0)

    def test_intersect(self):
        a = DistanceInterval(1.0, 5.0)
        b = DistanceInterval(3.0, 9.0)
        assert a.intersect(b) == DistanceInterval(3.0, 5.0)


class TestEuclideanLowerBound:
    def test_is_lower_bound(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 5], [25, 5]])
        dd = graph.dijkstra_from_point(q)
        exact = expected_indoor_distance(q, obj, dd, five_rooms).value
        assert euclidean_lower_bound(q, obj) <= exact + 1e-9


class TestTopologicalBounds:
    def test_sandwich_single_partition(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 3], [17, 7], [13, 9]])
        dd = graph.dijkstra_from_point(q)
        exact = expected_indoor_distance(q, obj, dd, five_rooms).value
        stats = [
            subregion_stats(q, s, dd, five_rooms)
            for s in subregions(obj, five_rooms)
        ]
        iv = topological_bounds(stats)
        assert iv.lower - 1e-9 <= exact <= iv.upper + 1e-9

    def test_sandwich_multi_partition(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)
        obj = obj_from([[8, 5], [12, 5], [16, 12]])
        dd = graph.dijkstra_from_point(q)
        exact = expected_indoor_distance(q, obj, dd, five_rooms).value
        stats = [
            subregion_stats(q, s, dd, five_rooms)
            for s in subregions(obj, five_rooms)
        ]
        for iv in (
            topological_bounds(stats),
            weighted_topological_bounds(stats),
            probabilistic_bounds(stats),
        ):
            assert iv.lower - 1e-9 <= exact <= iv.upper + 1e-9

    def test_weighted_tighter_than_plain(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)
        obj = obj_from([[5, 5], [15, 12]])  # far + near subregions
        dd = graph.dijkstra_from_point(q)
        stats = [
            subregion_stats(q, s, dd, five_rooms)
            for s in subregions(obj, five_rooms)
        ]
        plain = topological_bounds(stats)
        weighted = weighted_topological_bounds(stats)
        assert weighted.lower >= plain.lower - 1e-9
        assert weighted.upper <= plain.upper + 1e-9

    def test_empty_stats_rejected(self):
        with pytest.raises(QueryError):
            topological_bounds([])
        with pytest.raises(QueryError):
            probabilistic_bounds([])
        with pytest.raises(QueryError):
            markov_lower_bound([])


class TestProbabilisticBounds:
    def test_tighter_or_equal_than_topological(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)
        obj = obj_from(
            [[8, 5], [9, 4], [12, 5], [5, 16]],
            probs=[0.4, 0.3, 0.2, 0.1],
        )
        dd = graph.dijkstra_from_point(q)
        stats = [
            subregion_stats(q, s, dd, five_rooms)
            for s in subregions(obj, five_rooms)
        ]
        plain = topological_bounds(stats)
        prob = probabilistic_bounds(stats)
        assert prob.lower >= plain.lower - 1e-9
        assert prob.upper <= plain.upper + 1e-9

    def test_markov_is_valid_lower_bound(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)
        obj = obj_from([[8, 5], [12, 5], [5, 20]])
        dd = graph.dijkstra_from_point(q)
        exact = expected_indoor_distance(q, obj, dd, five_rooms).value
        stats = [
            subregion_stats(q, s, dd, five_rooms)
            for s in subregions(obj, five_rooms)
        ]
        assert markov_lower_bound(stats) <= exact + 1e-9

    def test_degenerates_to_topological_single(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 4], [16, 6]])
        dd = graph.dijkstra_from_point(q)
        stats = [
            subregion_stats(q, s, dd, five_rooms)
            for s in subregions(obj, five_rooms)
        ]
        assert probabilistic_bounds(stats) == topological_bounds(stats)


class TestObjectBounds:
    def test_dispatch_matches_table_iii(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)
        dd = graph.dijkstra_from_point(q)
        single = obj_from([[5, 5], [6, 6]], oid="s")
        multi = obj_from([[8, 5], [12, 5]], oid="m")
        for obj in (single, multi):
            exact = expected_indoor_distance(q, obj, dd, five_rooms).value
            iv = object_bounds(q, obj, dd, five_rooms)
            assert iv.lower - 1e-9 <= exact <= iv.upper + 1e-9

    def test_randomised_sandwich_on_mall(self, small_mall):
        graph = DoorsGraph.from_space(small_mall)
        gen = ObjectGenerator(small_mall, radius=5.0, n_instances=12, seed=13)
        q = small_mall.random_point(seed=99)
        dd = graph.dijkstra_from_point(q)
        for _ in range(10):
            obj = gen.generate_one()
            exact = expected_indoor_distance(q, obj, dd, small_mall, gen.grid)
            iv = object_bounds(q, obj, dd, small_mall, gen.grid)
            if math.isinf(exact.value):
                continue
            assert iv.lower - 1e-6 <= exact.value <= iv.upper + 1e-6


class TestTLU:
    def test_tlu_is_upper_bound(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 4], [17, 7]])
        dd = graph.dijkstra_from_point(q)
        exact = expected_indoor_distance(q, obj, dd, five_rooms).value
        # Build a deliberately suboptimal known path to r2: through d12.
        d12 = five_rooms.door("d12")
        length = q.distance(d12.midpoint) + 5.0  # padded: still a bound
        tlu = topological_looser_upper_bound(
            q, obj, {"r2": (d12.midpoint, length)}, five_rooms
        )
        assert tlu >= exact - 1e-9

    def test_tlu_looser_than_topological_ub(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 4], [17, 7]])
        dd = graph.dijkstra_from_point(q)
        stats = [
            subregion_stats(q, s, dd, five_rooms)
            for s in subregions(obj, five_rooms)
        ]
        tight = topological_bounds(stats).upper
        d12 = five_rooms.door("d12")
        tlu = topological_looser_upper_bound(
            q, obj,
            {"r2": (d12.midpoint, q.distance(d12.midpoint) + 10.0)},
            five_rooms,
        )
        assert tlu >= tight - 1e-9

    def test_missing_partition_gives_infinity(self, five_rooms):
        q = Point(5, 5, 0)
        obj = obj_from([[15, 4]])
        assert topological_looser_upper_bound(q, obj, {}, five_rooms) == math.inf
