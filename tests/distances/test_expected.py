"""Tests for the exact expected indoor distance (Eqs. 2-6).

The key oracle: |q, O|_I computed via the vectorised subregion machinery
must equal the probability-weighted sum of per-instance indoor distances
computed by the reference point-to-point implementation.
"""

import math

import numpy as np
import pytest

from repro.geometry import Circle, Point
from repro.objects import InstanceSet, ObjectGenerator, UncertainObject
from repro.reference import (
    DistanceCase,
    classify_subregion_paths,
    expected_indoor_distance,
    instance_indoor_distances,
    subregions,
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


def reference_expected(graph, q, obj):
    total = 0.0
    for (x, y), p in zip(obj.instances.xy, obj.instances.probs):
        total += graph.indoor_distance(q, Point(x, y, obj.floor)) * p
    return total


class TestAgainstReference:
    def test_same_room(self, five_rooms, q_center):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[2, 2], [8, 8], [5, 1]])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert got.value == pytest.approx(reference_expected(graph, q, obj))

    def test_adjacent_room(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 2], [17, 8], [12, 5]])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert got.value == pytest.approx(reference_expected(graph, q, obj))

    def test_straddling_object(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)  # in r3
        obj = obj_from([[8, 5], [9, 6], [12, 5], [13, 4]])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert got.case is DistanceCase.MULTI_PARTITION
        assert got.value == pytest.approx(reference_expected(graph, q, obj))

    def test_weighted_probs(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 5], [25, 5]], probs=[0.8, 0.2])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert got.value == pytest.approx(reference_expected(graph, q, obj))

    def test_cross_floor(self, two_floor_space):
        graph = DoorsGraph.from_space(two_floor_space)
        q = Point(5, 5, 0)
        obj = obj_from([[3, 3], [7, 7]], floor=1)
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, two_floor_space)
        assert got.value == pytest.approx(reference_expected(graph, q, obj))

    def test_randomised_against_reference(self, small_mall):
        graph = DoorsGraph.from_space(small_mall)
        gen = ObjectGenerator(small_mall, radius=4.0, n_instances=8, seed=31)
        q = small_mall.random_point(seed=77)
        dd = graph.dijkstra_from_point(q)
        for _ in range(6):
            obj = gen.generate_one()
            got = expected_indoor_distance(q, obj, dd, small_mall, gen.grid)
            expected = reference_expected(graph, q, obj)
            assert got.value == pytest.approx(expected, rel=1e-9)

    def test_one_way_door_respected(self, one_way_space):
        graph = DoorsGraph.from_space(one_way_space)
        q = Point(5, 5, 0)  # r1; direct door into r2 is exit-forbidden
        obj = obj_from([[15, 5]])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, one_way_space)
        assert got.value == pytest.approx(reference_expected(graph, q, obj))
        assert got.value > q.distance(Point(15, 5, 0))


class TestCases:
    def test_single_path_case(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)  # r3: only one door, so any r1 object is
        obj = obj_from([[2, 2], [3, 3]])  # reached through a fixed last door
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert got.case is DistanceCase.SINGLE_PARTITION_SINGLE_PATH

    def test_multi_path_case(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(15, 12, 0)  # hallway
        # r1 has two doors (d1 from hallway, d12 from r2).  Instances
        # hugging each door split the Voronoi diagram.
        obj = obj_from([[5, 9.9], [9.9, 5]])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert got.case in (
            DistanceCase.SINGLE_PARTITION_MULTI_PATH,
            DistanceCase.SINGLE_PARTITION_SINGLE_PATH,
        )
        assert got.value == pytest.approx(reference_expected(graph, q, obj))

    def test_direct_path_in_same_partition(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(15, 12, 0)
        obj = obj_from([[14, 11], [16, 13]])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        direct = obj.instances.expected_distance_to(q, five_rooms.floor_height)
        assert got.value == pytest.approx(direct)

    def test_per_subregion_contributions_sum(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(25, 5, 0)
        obj = obj_from([[8, 5], [12, 5]])
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert sum(c for _, c, _ in got.per_subregion) == pytest.approx(got.value)
        assert sum(m for _, _, m in got.per_subregion) == pytest.approx(1.0)

    def test_unreachable_is_infinite(self, five_rooms):
        from repro.space import CloseDoor
        CloseDoor("d3").apply(five_rooms)
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[25, 5]], oid="trapped")  # r3 sealed
        dd = graph.dijkstra_from_point(q)
        got = expected_indoor_distance(q, obj, dd, five_rooms)
        assert math.isinf(got.value)


class TestBisectorClassification:
    def test_bisector_route_is_conservative(self, five_rooms):
        """Bisector-based single-path detection never contradicts the
        exact argmin test (True implies True); with only two doors the
        two tests coincide."""
        graph = DoorsGraph.from_space(five_rooms)
        rng = np.random.default_rng(5)
        q = Point(15, 12, 0)
        dd = graph.dijkstra_from_point(q)
        for _ in range(20):
            pts = rng.uniform([0.5, 0.5], [9.5, 9.5], size=(6, 2))
            obj = obj_from(pts.tolist())
            (sub,) = subregions(obj, five_rooms)
            via_argmin = classify_subregion_paths(q, sub, dd, five_rooms)
            via_bisector = classify_subregion_paths(
                q, sub, dd, five_rooms, use_bisectors=True
            )
            if via_bisector:
                assert via_argmin
            # r1 has exactly two doors: pairwise == exact here.
            assert via_argmin == via_bisector

    def test_instance_distances_monotone_in_probs(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        obj = obj_from([[15, 2], [18, 8]])
        dd = graph.dijkstra_from_point(q)
        (sub,) = subregions(obj, five_rooms)
        dists = instance_indoor_distances(q, sub, dd, five_rooms)
        for (x, y), d in zip(sub.instances.xy, dists):
            ref = graph.indoor_distance(q, Point(x, y, 0))
            assert d == pytest.approx(ref)
