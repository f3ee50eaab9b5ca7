"""Property tests for the distance machinery: every bound must sandwich
the exact expected indoor distance, and the skeleton distance must
lower-bound the indoor distance (Lemma 6) — on randomized objects and
query points in a real multi-floor mall."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import euclidean_lower_bound, probabilistic_bounds
from repro.index import SkeletonTier
from repro.objects import ObjectGenerator
from repro.reference import (
    expected_indoor_distance,
    markov_lower_bound,
    object_bounds,
    subregion_stats,
    subregions,
    topological_bounds,
    weighted_topological_bounds,
)
from repro.reference.tree import min_distance_to_point_set, skeleton_distance
from repro.space import DoorsGraph
from repro.space.mall import build_mall


@pytest.fixture(scope="module")
def world():
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=3, floor_size=120.0,
        hallway_width=4.0, stair_size=10.0, seed=5,
    )
    graph = DoorsGraph.from_space(space)
    skeleton = SkeletonTier(space)
    gen = ObjectGenerator(space, radius=6.0, n_instances=10, seed=5)
    objects = [gen.generate_one() for _ in range(40)]
    return space, graph, skeleton, gen, objects


class TestBoundsSandwich:
    @given(q_seed=st.integers(0, 400), obj_idx=st.integers(0, 39))
    @settings(max_examples=60, deadline=None)
    def test_all_bounds_sandwich_exact(self, world, q_seed, obj_idx):
        space, graph, _, gen, objects = world
        q = space.random_point(seed=q_seed)
        obj = objects[obj_idx]
        dd = graph.dijkstra_from_point(q)
        exact = expected_indoor_distance(q, obj, dd, space, gen.grid).value
        if not math.isfinite(exact):
            return
        stats = [
            subregion_stats(q, s, dd, space)
            for s in subregions(obj, space, gen.grid)
        ]
        assert euclidean_lower_bound(q, obj, space.floor_height) <= exact + 1e-6
        for bound_fn in (
            topological_bounds,
            weighted_topological_bounds,
            probabilistic_bounds,
        ):
            iv = bound_fn(stats)
            assert iv.lower - 1e-6 <= exact <= iv.upper + 1e-6, bound_fn
        assert markov_lower_bound(stats) <= exact + 1e-6
        iv = object_bounds(q, obj, dd, space, gen.grid)
        assert iv.lower - 1e-6 <= exact <= iv.upper + 1e-6

    @given(q_seed=st.integers(0, 400), obj_idx=st.integers(0, 39))
    @settings(max_examples=40, deadline=None)
    def test_probabilistic_at_least_as_tight(self, world, q_seed, obj_idx):
        space, graph, _, gen, objects = world
        q = space.random_point(seed=q_seed)
        obj = objects[obj_idx]
        dd = graph.dijkstra_from_point(q)
        stats = [
            subregion_stats(q, s, dd, space)
            for s in subregions(obj, space, gen.grid)
        ]
        plain = topological_bounds(stats)
        prob = probabilistic_bounds(stats)
        assert prob.lower >= plain.lower - 1e-9
        assert prob.upper <= plain.upper + 1e-9


class TestLemma6:
    @given(a=st.integers(0, 300), b=st.integers(301, 600))
    @settings(max_examples=40, deadline=None)
    def test_skeleton_lower_bounds_indoor(self, world, a, b):
        space, graph, skeleton, _, _ = world
        q = space.random_point(seed=a)
        p = space.random_point(seed=b)
        indoor = graph.indoor_distance(q, p)
        assert skeleton_distance(skeleton, q, p) <= indoor + 1e-6

    @given(a=st.integers(0, 300), obj_idx=st.integers(0, 39))
    @settings(max_examples=40, deadline=None)
    def test_object_skeleton_bound(self, world, a, obj_idx):
        """|q,O|_K^min (instance version) lower-bounds the exact
        expected distance."""
        space, graph, skeleton, gen, objects = world
        q = space.random_point(seed=a)
        obj = objects[obj_idx]
        dd = graph.dijkstra_from_point(q)
        exact = expected_indoor_distance(q, obj, dd, space, gen.grid).value
        bound = min_distance_to_point_set(skeleton,
            q, obj.instances, obj.floor
        )
        if math.isfinite(exact):
            assert bound <= exact + 1e-6


class TestUnreachedFloor:
    @given(
        q_seed=st.integers(0, 200),
        obj_idx=st.integers(0, 39),
        door_idx=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
        floor=st.floats(10.0, 120.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_floor_replaces_only_unreached(
        self, world, q_seed, obj_idx, door_idx, floor
    ):
        """Closed doors leave doors unreached: ``unreached_floor`` sets
        exactly those subregions' ``tmin`` and nothing else, and such a
        subregion makes the exact distance infinite."""
        space, graph, _, gen, objects = world
        doors = sorted(space.doors)
        closed = {doors[i % len(doors)] for i in door_idx}
        q = space.random_point(seed=q_seed)
        obj = objects[obj_idx]
        try:
            for door_id in closed:
                space.door(door_id).is_open = False
            space.topology_version += 1
            dd = graph.dijkstra_from_point(q)
            subs = subregions(obj, space, gen.grid)
            exact = expected_indoor_distance(q, obj, dd, space, gen.grid)
            for sub in subs:
                bare = subregion_stats(q, sub, dd, space)
                floored = subregion_stats(
                    q, sub, dd, space, unreached_floor=floor
                )
                assert floored.tmax == bare.tmax
                if math.isfinite(bare.tmin):
                    assert floored.tmin == bare.tmin
                else:
                    assert floored.tmin == floor
                    assert bare.tmax == math.inf
                    assert exact.value == math.inf
        finally:
            for door_id in closed:
                space.door(door_id).is_open = True
            space.topology_version += 1
