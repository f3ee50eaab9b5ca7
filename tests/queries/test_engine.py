"""Tests for the shared query-engine machinery (phases + Refiner)."""

import math

import numpy as np
import pytest

from repro.distances import DistanceInterval
from repro.errors import QueryError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectGenerator, UncertainObject
from repro.queries import QueryStats
from repro.queries.engine import (
    Refiner,
    filtering_phase,
    locate_source,
    pruning_phase,
    search_phase,
)
from repro.space.events import CloseDoor


@pytest.fixture(scope="module")
def setup(small_mall):
    gen = ObjectGenerator(small_mall, radius=4.0, n_instances=10, seed=141)
    pop = gen.generate(40)
    index = CompositeIndex.build(small_mall, pop)
    return index


class TestLocateSource:
    def test_inside(self, setup, small_mall):
        q = small_mall.random_point(seed=1)
        pid = locate_source(setup, q)
        assert small_mall.partition(pid).contains_point(q)

    def test_outside_raises(self, setup):
        with pytest.raises(QueryError):
            locate_source(setup, Point(-1e6, 0, 0))


class TestPhases:
    def test_filtering_counts(self, setup, small_mall):
        q = small_mall.random_point(seed=2)
        filtered, elapsed = filtering_phase(setup, q, 40.0, True)
        assert elapsed >= 0
        assert len(filtered.objects) <= len(setup.population)
        assert filtered.units_checked >= 1

    def test_search_phase_includes_source(self, setup, small_mall):
        q = small_mall.random_point(seed=3)
        source = locate_source(setup, q)
        stats = QueryStats()
        dd = search_phase(setup, q, source, stats)
        assert dd.source_partition == source
        assert dd.doors_settled >= 1
        assert stats.doors_settled == dd.doors_settled
        # One unrestricted search: every door the mall can reach from
        # the source's exits is settled, not only those near q.
        for door in small_mall.exit_doors(source):
            assert math.isfinite(dd.distance_to(door.door_id))
        assert all(
            math.isfinite(dd.distance_to(d)) for d in small_mall.doors
        )

    def test_search_phase_takes_a_precomputed_search(self, setup, small_mall):
        q = small_mall.random_point(seed=3)
        source = locate_source(setup, q)
        cached = setup.doors_graph.dijkstra_from_point(q, source)
        stats = QueryStats()
        assert search_phase(setup, q, source, stats, cached) is cached
        assert stats.t_subgraph == 0.0  # no search ran
        assert stats.doors_settled == cached.doors_settled

    def test_pruning_intervals_valid(self, setup, small_mall):
        q = small_mall.random_point(seed=4)
        source = locate_source(setup, q)
        filtered, _ = filtering_phase(setup, q, 50.0, True)
        dd = setup.doors_graph.dijkstra_from_point(q, source)
        bounds = pruning_phase(setup, filtered.objects, dd)
        assert len(bounds.lo) == len(bounds.hi) == len(filtered.objects) > 0
        for j in range(len(filtered.objects)):
            iv = DistanceInterval(*bounds.pair(j))
            assert iv.lower <= iv.upper + 1e-9
            assert math.isfinite(iv.lower)  # every door is reached
            # The envelope encloses the exact interval.
            assert bounds.lo[j] <= iv.lower
            assert iv.upper <= bounds.hi[j] + 1e-9

    def test_pruning_no_candidates(self, setup, small_mall):
        q = small_mall.random_point(seed=4)
        dd = setup.doors_graph.dijkstra_from_point(q)
        bounds = pruning_phase(setup, [], dd)
        assert len(bounds.lo) == len(bounds.hi) == 0


class TestRefiner:
    def test_exact_matches_direct_computation(self, setup, small_mall):
        from repro.reference import expected_indoor_distance
        q = small_mall.random_point(seed=5)
        source = locate_source(setup, q)
        dd = setup.doors_graph.dijkstra_from_point(q, source)
        refiner = Refiner(setup, dd)
        for obj in list(setup.population)[:10]:
            expected = expected_indoor_distance(
                q, obj, dd, setup.space, setup.population.grid
            ).value
            assert refiner.exact(obj) == pytest.approx(expected)

    def test_exact_many_matches_exact(self, setup, small_mall):
        q = small_mall.random_point(seed=6)
        dd = setup.doors_graph.dijkstra_from_point(q)
        refiner = Refiner(setup, dd)
        objects = list(setup.population)
        assert refiner.exact_many(objects) == [
            refiner.exact(obj) for obj in objects
        ]

    def test_unreached_object_stays_inf(self, five_rooms):
        """An object behind a closed door is infinitely far against the
        full search, on every refinement: there is no other search to
        escape to."""
        index = CompositeIndex.build(five_rooms)
        behind = UncertainObject(
            "behind",
            Circle(Point(25.0, 5.0, 0), 2.0),
            InstanceSet.uniform(np.array([[24.0, 5.0], [26.0, 4.0]]), 0),
        )
        near = UncertainObject(
            "near",
            Circle(Point(15.0, 5.0, 0), 2.0),
            InstanceSet.uniform(np.array([[14.0, 5.0], [16.0, 4.0]]), 0),
        )
        index.insert_object(behind)
        index.insert_object(near)
        index.apply_event(CloseDoor("d3"))  # r3's only door
        q = Point(5.0, 5.0, 0)  # r1
        refiner = Refiner(index, index.doors_graph.dijkstra_from_point(q))
        assert refiner.exact(behind) == math.inf
        assert refiner.exact(behind) == math.inf  # refined again
        values = refiner.exact_many([behind, near])
        assert values[0] == math.inf and math.isfinite(values[1])
        assert refiner.probabilities([behind, near], 1e6) == [0.0, 1.0]
