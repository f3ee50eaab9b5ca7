"""Tests for the shared query-engine machinery (phases + Refiner)."""

import math

import pytest

from repro.errors import QueryError
from repro.geometry import Point
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries.engine import (
    Refiner,
    filtering_phase,
    locate_source,
    pruning_phase,
    subgraph_phase,
)


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

    def test_subgraph_includes_source(self, setup, small_mall):
        q = small_mall.random_point(seed=3)
        source = locate_source(setup, q)
        # Even with an empty candidate set the source's doors are seeded.
        dd, _ = subgraph_phase(setup, q, source, set())
        assert dd.source_partition == source
        assert dd.doors_settled >= 1

    def test_pruning_intervals_valid(self, setup, small_mall):
        q = small_mall.random_point(seed=4)
        source = locate_source(setup, q)
        filtered, _ = filtering_phase(setup, q, 50.0, True)
        dd, _ = subgraph_phase(setup, q, source, filtered.partitions, cutoff=50.0)
        bounds = pruning_phase(
            setup, filtered.objects, dd, search_radius=50.0
        )
        assert len(bounds.lo) == len(bounds.hi) == len(filtered.objects) > 0
        for j in range(len(filtered.objects)):
            iv = bounds.interval(j)
            assert iv.lower <= iv.upper + 1e-9
            assert math.isfinite(iv.lower)  # radius-floored, never inf
            # The envelope encloses the exact interval.
            assert bounds.lo[j] <= iv.lower
            assert iv.upper <= bounds.hi[j] + 1e-9

    def test_pruning_no_candidates(self, setup, small_mall):
        q = small_mall.random_point(seed=4)
        dd, _ = subgraph_phase(setup, q, locate_source(setup, q), set())
        bounds = pruning_phase(setup, [], dd)
        assert len(bounds.lo) == len(bounds.hi) == 0


class TestRefiner:
    def test_exact_matches_direct_computation(self, setup, small_mall):
        from repro.reference import expected_indoor_distance
        q = small_mall.random_point(seed=5)
        source = locate_source(setup, q)
        dd = setup.doors_graph.dijkstra_from_point(q, source)
        refiner = Refiner(setup, q, dd)
        for obj in list(setup.population)[:10]:
            expected = expected_indoor_distance(
                q, obj, dd, setup.space, setup.population.grid
            ).value
            assert refiner.exact(obj) == pytest.approx(expected)
        assert refiner.fallbacks == 0  # full dd never needs the escape hatch

    def test_fallback_on_restricted_search(self, setup, small_mall):
        """An object outside the restricted subgraph triggers exactly one
        full-Dijkstra fallback and still gets its true distance."""
        q = small_mall.random_point(seed=6)
        source = locate_source(setup, q)
        # Restrict to only the source partition: almost nothing reachable.
        dd, _ = subgraph_phase(setup, q, source, {source}, cutoff=5.0)
        far_obj = max(
            setup.population,
            key=lambda o: o.region.center.distance(q, small_mall.floor_height),
        )
        refiner = Refiner(setup, q, dd)
        d = refiner.exact(far_obj)
        assert math.isfinite(d)
        assert refiner.fallbacks == 1
        full_dd = setup.doors_graph.dijkstra_from_point(q, source)
        ref = Refiner(setup, q, full_dd)
        assert d == pytest.approx(ref.exact(far_obj))

    def test_fallback_reused_across_objects(self, setup, small_mall):
        q = small_mall.random_point(seed=7)
        source = locate_source(setup, q)
        dd, _ = subgraph_phase(setup, q, source, {source}, cutoff=5.0)
        refiner = Refiner(setup, q, dd)
        fallback_values = [
            refiner.exact(obj) for obj in list(setup.population)[:5]
        ]
        # The full search is built once and shared.
        assert refiner._full_stack is not None
        assert all(math.isfinite(v) for v in fallback_values)
