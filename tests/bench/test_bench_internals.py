"""Unit tests for the benchmark harness internals (workloads, runner,
reporting) — these must be trustworthy for the numbers in
benchmarks/README.md to mean anything."""

import json

import pytest

from repro.bench.reporting import format_series
from repro.bench.runner import ExperimentResult, run_queries
from repro.bench.workloads import (
    PAPER,
    PROFILES,
    SMALL,
    ScaleProfile,
    WorkloadFactory,
)
from repro.errors import ReproError


class TestProfiles:
    def test_paper_profile_matches_section_va(self):
        assert PAPER.objects_grid == (10_000, 20_000, 30_000)
        assert PAPER.default_objects == 20_000
        assert PAPER.floors_grid == (10, 20, 30)
        assert PAPER.radii_grid == (5.0, 10.0, 15.0)
        assert PAPER.ranges_grid == (50.0, 100.0, 150.0)
        assert PAPER.k_grid == (50, 100, 150)
        assert PAPER.n_instances == 100
        assert PAPER.n_queries == 50
        assert PAPER.fanout == 20
        assert PAPER.floor_size == 600.0

    def test_profiles_by_scale_name(self):
        """``--scale`` picks from these, smallest first."""
        assert list(PROFILES) == ["quick", "small", "medium", "paper"]
        assert PROFILES["small"] is SMALL and PROFILES["paper"] is PAPER
        assert WorkloadFactory().profile is SMALL


@pytest.fixture(scope="module")
def tiny_factory():
    profile = ScaleProfile(
        name="tiny",
        floors_grid=(1, 2), default_floors=1,
        objects_grid=(20, 40), default_objects=20,
        radii_grid=(2.0,), default_radius=2.0,
        ranges_grid=(20.0,), default_range=20.0,
        k_grid=(3,), default_k=3,
        n_instances=5, n_queries=2,
        bands=2, rooms_per_band_side=2,
        floor_size=80.0, hallway_width=4.0, stair_size=10.0,
    )
    return WorkloadFactory(profile)


class TestFactory:
    def test_caching(self, tiny_factory):
        assert tiny_factory.space() is tiny_factory.space()
        assert tiny_factory.population() is tiny_factory.population()
        assert tiny_factory.index() is tiny_factory.index()

    def test_population_size(self, tiny_factory):
        assert len(tiny_factory.population(n_objects=40)) == 40

    def test_query_points_inside(self, tiny_factory):
        space = tiny_factory.space()
        for q in tiny_factory.query_points():
            assert space.locate(q) is not None

    def test_index_layers(self, tiny_factory):
        index = tiny_factory.index()
        assert index.validate() == []


class TestRunner:
    def test_run_irq(self, tiny_factory):
        m = run_queries(
            tiny_factory.index(), tiny_factory.query_points(), "irq", 20.0
        )
        assert m.mean_ms >= 0
        assert m.stats.total_objects == 2 * 20  # summed over 2 queries

    def test_run_iknn(self, tiny_factory):
        m = run_queries(
            tiny_factory.index(), tiny_factory.query_points(), "iknn", 3
        )
        assert m.stats.result_size == 2 * 3

    def test_unknown_kind(self, tiny_factory):
        with pytest.raises(ValueError):
            run_queries(tiny_factory.index(), [], "bogus", 1)


class TestReporting:
    def test_format_series(self):
        table = format_series(
            "T", "x", [1, 2], {"a": [1.0, 2.0], "b": [0.5, 0.25]}, unit="ms"
        )
        assert "== T ==" in table
        assert "a (ms)" in table and "b (ms)" in table
        lines = table.splitlines()
        assert len(lines) == 5  # title, header, rule, 2 rows

    def test_experiment_result_to_table(self):
        r = ExperimentResult("Panel", "n", [10, 20], unit="ms")
        r.add("s1", 1.0)
        r.add("s1", 2.0)
        assert "Panel" in r.to_table()
        assert "s1" in r.to_table()

    def test_json_round_trip_keeps_series_order(self):
        """A cell's ``result.json`` sorts its keys; the table's column
        order must survive it."""
        r = ExperimentResult("Panel", "n", [10, 20], unit="%")
        for name in ("zeta", "alpha"):
            r.add(name, 1.0)
            r.add(name, 2.5)
        stored = json.loads(json.dumps(r.to_json(), sort_keys=True))
        back = ExperimentResult.from_json(stored)
        assert back == r
        assert back.to_table() == r.to_table()


class TestStreamScenarios:
    def test_standing_queries_take_profile_defaults(self, tiny_factory):
        scenario = tiny_factory.stream_scenario(n_irq=1, n_iknn=1, n_iprq=1)
        spec = scenario.monitor.query_spec
        p = tiny_factory.profile
        assert spec(scenario.irq_ids[0]).r == p.default_range
        assert spec(scenario.knn_ids[0]).k == p.default_k
        iprq = spec(scenario.iprq_ids[0])
        assert (iprq.r, iprq.p_min) == (p.default_range, 0.5)
        assert len(scenario.index.population) == p.default_objects

    def test_zero_objects_builds_an_empty_population(self, tiny_factory):
        """Regression: an explicit ``n_objects=0`` (a grid cell's
        ``objects: 0``) must not fall back to the profile default; the
        stream then refuses to run instead of measuring 20 objects."""
        scenario = tiny_factory.stream_scenario(
            n_irq=1, n_iknn=0, n_objects=0
        )
        assert len(scenario.index.population) == 0
        with pytest.raises(ReproError, match="empty population"):
            scenario.stream.next_moves(5)
