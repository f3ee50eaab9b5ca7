"""Unit tests for QueryStats and MonitorStats bookkeeping."""

import pytest

from repro.api.specs import KNNSpec, RangeSpec
from repro.geometry import Point
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import MonitorStats, QueryStats, iRQ
from repro.reference import NaiveEvaluator


class TestRatios:
    def test_empty_stats(self):
        s = QueryStats()
        assert s.filtering_ratio == 0.0
        assert s.pruning_ratio == 0.0
        assert s.total_time == 0.0

    def test_filtering_ratio(self):
        s = QueryStats(total_objects=100, candidates_after_filtering=10)
        assert s.filtering_ratio == pytest.approx(0.9)

    def test_pruning_ratio_counts_unrefined(self):
        s = QueryStats(total_objects=100, candidates_after_filtering=10, refined=2)
        assert s.pruning_ratio == pytest.approx(0.98)

    def test_phase_breakdown_keys(self):
        s = QueryStats(t_filtering=1.0, t_subgraph=2.0, t_pruning=3.0,
                       t_refinement=4.0)
        assert s.phase_breakdown() == {
            "filtering": 1.0, "subgraph": 2.0, "pruning": 3.0,
            "refinement": 4.0,
        }
        assert s.total_time == 10.0


class TestMerge:
    def test_merge_sums_counters_and_timings(self):
        a = QueryStats(t_filtering=1.0, total_objects=10, refined=2,
                       result_size=1)
        b = QueryStats(t_filtering=2.0, total_objects=10, refined=3,
                       result_size=4)
        m = a.merge(b)
        assert m.t_filtering == pytest.approx(3.0)
        assert m.total_objects == 20
        assert m.refined == 5
        assert m.result_size == 5

    def test_merge_does_not_mutate_inputs(self):
        a = QueryStats(total_objects=10)
        b = QueryStats(total_objects=5)
        a.merge(b)
        assert a.total_objects == 10 and b.total_objects == 5

    def test_merge_sums_fallback_recomputes(self):
        a = QueryStats(fallback_recomputes=2)
        b = QueryStats(fallback_recomputes=3)
        assert a.merge(b).fallback_recomputes == 5

    def test_merged_ratios_are_workload_level(self):
        a = QueryStats(total_objects=100, candidates_after_filtering=10,
                       refined=5)
        b = QueryStats(total_objects=100, candidates_after_filtering=30,
                       refined=10)
        m = a.merge(b)
        assert m.filtering_ratio == pytest.approx(1 - 40 / 200)
        assert m.pruning_ratio == pytest.approx(1 - 15 / 200)


class TestMonitorStatsUnits:
    """Regression: ``recompute_ratio`` used to divide the query-level
    fallback counter by the pair-level denominator.  The counters are
    now split — pair-level ratios over pairs, query-level rates over
    updates — and the pair counters partition ``pairs_evaluated``."""

    def test_empty_stats_ratios(self):
        s = MonitorStats()
        assert s.recompute_ratio == 0.0
        assert s.skip_ratio == 0.0
        assert s.recomputes_per_update == 0.0

    def test_pair_level_ratios_partition(self):
        s = MonitorStats(
            pairs_evaluated=10, pairs_skipped=6, pairs_refined=3,
            pairs_recomputed=1,
        )
        assert s.skip_ratio == pytest.approx(0.6)
        assert s.recompute_ratio == pytest.approx(0.1)
        assert (
            s.pairs_skipped + s.pairs_refined + s.pairs_recomputed
            == s.pairs_evaluated
        )

    def test_query_level_rate_uses_updates(self):
        s = MonitorStats(updates_seen=20, full_recomputes=5)
        assert s.recomputes_per_update == pytest.approx(0.25)

    def test_monitor_partitions_pairs_on_real_stream(self, two_floor_space):
        """The partition invariant holds on an actual monitored run."""
        from repro.objects import MovementStream
        from repro.queries import QueryMonitor

        gen = ObjectGenerator(
            two_floor_space, radius=2.0, n_instances=6, seed=3
        )
        pop = gen.generate(15)
        index = CompositeIndex.build(two_floor_space, pop)
        monitor = QueryMonitor(index)
        monitor.register(RangeSpec(Point(5.0, 5.0, 0), 12.0))
        monitor.register(KNNSpec(Point(5.0, 5.0, 1), 4))
        stream = MovementStream(two_floor_space, pop, gen, seed=4)
        for batch in stream.batches(4, 6):
            monitor.apply_moves(batch)
        s = monitor.stats
        assert s.pairs_evaluated == (
            s.pairs_skipped + s.pairs_refined + s.pairs_recomputed
        )
        assert s.updates_seen == 24
        assert 0.0 <= s.recompute_ratio <= 1.0


class TestFallbackRecomputes:
    """No refinement escapes to another search: the count stays 0."""

    def test_defaults_to_zero(self):
        assert QueryStats().fallback_recomputes == 0

    def test_ordinary_query_has_no_fallbacks(self, two_floor_space):
        gen = ObjectGenerator(
            two_floor_space, radius=2.0, n_instances=6, seed=3
        )
        index = CompositeIndex.build(two_floor_space, gen.generate(15))
        stats = QueryStats()
        iRQ(Point(5.0, 5.0, 0), 25.0, index, stats=stats)
        assert stats.fallback_recomputes == 0

    def test_far_floor_refined_without_fallback(self, two_floor_space):
        """A floor-1 object, refined against the full search from floor
        0, gets its exact distance from that one search: nothing is
        recomputed and nothing lands in the count."""
        gen = ObjectGenerator(
            two_floor_space, radius=1.5, n_instances=6, seed=3
        )
        pop = gen.generate(5)
        upstairs = gen.generate_one(center=Point(5.0, 5.0, 1))
        pop.insert(upstairs)
        index = CompositeIndex.build(two_floor_space, pop)
        q = Point(5.0, 5.0, 0)
        stats = QueryStats()
        result = iRQ(
            q, 1000.0, index,
            with_pruning=False,  # every candidate into refinement
            precomputed_dd=index.doors_graph.dijkstra_from_point(q),
            stats=stats,
        )
        assert stats.refined == len(pop)
        assert stats.fallback_recomputes == 0
        assert result.distances[upstairs.object_id] == pytest.approx(
            NaiveEvaluator(two_floor_space, pop).all_distances(q)[
                upstairs.object_id
            ]
        )
