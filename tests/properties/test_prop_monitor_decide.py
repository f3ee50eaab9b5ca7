"""The monitor's array decision changes who decides a pair, never what
is decided.

``QueryMonitor._undecided`` lists, per stacked standing query, only
the moved objects whose Eq. 7 envelope does not place them beyond the
query's influence radius, plus the ones the query holds; every other
pair is counted as skipped without a call.  The reference is the same
monitor with that method replaced by "every position, every query" —
each maintainer then walks the whole block, as before the decision
moved.  Over randomized scenarios with all five spec kinds both runs
must emit the same deltas after every mutation, end on the same
results and agree on every ``MonitorStats`` field.
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import build_world
from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    RangeSpec,
)
from repro.baselines import NaiveEvaluator
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    MovementStream,
    ObjectMove,
    ObjectPopulation,
    UncertainObject,
)
from repro.queries import QueryMonitor


def _everything(self, bounds, moved):
    """The reference decision: nothing is decided by the monitor."""
    return [list(range(len(moved)))] * len(bounds.stack)


def _specs(space, pop, rng):
    """Two of each point kind and an occupancy watch on a populated
    partition; radii and ``k`` small enough that most pairs are far."""
    q = iter([space.random_point(rng=rng) for _ in range(8)])
    r = iter([rng.uniform(10.0, 40.0) for _ in range(6)])
    located = pop.grid.locate(next(iter(pop)).region.center)
    return [
        RangeSpec(next(q), next(r)),
        RangeSpec(next(q), next(r)),
        KNNSpec(next(q), rng.randint(1, 3)),
        KNNSpec(next(q), rng.randint(4, 8)),
        ProbRangeSpec(next(q), next(r), rng.uniform(0.2, 0.8)),
        ProbRangeSpec(next(q), next(r), rng.uniform(0.2, 0.8)),
        CountSpec(next(q), next(r), rng.randint(1, 3)),
        CountSpec(next(q), next(r), rng.randint(1, 3)),
        OccupancySpec(located.partition_id, 1),
    ]


def _run(seed):
    """One scenario: every mutation's deltas, the final results and
    the final counters."""
    space, gen, pop, index = build_world(seed, n_objects=40)
    rng = random.Random(seed ^ 0xDEC1DE)
    monitor = QueryMonitor(index)
    specs = _specs(space, pop, rng)
    qids = [monitor.register(spec) for spec in specs]
    # One ikNNQ goes on as a restored engine would hold it — the
    # degenerate band, no margin — so evictions refill, mid-block too.
    state = monitor.snapshot_query(qids[3])
    monitor.deregister(qids[3])
    monitor.restore_query(specs[3], qids[3], state)
    history = [monitor.drain_pending_deltas().deltas]
    stream = MovementStream(space, pop, gen, seed=seed + 1)
    fresh = 0
    for batch in stream.batches(6, 8):
        history.append(monitor.apply_moves(batch).deltas)
        roll = rng.random()
        if roll < 0.35 and len(pop) > 20:
            victim = rng.choice(sorted(pop.ids()))
            history.append(monitor.apply_delete(victim).deltas)
        elif roll < 0.6:
            fresh += 1
            obj = gen.generate_one()
            obj.object_id = f"fresh{fresh}"
            history.append(monitor.apply_insert(obj).deltas)
    results = {qid: monitor.result_distances(qid) for qid in qids}
    return history, results, asdict(monitor.stats)


class TestDecisionEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_same_deltas_results_and_counters(self, seed):
        got = _run(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(QueryMonitor, "_undecided", _everything)
            want = _run(seed)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]
        stats = got[2]
        # The scenario is one where the decision matters: pairs were
        # skipped, refined, and the partition still holds.
        assert stats["pairs_skipped"] > 0 and stats["pairs_refined"] > 0
        assert stats["pairs_evaluated"] == (
            stats["pairs_skipped"]
            + stats["pairs_refined"]
            + stats["pairs_recomputed"]
        )


def _point_move(object_id, x, y):
    p = Point(x, y, 0)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


class TestRefillReopensTheBlock:
    """The directed ikNNQ case.  The monitor lists positions against
    the band as the block finds it; a refill mid-block widens the band,
    and a later outsider it had not listed must still be decided."""

    Q = Point(5.0, 5.0, 0)

    def _monitor(self, crowded_index):
        """``KNNSpec(Q, 2)`` on the degenerate band a restore leaves:
        ``buffer = result = {near, mid}``, ``rho = 3.0`` — one eviction
        away from a refill."""
        monitor = QueryMonitor(crowded_index)
        monitor.restore_query(
            KNNSpec(self.Q, 2), "knn", {"near": 1.0, "mid": 3.0}
        )
        sq = monitor._queries["knn"]
        assert sq.rho == 3.0 and set(sq.buffer) == {"near", "mid"}
        return monitor, sq

    @pytest.fixture
    def twin_index(self, five_rooms, crowded_index):
        """A second index over the same space and an equal population,
        for the reference run."""
        pop = ObjectPopulation(five_rooms)
        for obj in crowded_index.population:
            pop.insert(
                UncertainObject(obj.object_id, obj.region, obj.instances)
            )
        return CompositeIndex.build(five_rooms, pop)

    def _absorb(self, index, moves, decide=QueryMonitor._undecided):
        """Apply ``moves`` under the decision ``decide``; the monitor,
        its maintainer, what each call listed, and the deltas."""
        monitor, sq = self._monitor(index)
        listed = []

        def spy(self, bounds, moved):
            listed.append(decide(self, bounds, moved))
            return listed[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(QueryMonitor, "_undecided", spy)
            deltas = monitor.apply_moves(moves).deltas
        return monitor, sq, listed, deltas

    def test_outsider_after_the_refill_is_decided(
        self, crowded_index, twin_index, five_rooms
    ):
        # ``near`` leaves the band (an eviction below k: refill); ``b3``
        # at 3.7 m lies beyond rho = 3.0 and was not listed, but the
        # refilled band reaches 4.6 m and beyond.
        moves = [_point_move("near", 25.0, 8.0), _point_move("b3", 5.0, 1.3)]
        monitor, sq, listed, deltas = self._absorb(crowded_index, moves)
        assert listed == [[[0]]]
        stats = monitor.stats
        assert stats.full_recomputes == stats.pairs_recomputed == 1
        # b3 was walked after the refill: in the new band, so refined —
        # and no longer counted as the skip the monitor had booked.
        assert (stats.pairs_refined, stats.pairs_skipped) == (1, 0)
        assert stats.pairs_evaluated == stats.kernel_pairs == 2
        assert stats.kernel_pruned == 0
        assert sq.rho > 3.0 and sq.buffer["b3"] == pytest.approx(3.7)
        oracle = NaiveEvaluator(five_rooms, crowded_index.population)
        assert monitor.result_ids("knn") == {
            oid for oid, _ in oracle.knn_query(self.Q, 2)
        }
        # Everyone outside the band is at least rho away.
        for oid, d in oracle.all_distances(self.Q).items():
            if oid in sq.buffer:
                assert sq.buffer[oid] == pytest.approx(d)
            else:
                assert d >= sq.rho
        # The reference walk agrees, counter for counter.
        reference, ref_sq, ref_listed, ref_deltas = self._absorb(
            twin_index, moves, _everything
        )
        assert ref_listed == [[[0, 1]]]
        assert asdict(reference.stats) == asdict(stats)
        assert ref_deltas == deltas
        assert (ref_sq.buffer, ref_sq.rho) == (sq.buffer, sq.rho)

    def test_outsider_before_the_refill_stays_skipped(self, crowded_index):
        moves = [_point_move("b3", 5.0, 1.3), _point_move("near", 25.0, 8.0)]
        monitor, sq, listed, _ = self._absorb(crowded_index, moves)
        assert listed == [[[1]]]
        stats = monitor.stats
        assert stats.full_recomputes == 1
        assert (stats.pairs_refined, stats.pairs_skipped) == (0, 1)
        # The refill read the index, which already held b3's move.
        assert sq.buffer["b3"] == pytest.approx(3.7)
