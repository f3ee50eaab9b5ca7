"""Property: continuous monitoring is equivalent to from-scratch
execution.

After every batch of random position updates, each standing query's
maintained result must equal a from-scratch evaluation over the mutated
population — iRQ and iPRQ by exact set equality, ikNNQ tie-aware (same
size, every member within the oracle's k-th distance, exact distances
agree).
Scenarios are fully randomized: the floorplan itself, the standing
query parameters, the movement stream, and (in the heavy tier-2
variant) interleaved topology events and inserts/deletes.  The shared
scenario machinery lives in ``monitor_world.py``.

A second property holds the standing ikNNQ's guard band itself to its
invariant (see :class:`repro.queries.maintainers.KNNMaintainer`) under
moves, inserts, deletes and door closures, with ``k`` below, around
and above the population size."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import (
    assert_equivalent,
    assert_prob_equivalent,
    build_world,
    register_random_prob_queries,
    register_random_queries,
)
from repro.api.specs import KNNSpec
from repro.baselines import NaiveEvaluator
from repro.objects import MovementStream
from repro.queries import QueryMonitor
from repro.space.events import CloseDoor, OpenDoor


class TestMonitorEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=6,  # >= 5 randomized floorplans/scenarios
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_streamed_updates_match_from_scratch(self, seed):
        space, gen, pop, index = build_world(seed, n_objects=30)
        monitor = QueryMonitor(index)
        rng = random.Random(seed)
        irqs, knns = register_random_queries(monitor, space, rng)
        probs = register_random_prob_queries(monitor, space, rng)
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        for batch in stream.batches(3, 8):
            monitor.apply_moves(batch)
            assert_equivalent(monitor, space, pop, index, irqs, knns)
            assert_prob_equivalent(monitor, space, pop, probs)
        # The equivalence must not have been bought by recomputing
        # everything: bounds decided at least one pair.
        assert monitor.stats.recompute_ratio < 1.0
        assert monitor.stats.pairs_skipped > 0


def _assert_band(monitor, space, pop, index, knns, folded):
    """One consistent state of every standing ikNNQ: (a) the result is
    the oracle's top-k, (b) the guard-band invariant, (c) the folded
    deltas are the live result."""
    assert_equivalent(monitor, space, pop, index, [], knns)
    oracle = NaiveEvaluator(space, pop)
    for qid, q, _k in knns:
        got = monitor.result_distances(qid)
        sq = monitor._queries[qid]
        exact = oracle.all_distances(q)
        assert set(sq.buffer) <= set(exact)  # live objects only
        assert len(sq.buffer) <= sq.k + 2 * sq.m
        for oid, d in exact.items():
            stored = sq.buffer.get(oid)
            if stored is None:
                assert d >= sq.rho - 1e-6
            else:
                assert stored == pytest.approx(d, abs=1e-6)
                assert stored <= sq.rho
        assert folded.get(qid, {}) == got


def _drive_band_scenario(seed, n_objects, ks):
    """Random moves, inserts, deletes and door closures over standing
    ikNNQs of the given ``ks``, checked after every mutation; returns
    the monitor and its queries."""
    space, gen, pop, index = build_world(seed, n_objects=n_objects)
    monitor = QueryMonitor(index)
    rng = random.Random(seed ^ 0x6BAD)
    knns = [
        (monitor.register(KNNSpec(q, k)), q, k)
        for k, q in [(k, space.random_point(rng=rng)) for k in ks]
    ]
    # The first query starts as a checkpoint restore leaves it — on the
    # degenerate band (buffer = result, rho = the k-th distance) — so
    # the stream also drives it through its first underflow and refill.
    flat = monitor._queries[knns[0][0]]
    flat.restore(flat.snapshot())
    folded: dict[str, dict] = {}

    def absorb(batch):
        for delta in batch:
            delta.apply_to(folded.setdefault(delta.query_id, {}))
        _assert_band(monitor, space, pop, index, knns, folded)

    absorb(monitor.drain_pending_deltas())
    stream = MovementStream(space, pop, gen, seed=seed + 1)
    closed: list[str] = []
    for batch in stream.batches(8, 4):
        absorb(monitor.apply_moves(batch))
        action = rng.random()
        if action < 0.25:
            if closed and rng.random() < 0.5:
                absorb(monitor.apply_event(OpenDoor(closed.pop())))
            else:
                door = rng.choice(sorted(space.doors))
                if space.door(door).is_open:
                    absorb(monitor.apply_event(CloseDoor(door)))
                    closed.append(door)
        elif action < 0.45:
            absorb(monitor.apply_insert(gen.generate_one()))
        elif len(pop) > 6:
            # Deletions dominate: they are what drains a band.
            for victim in rng.sample(sorted(pop.ids()), 2):
                absorb(monitor.apply_delete(victim))
    return monitor, knns


class TestGuardBandInvariant:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_band_holds_under_chaotic_stream(self, seed):
        n = 24
        _drive_band_scenario(seed, n, ks=(3, 3, n // 2, n - 1, n + 4))

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_short_population_reaches_forever_and_never_refills(
        self, seed
    ):
        """More wanted than the building ever holds (closed doors make
        it fewer still): ``rho`` stays infinite, the result shrinks and
        grows with the reachable population, and no update pays a
        refill — a short buffer under an infinite ``rho`` is not an
        underflow."""
        n = 12
        monitor, knns = _drive_band_scenario(seed, n, ks=(n + 10, 2 * n))
        for qid, _q, _k in knns:
            assert monitor._queries[qid].rho == math.inf
        assert monitor.stats.full_recomputes == 0
        assert monitor.stats.pairs_recomputed == 0


@pytest.mark.tier2
class TestMonitorEquivalenceHeavy:
    """The full chaos scenario: movement plus interleaved topology
    events, inserts and deletes, at larger scale."""

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_chaotic_stream_matches_from_scratch(self, seed):
        space, gen, pop, index = build_world(seed, n_objects=60)
        monitor = QueryMonitor(index)
        rng = random.Random(seed ^ 0xBEEF)
        irqs, knns = register_random_queries(monitor, space, rng)
        probs = register_random_prob_queries(monitor, space, rng)
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        closed: list[str] = []
        for i, batch in enumerate(stream.batches(6, 12)):
            monitor.apply_moves(batch)
            action = rng.random()
            if action < 0.3:
                if closed and rng.random() < 0.5:
                    monitor.apply_event(OpenDoor(closed.pop()))
                else:
                    door = rng.choice(sorted(space.doors))
                    if space.door(door).is_open:
                        monitor.apply_event(CloseDoor(door))
                        closed.append(door)
            elif action < 0.5:
                monitor.apply_insert(gen.generate_one())
            elif action < 0.7 and len(pop) > 20:
                monitor.apply_delete(rng.choice(sorted(pop.ids())))
            assert_equivalent(monitor, space, pop, index, irqs, knns)
            assert_prob_equivalent(monitor, space, pop, probs)
        assert monitor.stats.recompute_ratio < 1.0
