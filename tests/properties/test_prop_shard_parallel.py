"""Properties of the parallel sharded monitor.

Over fully randomized scenarios (floorplan, standing queries, movement
stream, interleaved inserts and deletes), a ``ShardedMonitor`` running
its routed shard maintenance on a thread pool (``workers > 1``) must be
indistinguishable from the serial plumbing it replaces:

* **Equivalence** — its results match a single ``QueryMonitor`` driven
  with the same mutation sequence over a twin world, after every batch;
* **Replayability under concurrency** — folding every delta it emits
  (merged across concurrently-ingesting shards) from the empty state
  reproduces each query's live result exactly, i.e. the deterministic
  shard-order merge loses and reorders nothing;
* **Bit-identity** — a serial ``ShardedMonitor`` twin emits the exact
  same delta sequence, batch for batch.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from monitor_world import (
    assert_equivalent,
    assert_prob_equivalent,
    build_world,
    register_random_prob_queries,
    register_random_queries,
)
from repro.objects import MovementStream
from repro.queries import QueryMonitor, ShardedMonitor


class _Replayer:
    """Folds every delta a monitor emits into per-query states."""

    def __init__(self, monitor):
        self.monitor = monitor
        self.states: dict[str, dict] = {}
        self.absorb(monitor.drain_pending_deltas())  # register deltas

    def absorb(self, batch):
        for delta in batch:
            state = self.states.setdefault(delta.query_id, {})
            delta.apply_to(state)
        return batch

    def assert_matches(self):
        for qid in self.monitor.query_ids():
            assert self.states.get(qid, {}) == \
                self.monitor.result_distances(qid)


@given(seed=st.integers(0, 10_000))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_concurrent_ingest_replays_and_matches_serial(seed):
    # Triplet worlds: same seed, independent indexes/populations.
    space, gen, pop, index = build_world(seed, n_objects=25)
    _space2, _gen2, _pop2, index2 = build_world(seed, n_objects=25)
    _space3, _gen3, _pop3, index3 = build_world(seed, n_objects=25)
    monitor = QueryMonitor(index)
    serial = ShardedMonitor(index2, n_shards=4)
    parallel = ShardedMonitor(index3, n_shards=4, workers=3)
    rng = random.Random(seed ^ 0x9A7C)
    irqs, knns = register_random_queries(monitor, space, rng)
    probs = register_random_prob_queries(monitor, space, rng)
    for qid, q, r in irqs:
        serial.register(RangeSpec(q, r), query_id=qid)
        parallel.register(RangeSpec(q, r), query_id=qid)
    for qid, q, k in knns:
        serial.register(KNNSpec(q, k), query_id=qid)
        parallel.register(KNNSpec(q, k), query_id=qid)
    for qid, q, r, p_min in probs:
        serial.register(ProbRangeSpec(q, r, p_min), query_id=qid)
        parallel.register(ProbRangeSpec(q, r, p_min), query_id=qid)
    replay = _Replayer(parallel)
    serial.drain_pending_deltas()

    # One stream drives all three monitors: moves carry absolute
    # positions, so the twin worlds stay in lockstep.  Inserted objects
    # are generated once and shared (they are never mutated).
    stream = MovementStream(space, pop, gen, seed=seed + 1)
    try:
        for batch in stream.batches(3, 8):
            monitor.apply_moves(batch)
            want = serial.apply_moves(batch)
            got = replay.absorb(parallel.apply_moves(batch))
            assert got.deltas == want.deltas
            action = rng.random()
            if action < 0.3:
                obj = gen.generate_one()
                monitor.apply_insert(obj)
                want = serial.apply_insert(obj)
                got = replay.absorb(parallel.apply_insert(obj))
                assert got.deltas == want.deltas
            elif action < 0.5 and len(pop) > 15:
                victim = rng.choice(sorted(pop.ids()))
                monitor.apply_delete(victim)
                want = serial.apply_delete(victim)
                got = replay.absorb(parallel.apply_delete(victim))
                assert got.deltas == want.deltas
            for qid in [t[0] for t in irqs + knns + probs]:
                assert parallel.result_distances(qid) == \
                    monitor.result_distances(qid)
            replay.assert_matches()
            assert_equivalent(monitor, space, pop, index, irqs, knns)
            assert_prob_equivalent(monitor, space, pop, probs)
        assert parallel.routing == serial.routing
        assert parallel.stats.pairs_evaluated <= \
            monitor.stats.pairs_evaluated
        # The reach-table cache must have found reuse (iRQ/iPRQ radii
        # never move; only ikNNQ rho changes force rebuilds).
        assert parallel.routing.reach_cache_hits > 0
    finally:
        parallel.close()

