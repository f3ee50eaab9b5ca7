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

The same contract binds the ``backend="process"`` engine: shard
maintenance in supervised worker processes, exchanging deltas as wire
records, must replay and match the serial twin batch for batch — even
while a fault injector SIGKILLs a worker between (and mid-) batches,
forcing crash-restarts from the parent-side mirrors.
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
from repro.queries import ProcPoolConfig, QueryMonitor, ShardedMonitor


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


def _decisions(routing):
    """The router counters no influence radius can move: batches seen
    and (batch, shard) decisions taken, visit or skip."""
    return (
        routing.batches_routed,
        routing.shard_visits + routing.shards_skipped,
    )


@given(seed=st.integers(0, 10_000))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_process_backend_replays_and_matches_serial(seed):
    """The process-backed engine under fault injection: every delta
    batch bit-identical to the serial sharded twin, every query result
    identical, while workers are SIGKILLed from the fourth batch on
    (the first three compare every router counter undisturbed)."""
    space, gen, pop, index = build_world(seed, n_objects=25)
    _space2, _gen2, _pop2, index2 = build_world(seed, n_objects=25)
    serial = ShardedMonitor(index2, n_shards=4)
    procs = ShardedMonitor(
        index,
        n_shards=4,
        workers=2,
        backend="process",
        proc_config=ProcPoolConfig(max_restarts=100),
    )
    rng = random.Random(seed ^ 0x9A7C)
    irqs, knns = register_random_queries(serial, space, rng)
    probs = register_random_prob_queries(serial, space, rng)
    for qid, q, r in irqs:
        procs.register(RangeSpec(q, r), query_id=qid)
    for qid, q, k in knns:
        procs.register(KNNSpec(q, k), query_id=qid)
    for qid, q, r, p_min in probs:
        procs.register(ProbRangeSpec(q, r, p_min), query_id=qid)
    replay = _Replayer(procs)
    serial.drain_pending_deltas()
    qids = [t[0] for t in irqs + knns + probs]

    stream = MovementStream(space, pop, gen, seed=seed + 1)
    try:
        for i, batch in enumerate(stream.batches(7, 8)):
            if i >= 3 and i % 2 == 1:
                # Fault injection: SIGKILL one worker; the very next
                # request must detect the death, restart from mirrors
                # and replay, losing and duplicating nothing.
                procs._pool.kill_worker(i % procs._pool.n_workers)
            want = serial.apply_moves(batch)
            got = replay.absorb(procs.apply_moves(batch))
            assert got.deltas == want.deltas
            action = rng.random()
            if action < 0.3:
                obj = gen.generate_one()
                want = serial.apply_insert(obj)
                got = replay.absorb(procs.apply_insert(obj))
                assert got.deltas == want.deltas
            elif action < 0.5 and len(pop) > 15:
                victim = rng.choice(sorted(pop.ids()))
                want = serial.apply_delete(victim)
                got = replay.absorb(procs.apply_delete(victim))
                assert got.deltas == want.deltas
            for qid in qids:
                assert procs.result_distances(qid) == \
                    serial.result_distances(qid)
            replay.assert_matches()
            if procs._pool.restarts == 0:
                # Until the first kill (three batches and their
                # inserts/deletes) both engines hold the same guard
                # bands: every router counter agrees.
                assert procs.routing == serial.routing
            else:
                # A restarted worker resumes each ikNNQ on the
                # degenerate band its snapshot describes (rho = the
                # k-th distance, narrower than the twin's) and widens
                # it on the first underflow (then possibly wider), so
                # the rho-dependent counters part in either direction;
                # what was decided, per batch and shard, does not.
                assert _decisions(procs.routing) == \
                    _decisions(serial.routing)
        assert procs._pool.restarts > 0
    finally:
        procs.close()
        serial.close()
