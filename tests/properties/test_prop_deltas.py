"""Properties of the delta serving subsystem.

Over fully randomized scenarios (floorplan, standing queries, movement
stream, interleaved inserts/deletes): folding every emitted
:class:`~repro.queries.deltas.ResultDelta` for a query, starting from
the empty state at registration time, reproduces the monitor's current
result exactly (membership *and* stored distances) after every batch,
while the monitor itself stays equivalent to from-scratch execution.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import (
    assert_equivalent,
    assert_prob_equivalent,
    build_world,
    register_random_prob_queries,
    register_random_queries,
)
from repro.objects import MovementStream
from repro.queries import QueryMonitor, replay_deltas


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

    def assert_matches(self):
        for qid in self.monitor.query_ids():
            assert self.states.get(qid, {}) == \
                self.monitor.result_distances(qid)


class TestDeltaReplay:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_replayed_deltas_reproduce_results(self, seed):
        space, gen, pop, index = build_world(seed, n_objects=25)
        monitor = QueryMonitor(index)
        rng = random.Random(seed ^ 0xD31A)
        irqs, knns = register_random_queries(monitor, space, rng)
        probs = register_random_prob_queries(monitor, space, rng)
        replay = _Replayer(monitor)
        replay.assert_matches()
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        for batch in stream.batches(3, 8):
            replay.absorb(monitor.apply_moves(batch))
            action = rng.random()
            if action < 0.3:
                replay.absorb(monitor.apply_insert(gen.generate_one()))
            elif action < 0.5 and len(pop) > 15:
                replay.absorb(
                    monitor.apply_delete(rng.choice(sorted(pop.ids())))
                )
            replay.assert_matches()
            assert_equivalent(monitor, space, pop, index, irqs, knns)
            assert_prob_equivalent(monitor, space, pop, probs)

    def test_replay_deltas_helper_folds_in_order(self):
        """replay_deltas is the documented one-call fold."""
        from repro.queries import ResultDelta

        deltas = [
            ResultDelta("q", "register", {"a": 1.0, "b": 2.0}),
            ResultDelta("q", "move", {"c": 3.0}, ("a",), {"b": 1.5}),
            ResultDelta("q", "delete", {}, ("c",)),
        ]
        assert replay_deltas(deltas) == {"b": 1.5}
