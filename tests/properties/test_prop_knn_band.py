"""A standing ikNNQ's ranked band, kept in step with its buffer.

``KNNMaintainer.ranked`` is the buffer as ``(distance, id)`` pairs in
ikNNQ's order, edited by one bisect at each write to the buffer;
``_publish`` trims it by slicing and rebuilds ``result`` only when an
edit landed among the first ``k``.  After every batch, delete,
restore and refill — a refill in the middle of a block included — the
ranked list must be ``sorted(zip(buffer.values(), buffer))``, the
result its first ``k`` entries, and the result the oracle's.
"""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from monitor_world import build_world

from repro.api.specs import KNNSpec
from repro.objects import MovementStream, ObjectMove
from repro.queries import QueryMonitor
from repro.reference import NaiveEvaluator


def assert_band_ranked(sq):
    assert sq.ranked == sorted(zip(sq.buffer.values(), sq.buffer))
    assert sq.result == {oid: d for d, oid in sq.ranked[: sq.k]}


def assert_result_is_the_oracles(sq, space, pop):
    exact = NaiveEvaluator(space, pop).all_distances(sq.q)
    ranked = sorted((d, oid) for oid, d in exact.items() if math.isfinite(d))
    kth = ranked[min(sq.k, len(ranked)) - 1][0]
    assert len(sq.result) == min(sq.k, len(ranked))
    for oid, d in sq.result.items():
        assert d == exact[oid] and d <= kth + 1e-9


def _world(seed, k):
    space, gen, pop, index = build_world(seed, 40)
    monitor = QueryMonitor(index)
    q = space.random_point(seed=seed)
    qid = monitor.register(KNNSpec(q, k))
    return space, gen, pop, monitor, qid


class TestRankedBand:
    @given(seed=st.integers(0, 50), k=st.integers(1, 6))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_moves_deletes_and_restore(self, seed, k):
        space, gen, pop, monitor, qid = _world(seed, k)
        sq = monitor._queries[qid]
        assert_band_ranked(sq)
        rng = random.Random(seed)
        stream = MovementStream(space, pop, gen, seed=seed)
        for step in range(30):
            monitor.apply_moves(stream.next_moves(rng.randint(1, 6)))
            assert_band_ranked(sq)
            if step % 10 == 9 and sq.result:
                # A member leaves for good.
                monitor.apply_delete(min(sq.result))
                assert_band_ranked(sq)
        assert_result_is_the_oracles(sq, space, pop)
        # Restore: the degenerate band, sorted once (whatever order the
        # captured mapping lists its members in).
        state = dict(reversed(monitor.snapshot_query(qid).items()))
        other = QueryMonitor(monitor.index)
        other.restore_query(monitor.query_spec(qid), qid, state)
        restored = other._queries[qid]
        assert_band_ranked(restored)
        assert restored.result == sq.result
        for _ in range(10):
            other.apply_moves(stream.next_moves(3))
            assert_band_ranked(restored)
        assert_result_is_the_oracles(restored, space, pop)

    def test_a_refill_in_the_middle_of_a_block(self):
        """Every buffered object moves to where the farthest objects
        stand, ahead of other movers in the same batch: the band drains
        below ``k`` mid-block, refills, and the rest of the block is
        walked against the new band."""
        space, gen, pop, monitor, qid = _world(3, 2)
        sq = monitor._queries[qid]
        stats = monitor.stats
        exact = NaiveEvaluator(space, pop).all_distances(sq.q)
        far = sorted(
            (oid for oid, d in exact.items() if math.isfinite(d)),
            key=exact.get,
        )[-4:]
        buffered = sorted(sq.buffer)
        assert len(buffered) > sq.k and not set(buffered) & set(far)
        others = sorted(set(pop.ids()) - set(buffered) - set(far))[:4]
        moves = [
            ObjectMove(oid, pop.get(there).region, pop.get(there).instances)
            for oid, there in zip(buffered, far * len(buffered))
        ] + [
            ObjectMove(oid, pop.get(oid).region, pop.get(oid).instances)
            for oid in others
        ]
        before = stats.full_recomputes
        monitor.apply_moves(moves)
        assert stats.full_recomputes == before + 1
        assert_band_ranked(sq)
        assert_result_is_the_oracles(sq, space, pop)
