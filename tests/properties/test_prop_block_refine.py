"""Properties of the block exact refinement
(:func:`repro.distances.batch.block_expected_distances`).

* A pair's value is a function of the pair: identical alone, in any
  block containing it, in any pair order, with one radius for every
  pair or one per pair — and ``==`` the scalar reference.
* The monitor's one refinement pass per batch changes what a
  refinement costs, never a decision: a monitor whose
  ``BlockBounds.refine`` does nothing (every value then computed on
  demand, as a block of one) reaches the same results, guard bands and
  work counters, batch for batch — also when a guard-band refill lands
  in the middle of a block and moves ``rho`` under the distances
  already refined — and both equal from-scratch execution.
"""

import random
from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from monitor_world import (
    assert_equivalent,
    assert_prob_equivalent,
    build_world,
    register_random_prob_queries,
    register_random_queries,
)
from repro.distances.batch import (
    BlockBounds,
    QueryStack,
    block_expected_distances,
)
from repro.geometry import Point
from repro.objects import ObjectMove
from repro.queries import QueryMonitor
from repro.reference.expected import (
    expected_indoor_distance,
    qualifying_probability,
)
from repro.reference.pack import subregion_rows
from repro.space.events import CloseDoor


def _insert_straddlers(space, gen, index, rng, n):
    """Objects centred on door midpoints: mostly multi-partition."""
    for door_id in rng.sample(sorted(space.doors), n):
        mid = space.doors[door_id].midpoint
        index.insert_object(
            gen.generate_one(center=Point(mid.x, mid.y, mid.floor))
        )


class TestBlockComposition:
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_value_is_a_function_of_the_pair(self, seed, data):
        space, gen, pop, index = build_world(seed, n_objects=16)
        rng = random.Random(seed)
        _insert_straddlers(space, gen, index, rng, 6)
        grid, fh = pop.grid, space.floor_height
        objects = list(pop)
        points = [space.random_point(rng=rng) for _ in range(3)]
        # Closed doors: some doors unreached, some objects infinite.
        for door_id in rng.sample(sorted(space.doors), 3):
            index.apply_event(CloseDoor(door_id))
        searches = [
            index.doors_graph.dijkstra_from_point(p) for p in points
        ]
        stack = QueryStack(index.columns.layout(), searches, [None] * 3)
        subs, offsets = subregion_rows(objects, space, grid, stack.layout)
        every = [(i, j) for i in range(3) for j in range(len(objects))]
        r = data.draw(st.sampled_from([5.0, 20.0, 60.0]))
        alone = {
            pair: (
                block_expected_distances(stack, subs, offsets, [pair], fh),
                block_expected_distances(stack, subs, offsets, [pair], fh, r),
            )
            for pair in every
        }
        for (i, j), (value, mass) in alone.items():
            dd, obj = searches[i], objects[j]
            assert value == [
                expected_indoor_distance(dd.source, obj, dd, space, grid).value
            ]
            assert mass == [
                qualifying_probability(dd.source, obj, dd, space, r, grid)
            ]
        pairs = data.draw(
            st.lists(st.sampled_from(every), min_size=1, max_size=80)
        )
        assert block_expected_distances(stack, subs, offsets, pairs, fh) == [
            alone[p][0][0] for p in pairs
        ]
        assert block_expected_distances(
            stack, subs, offsets, pairs, fh, r
        ) == [alone[p][1][0] for p in pairs]
        # One radius per pair: pair for pair what a one-radius call of
        # the same pairs gives.
        radii = data.draw(
            st.lists(
                st.sampled_from([5.0, 20.0, 60.0]),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        uniform = {
            radius: block_expected_distances(
                stack, subs, offsets, pairs, fh, radius
            )
            for radius in set(radii)
        }
        assert block_expected_distances(
            stack, subs, offsets, pairs, fh, radii
        ) == [uniform[radius][k] for k, radius in enumerate(radii)]


def _drive(seed, batch_refining):
    """A stream whose every batch opens with the nearest member of a
    standing ikNNQ — put on the degenerate band (``m = 0``) first, so
    one departure drains it — leaving for the far end of the venue:
    the refill happens on the block's first object, under the feet of
    the already refined rest.  Returns the per-batch trace."""
    space, gen, pop, index = build_world(seed, n_objects=36)
    monitor = QueryMonitor(index)
    rng = random.Random(seed)
    irqs, knns = register_random_queries(monitor, space, rng)
    probs = register_random_prob_queries(monitor, space, rng)
    qid, q, _k = knns[0]
    fh = space.floor_height
    trace = []
    patch = mock.patch.object(
        BlockBounds, "refine", lambda self, pairs, r=None: None
    )
    for _ in range(4):
        sq = monitor._queries[qid]
        sq.restore(sq.snapshot())
        victim = min(sq.result, key=lambda oid: (sq.result[oid], oid))
        far = max(
            (space.random_point(rng=rng) for _ in range(8)),
            key=lambda p: p.distance(q, fh),
        )
        others = sorted(set(pop.ids()) - {victim})
        movers = [victim] + rng.sample(others, 7)
        centers = [far] + [
            # Half of the rest converge on the query, half wander.
            q if rng.random() < 0.5 else space.random_point(rng=rng)
            for _ in movers[1:]
        ]
        moves = []
        for object_id, center in zip(movers, centers):
            at = gen.generate_one(center=center)
            moves.append(ObjectMove(object_id, at.region, at.instances))
        if batch_refining:
            monitor.apply_moves(moves)
        else:
            with patch:
                monitor.apply_moves(moves)
        assert_equivalent(monitor, space, pop, index, irqs, knns)
        assert_prob_equivalent(monitor, space, pop, probs)
        bands = [monitor._queries[knn[0]] for knn in knns]
        trace.append(
            (
                {i: monitor.result_distances(i) for i in monitor.query_ids()},
                [(dict(band.buffer), band.rho) for band in bands],
                vars(monitor.stats).copy(),
            )
        )
    return trace


class TestBatchRefinementNeverChangesADecision:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_refill_mid_block(self, seed):
        trace = _drive(seed, batch_refining=True)
        # (A venue too small for the victim to get out of the band, or
        # a band with fewer than k reachable objects, refills nothing.)
        assume(trace[-1][2]["full_recomputes"] >= 2)
        assert trace == _drive(seed, batch_refining=False)
