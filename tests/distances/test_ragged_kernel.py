"""The bounds kernel's ragged operand, held to the per-pair reference.

``block_object_bounds`` reduces a block's door entries as the columnar
table stores them — flat ``ent_door`` / ``ent_min`` / ``ent_max``,
``row_n`` entries per subregion row — with one ``w[:, ent_door]``
gather and one ``np.minimum.reduceat`` per extremum, patches every
(query, row in its own partition) pair in one pass, and walks the query
axis in slices sized by ``BOUNDS_BUDGET``.  ``tests/distances/
test_batch.py`` holds the kernel to the scalar path on ordinary worlds;
this file holds the shapes the ragged form could get wrong: rows that
own no entry (first, last, in the middle, all of them), own-partition
rows of multi-partition objects, a sliced stack.
Every comparison is ``==`` on floats.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import assert_same_block, build_world
from repro.distances import batch
from repro.distances.batch import QueryStack, block_object_bounds
from repro.geometry import Point
from repro.queries import QuerySession
from repro.reference.bounds import object_bounds, subregion_stats
from repro.reference.pack import pack_block
from repro.reference.subregions import subregions
from repro.space.events import CloseDoor
from repro.space.partition import PartitionKind

FLOORS = (None, 26.0)  # a standing iRQ / ikNNQ row, an iPRQ row of r = 25


def _subregions(index, obj):
    return subregions(obj, index.space, index.population.grid)


def _seal_rooms(index, n):
    """Close the only door of ``n`` rooms that hold an object; returns
    the objects lying wholly inside them — their rows own no entry."""
    space = index.space
    sealed = []
    for obj in list(index.population):
        if len(sealed) == n:
            break
        subs = _subregions(index, obj)
        room = subs[0].partition_id
        if (
            len(subs) == 1
            and space.partition(room).kind is PartitionKind.ROOM
            and len(space.doors_of(room)) == 1
            and space.entry_doors(room)
        ):
            (door,) = space.doors_of(room)
            index.apply_event(CloseDoor(door.door_id))
            sealed.append(obj)
    assert len(sealed) == n
    return [
        o
        for o in index.population
        if all(
            not space.entry_doors(s.partition_id)
            for s in _subregions(index, o)
        )
    ]


def _straddlers(index, gen, rng, n):
    """``n`` inserted objects overlapping two partitions each."""
    space = index.space
    doors = sorted(space.doors)
    added = []
    for _ in range(300):
        if len(added) == n:
            break
        mid = space.doors[rng.choice(doors)].midpoint
        obj = gen.generate_one(center=Point(mid.x, mid.y, mid.floor))
        if len(_subregions(index, obj)) > 1:
            index.insert_object(obj)
            added.append(obj)
    assert len(added) == n, "no door-straddling object could be placed"
    return added


def _stack(session, points):
    """Every point stacked once per entry of :data:`FLOORS`."""
    searches = [session.door_distances(q) for q in points for _ in FLOORS]
    return QueryStack(
        session.index.columns.layout(),
        searches,
        list(FLOORS) * len(points),
    )


def _assert_matches_reference(index, stack, block):
    """Each ``tmin`` / ``tmax`` against ``subregion_stats``, the
    envelope against their min, each interval against
    ``object_bounds``."""
    space, grid = index.space, index.population.grid
    bounds = block_object_bounds(stack, block, space.floor_height)
    splits = [subregions(obj, space, grid) for obj in block.objects]
    for i, dd in enumerate(stack.searches):
        q = dd.source
        floor = FLOORS[i % len(FLOORS)]
        row = bounds.row(i)
        for j, obj in enumerate(block.objects):
            subs = splits[j]
            rows = range(bounds.offsets[j], bounds.offsets[j + 1])
            assert len(rows) == len(subs)
            refs = [
                subregion_stats(q, s, dd, space, unreached_floor=floor)
                for s in subs
            ]
            assert bounds.tmin[i, rows].tolist() == [s.tmin for s in refs]
            assert bounds.tmax[i, rows].tolist() == [s.tmax for s in refs]
            assert bounds.lo[i, j] == min(s.tmin for s in refs)
            assert row.interval(j) == object_bounds(
                q, obj, dd, space, grid, unreached_floor=floor
            )
    return bounds


def _world(seed, n_objects=24, sealed=1, straddlers=3):
    space, gen, pop, index = build_world(seed, n_objects)
    rng = random.Random(seed)
    wide = _straddlers(index, gen, rng, straddlers)
    shut = _seal_rooms(index, sealed)
    return index, QuerySession(index), rng, wide, shut


class TestRaggedKernelMatchesReference:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_worlds_with_doorless_rows(self, seed):
        """Random worlds with a sealed room among the objects, asked
        from random points, from inside the sealed room (its row is
        reached by the direct path alone) and from both partitions of a
        multi-partition object; packed and gathered operands alike, and
        in an order that puts a door-less row first, last and inside."""
        index, session, rng, wide, shut = _world(seed)
        space = index.space
        points = [space.random_point(rng=rng) for _ in range(2)]
        points.append(shut[0].region.center)
        points += [
            Point(float(xy[0]), float(xy[1]), wide[0].floor)
            for xy in (
                s.parent.xy[s.pieces == s.piece][0]
                for s in _subregions(index, wide[0])
            )
        ]
        stack = _stack(session, points)
        others = [o for o in index.population if o not in shut]
        rng.shuffle(others)
        half = len(others) // 2
        layout = index.columns.layout()
        for objects in (
            shut + others,
            others + shut,
            others[:half] + shut + others[half:],
        ):
            packed = pack_block(objects, space, index.population.grid, layout)
            assert 0 in packed.row_n.tolist()
            gathered = index.columns.block(objects)
            assert_same_block(gathered, packed)
            _assert_matches_reference(index, stack, gathered)

    def test_own_partition_rows_of_a_multi_partition_object(self):
        """A query inside one half of a straddling object takes the
        direct path to that half only; two queries, one in each half,
        patch different rows of the same object in the same call."""
        index, session, rng, wide, _ = _world(5, sealed=0)
        space = index.space
        obj = wide[0]
        subs = _subregions(index, obj)
        assert len(subs) == 2
        points = [
            Point(float(x), float(y), obj.floor)
            for x, y in (s.parent.xy[s.pieces == s.piece][0] for s in subs)
        ]
        assert [
            index.population.grid.locate(p).partition_id for p in points
        ] == [s.partition_id for s in subs]
        stack = _stack(session, points)
        block = index.columns.block([obj, *wide[1:]])
        bounds = _assert_matches_reference(index, stack, block)
        for i, dd in enumerate(stack.searches):
            own = block.sub_part[:2] == dd.source_row
            assert own.tolist() == [i < len(FLOORS), i >= len(FLOORS)]
            # The instance the query sits on: a direct path of length 0.
            assert bounds.tmin[i, :2][own].tolist() == [0.0]

    def test_block_whose_every_row_is_doorless(self):
        """No entry at all: every extremum is ``+inf`` (the iPRQ row's
        ``tmin`` its floor) except where a query sits in the sealed
        room itself."""
        index, session, rng, _, shut = _world(8, sealed=2, straddlers=0)
        assert len(shut) >= 2
        space = index.space
        inside = shut[0].region.center
        outside = next(
            p
            for p in (space.random_point(rng=rng) for _ in range(100))
            if space.entry_doors(index.population.grid.locate(p).partition_id)
        )
        stack = _stack(session, [outside, inside])
        block = index.columns.block(shut)
        assert block.ent_door.size == 0 and not block.row_n.any()
        bounds = _assert_matches_reference(index, stack, block)
        assert np.isinf(bounds.tmax[:2]).all()
        assert bounds.lo[:2].tolist() == [
            [np.inf] * len(shut),
            [26.0] * len(shut),
        ]
        # From inside the first sealed room its own object is finite.
        assert np.isfinite(bounds.tmax[2:, 0]).all()


class TestQueryAxisBudget:
    """``BOUNDS_BUDGET`` bounds the kernel's temporaries whatever the
    stack's size: Q = 300 against a whole-population block."""

    @pytest.fixture(scope="class")
    def big(self):
        index, session, rng, _, _ = _world(3, n_objects=1500)
        points = [index.space.random_point(rng=rng) for _ in range(15)]
        searches = [session.door_distances(q) for q in points] * 20
        floors = [FLOORS[i % 2] for i in range(len(searches))]
        stack = QueryStack(index.columns.layout(), searches, floors)
        block = index.columns.block(list(index.population))
        return index, stack, block

    @staticmethod
    def _run(index, stack, block):
        """The kernel's result, and the most it had allocated at once
        beyond the arrays it returns."""
        fh = index.space.floor_height
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bounds = block_object_bounds(stack, block, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = bounds.tmin.nbytes + bounds.tmax.nbytes + bounds.lo.nbytes
        return bounds, peak - before - kept

    def test_sliced_call_equals_unsliced_and_respects_the_budget(
        self, big, monkeypatch
    ):
        index, stack, block = big
        assert len(stack) == 300
        operand = len(stack) * block.ent_door.size
        budget = batch.BOUNDS_BUDGET
        assert operand > 4 * budget  # several slices
        sliced, sliced_extra = self._run(index, stack, block)
        monkeypatch.setattr(batch, "BOUNDS_BUDGET", operand)
        whole, whole_extra = self._run(index, stack, block)
        for name in ("tmin", "tmax", "lo"):
            assert np.array_equal(getattr(sliced, name), getattr(whole, name))
        # Two float64 temporaries of a slice are alive at once (the
        # gathered weights and their sum with ``ent_min``); the rest is
        # (Q x rows) masks and the own-partition pass.
        assert sliced_extra <= 3 * 8 * budget
        assert whole_extra > 8 * operand > 3 * 8 * budget

    def test_one_query_wider_than_the_budget_is_one_slice(
        self, big, monkeypatch
    ):
        """The entry axis is the caller's to bound: a budget below one
        query's entries still evaluates, a query at a time."""
        index, stack, block = big
        fh = index.space.floor_height
        want = block_object_bounds(stack, block, fh)
        monkeypatch.setattr(batch, "BOUNDS_BUDGET", 7)
        got = block_object_bounds(stack, block, fh)
        assert np.array_equal(got.tmin, want.tmin)
        assert np.array_equal(got.tmax, want.tmax)
