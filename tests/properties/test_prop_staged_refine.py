"""Exact refinement of the block a write just staged.

``columns.block(moved)`` straight after ``update_objects`` is built
from the write's staging and carries what the stage computed: the
batch's instances in row order and each one's distance to each entry
door of its row's partition (``SubregionRows.geometry``).  Exact
refinement over that block's pairs reads them instead of gathering the
instances and computing the distances again.  The values must not
move: refining any pairs of the staged block equals, float for float,
the same pairs refined from the block gathered from the table for the
same objects, and the scalar ``repro.reference.expected`` —
distances, and probabilities with a radius per pair, pairs named twice
included; rows in a query's own partition and rows in a partition no
door enters; with a door closed, so that some doors are unreachable;
and for a block refined after its objects moved again.  What the stage
computed for the block never enters the table's queue of writes.
"""

import math
import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import build_world
from repro.distances.batch import QueryStack, block_expected_distances
from repro.geometry import Circle, Point, Rect
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectMove
from repro.reference.expected import (
    expected_indoor_distance,
    qualifying_probability,
)
from repro.reference.pack import subregion_rows
from repro.space.builder import SpaceBuilder
from repro.space.events import CloseDoor


def _refine(block, stack, pairs, fh, r=None):
    return block_expected_distances(
        stack, block.rows, block.obj_offsets, pairs, fh, r
    )


def _references(index, points, searches, objects, pairs, radii):
    """The scalar distances and probabilities of ``pairs``."""
    space, grid = index.space, index.population.grid
    distances = [
        expected_indoor_distance(
            points[i], objects[j], searches[i], space, grid
        ).value
        for i, j in pairs
    ]
    probabilities = [
        qualifying_probability(
            points[i], objects[j], searches[i], space, r, grid
        )
        for (i, j), r in zip(pairs, radii)
    ]
    return distances, probabilities


def _assert_refines_as_references(index, block, points, pairs, radii):
    """``block`` (carrying its stage's geometry) refines ``pairs`` to
    the scalar references' floats; returns its values."""
    assert block.rows.geometry is not None
    searches = [index.doors_graph.dijkstra_from_point(q) for q in points]
    stack = QueryStack(block.layout, searches, [None] * len(searches))
    fh = index.space.floor_height
    got = (
        _refine(block, stack, pairs, fh),
        _refine(block, stack, pairs, fh, radii),
    )
    want = _references(index, points, searches, block.objects, pairs, radii)
    assert got == want
    # The same pairs over the scalar split's rows, which carry nothing.
    rows, offsets = subregion_rows(
        block.objects, index.space, index.population.grid, block.layout
    )
    assert rows.geometry is None
    assert got == (
        block_expected_distances(stack, rows, offsets, pairs, fh),
        block_expected_distances(stack, rows, offsets, pairs, fh, radii),
    )
    return stack, got


def _moves(gen, pop, rng, n):
    """``n`` distinct objects of ``pop`` moved to fresh locations."""
    moves = []
    for oid in rng.sample(sorted(o.object_id for o in pop), n):
        fresh = gen.generate_one()
        moves.append(ObjectMove(oid, fresh.region, fresh.instances))
    return moves


def _points(space, moved, rng):
    """Query points: the region centre of some moved objects (so that
    rows lie in a query's own partition) and random points."""
    centres = [
        Point(o.region.center.x, o.region.center.y, o.floor)
        for o in moved[:2]
    ]
    return centres + [space.random_point(rng=rng) for _ in range(2)]


@st.composite
def _pairs(draw, n_queries, n_objects):
    """Pairs, some named twice, and one radius per pair."""
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_queries - 1), st.integers(0, n_objects - 1)
            ),
            min_size=1,
            max_size=12,
        )
    )
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    radii = draw(
        st.lists(
            st.sampled_from([2.0, 8.0, 20.0, 60.0]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return pairs, radii


class TestStagedBlockRefinesAsTheGather:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 6),
        close=st.booleans(),
        data=st.data(),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drawn_batches(self, seed, n, close, data):
        space, gen, pop, index = build_world(seed, n_objects=16)
        rng = random.Random(seed)
        # Objects centred on doors: most straddle two partitions.
        for door_id in rng.sample(sorted(space.doors), 4):
            mid = space.doors[door_id].midpoint
            index.insert_object(
                gen.generate_one(center=Point(mid.x, mid.y, mid.floor))
            )
        if close:
            # Rooms behind the closed door are reached through it only:
            # their doors are unreachable from the other side.
            index.apply_event(CloseDoor(rng.choice(sorted(space.doors))))
        index.columns.layout()  # the table is built: writes are queued
        moved = index.update_objects(_moves(gen, pop, rng, n))
        # What the stage computed for the block is never queued.
        assert all(s.carry is None for s, _ in index.columns._queued)
        staged = index.columns.block(moved)
        points = _points(space, moved, rng)
        pairs, radii = data.draw(_pairs(len(points), len(moved)))
        stack, got = _assert_refines_as_references(
            index, staged, points, pairs, radii
        )
        gathered = index.columns._gathered_block(moved)
        assert gathered.rows.geometry is None
        fh = space.floor_height
        assert got == (
            _refine(gathered, stack, pairs, fh),
            _refine(gathered, stack, pairs, fh, radii),
        )

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5), data=st.data())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_objects_moved_again_after_staging(self, seed, n, data):
        """Two batches of the same objects: the first batch's block,
        refined after the second write, still refines its own objects,
        and the second batch's block refines the moved ones."""
        space, gen, pop, index = build_world(seed, n_objects=16)
        rng = random.Random(seed)
        index.columns.layout()
        first = index.update_objects(_moves(gen, pop, rng, n))
        first_block = index.columns.block(first)
        again = [
            ObjectMove(o.object_id, f.region, f.instances)
            for o, f in zip(first, (gen.generate_one() for _ in first))
        ]
        second = index.update_objects(again)
        second_block = index.columns.block(second)
        for block in (first_block, second_block):
            points = _points(space, block.objects, rng)
            pairs, radii = data.draw(_pairs(len(points), len(block)))
            _assert_refines_as_references(
                index, block, points, pairs, radii
            )
        # The second write's block carries its own stage's work.
        assert second_block.rows.geometry is not first_block.rows.geometry


class TestDoorlessAndOwnPartitionRows:
    def test_rows_no_door_enters_and_the_query_partition(self):
        """``r2`` can be left but never entered: its rows own no door
        entry, so only a query inside it reaches them (by the direct
        path); from elsewhere they are unreachable (``inf``)."""
        b = SpaceBuilder()
        b.add_hallway("h", Rect(0, 10, 20, 14))
        b.add_room("r1", Rect(0, 0, 10, 10))
        b.add_room("r2", Rect(10, 0, 20, 10))
        b.connect("r1", "h")
        b.one_way("r2", "r1")
        space = b.build(validate=False)
        assert space.entry_doors("r2") == []
        index = CompositeIndex.build(space)
        for oid, x in (("inside", 15.0), ("across", 10.0), ("out", 5.0)):
            index.insert_object(
                _object(oid, [[x - 2, 5.0], [x + 2, 4.0], [x, 12.0]])
            )
        index.columns.layout()
        moved = index.update_objects(
            [
                _move("inside", [[14.0, 3.0], [16.0, 6.0], [18.0, 2.0]]),
                _move("across", [[8.0, 5.0], [12.0, 5.0], [9.0, 11.0]]),
                _move("out", [[3.0, 3.0], [5.0, 12.0]]),
            ]
        )
        block = index.columns.block(moved)
        assert 0 in block.row_n.tolist()  # a row no door enters
        points = [Point(15.0, 5.0, 0), Point(5.0, 5.0, 0), Point(10, 12, 0)]
        pairs = [(i, j) for i in range(3) for j in range(3)] + [(0, 0)]
        radii = [1.5, 3.0, 50.0, 7.0, 2.0, 4.0, 9.0, 6.0, 0.5, 3.5]
        _, (distances, _) = _assert_refines_as_references(
            index, block, points, pairs, radii
        )
        inside = dict(zip(pairs, distances))
        assert math.isfinite(inside[0, 0])  # by the direct path alone
        assert inside[1, 0] == math.inf == inside[2, 0]


def _object(oid, xy):
    from repro.objects import UncertainObject

    xy = np.array(xy, dtype=np.float64)
    cx, cy = xy.mean(axis=0)
    return UncertainObject(
        oid, Circle(Point(cx, cy, 0), 4.0), InstanceSet.uniform(xy, 0)
    )


def _move(oid, xy):
    obj = _object(oid, xy)
    return ObjectMove(oid, obj.region, obj.instances)
