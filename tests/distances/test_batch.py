"""The stacked bounds kernel (:mod:`repro.distances.batch`) held to
the per-pair reference (:func:`repro.reference.bounds.subregion_stats`
/ :func:`~repro.reference.bounds.object_bounds`,
:func:`repro.reference.bounds.probability_bounds`) function for
function, for every (query, object) pair of a stack.

Every comparison is exact ``==`` on floats, never ``approx``: the
kernel's arithmetic is arranged to repeat the reference's operation
sequence, so any last-digit drift is a bug.
"""

import math
import random
from collections import namedtuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import build_world
from repro.distances.batch import (
    QueryStack,
    block_object_bounds,
    mass_within,
)
from repro.distances.bounds import (
    DistanceInterval,
    SubregionStats,
    probabilistic_bounds,
)
from repro.geometry import Point
from repro.queries import QuerySession
from repro.reference.bounds import (
    object_bounds,
    probability_bounds,
    subregion_stats,
)
from repro.reference.pack import pack_block
from repro.reference.subregions import subregions
from repro.space.events import CloseDoor
from repro.space.partition import PartitionKind

RADII = (8.0, 25.0, 60.0)


def _pack(index, objects):
    return pack_block(
        objects,
        index.space,
        index.population.grid,
        index.columns.layout(),
    )


def _n_subregions(index, obj):
    return len(subregions(obj, index.space, index.population.grid))


def _add_straddlers(index, gen, rng, n=4, floor=None):
    """Insert objects centred on door midpoints (of ``floor``, when
    given) until ``n`` of them overlap two partitions (multi-subregion,
    the Eq. 8 hand-off)."""
    space = index.space
    doors = sorted(
        door_id
        for door_id, door in space.doors.items()
        if floor is None or door.midpoint.floor == floor
    )
    added = []
    for _ in range(200):
        mid = space.doors[rng.choice(doors)].midpoint
        obj = gen.generate_one(center=Point(mid.x, mid.y, mid.floor))
        if _n_subregions(index, obj) > 1:
            index.insert_object(obj)
            added.append(obj)
            if len(added) == n:
                return added
    raise AssertionError("no door-straddling object could be placed")


def _stack(index, searches, floors=None):
    """``searches`` stacked as the monitor and the one-shot prune stack
    them (``floors`` defaulting to none)."""
    return QueryStack(
        index.columns.layout(), searches, floors or [None] * len(searches)
    )


def _assert_stack_matches(index, stack, block):
    """One stacked kernel call == the per-pair reference for every
    (query, object) pair: each row's ``tmin``/``tmax`` against
    ``subregion_stats``, the lazily built interval against
    ``object_bounds``, the envelope against both, and — for a query
    stacked with the iPRQ floor ``r + 1.0`` — the probability pair
    against ``probability_bounds``."""
    space, grid = index.space, index.population.grid
    bounds = block_object_bounds(stack, block, space.floor_height)
    shape = (len(stack), len(block.sub_part))
    assert bounds.tmin.shape == bounds.tmax.shape == shape
    assert bounds.lo.shape == (len(stack), len(block))
    splits = [subregions(obj, space, grid) for obj in block.objects]
    for i, dd in enumerate(stack.searches):
        q = dd.source
        floor = None if stack.floor is None else stack.floor[i, 0]
        if floor == math.inf:
            floor = None
        row = bounds.row(i)
        assert row.dd is dd
        for j, obj in enumerate(block.objects):
            subs = splits[j]
            rows = range(bounds.offsets[j], bounds.offsets[j + 1])
            assert len(subs) == len(rows)
            for a, sub in zip(rows, subs):
                ref = subregion_stats(q, sub, dd, space, unreached_floor=floor)
                assert bounds.tmin[i][a] == ref.tmin
                assert bounds.tmax[i][a] == ref.tmax
            interval = row.interval(j)
            assert interval == object_bounds(
                q, obj, dd, space, grid, unreached_floor=floor
            )
            assert row.lo[j] == bounds.lo[i, j]
            assert row.lo[j] == min(bounds.tmin[i][a] for a in rows)
            assert interval.lower >= row.lo[j]
            if len(subs) == 1:
                assert interval.lower == row.lo[j]
            if floor is not None:
                r = floor - 1.0
                assert row.probability(j, r) == probability_bounds(
                    index, q, obj, dd, r
                )
    return bounds


def _assert_matches_reference(index, session, objects, points):
    """Every query point stacked four times — without a floor (the
    standing iRQ/ikNNQ row) and with the iPRQ floor of each radius —
    against a freshly packed block and against the columnar table's
    gather of the same objects."""
    searches, floors = [], []
    for q in points:
        dd = session.door_distances(q)
        for floor in (None, *(r + 1.0 for r in RADII)):
            searches.append(dd)
            floors.append(floor)
    stack = _stack(index, searches, floors)
    block = _pack(index, objects)
    bounds = _assert_stack_matches(index, stack, block)
    # The columnar table serves the rows pack_block computes.
    fh = index.space.floor_height
    gathered = block_object_bounds(stack, index.columns.block(objects), fh)
    _assert_same_bounds(gathered, bounds)
    return stack, block, bounds


def _assert_same_bounds(got, want):
    for name in ("tmin", "tmax", "lo"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


World = namedtuple("World", "space gen pop index session straddlers rng")


def _world(seed, n_objects=24):
    space, gen, pop, index = build_world(seed, n_objects)
    rng = random.Random(seed)
    straddlers = _add_straddlers(index, gen, rng)
    return World(
        space, gen, pop, index, QuerySession(index), straddlers, rng
    )


def _point_where(space, accept):
    """A deterministic random point satisfying ``accept``."""
    return next(
        p
        for p in (space.random_point(seed=s) for s in range(100))
        if accept(p)
    )


def _rows(block, obj):
    """``obj``'s position in the block and its subregion row span."""
    j = block.objects.index(obj)
    return j, range(block.obj_offsets[j], block.obj_offsets[j + 1])


class TestBlockMatchesReference:
    @given(seed=st.integers(0, 10_000), closures=st.integers(0, 3))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_worlds(self, seed, closures):
        """Single- and multi-subregion objects, open and partly closed
        venues, query points on every kind of partition."""
        w = _world(seed)
        for door_id in w.rng.sample(sorted(w.space.doors), closures):
            w.index.apply_event(CloseDoor(door_id))
        objects = list(w.pop)
        assert {_n_subregions(w.index, o) > 1 for o in objects} == {
            False,
            True,
        }
        points = [w.space.random_point(rng=w.rng) for _ in range(3)]
        # ...plus one inside a straddler's own partitions.
        points.append(w.straddlers[0].region.center)
        _assert_matches_reference(w.index, w.session, objects, points)

    def test_query_point_inside_object_partition(self):
        """The query's own partition takes the direct Euclidean path
        (the ``source_row`` patch) in addition to its entry doors."""
        w = _world(7)
        inside = [next(iter(w.pop)), w.straddlers[0]]
        stack, block, _ = _assert_matches_reference(
            w.index,
            w.session,
            list(w.pop),
            [obj.region.center for obj in inside]
            + [w.space.random_point(rng=w.rng)],
        )
        for obj, dd in zip(inside, stack.searches[:: 1 + len(RADII)]):
            _, rows = _rows(block, obj)
            assert dd.source_row in block.sub_part[rows]

    def test_partition_without_entry_doors(self):
        """Closing a room's only door leaves it no entry door at all:
        an empty door row, an infinite interval, zero probability."""
        w = _world(4)
        space, grid = w.space, w.pop.grid
        obj, room = next(
            (o, subs[0].partition_id)
            for o in w.pop
            for subs in [subregions(o, space, grid)]
            if len(subs) == 1
            and space.partition(subs[0].partition_id).kind
            is PartitionKind.ROOM
        )
        (door,) = space.doors_of(room)
        w.index.apply_event(CloseDoor(door.door_id))
        layout = w.index.columns.layout()
        assert layout.entry_idx[layout.part_row[room]].size == 0
        q = _point_where(
            space, lambda p: grid.locate(p).partition_id != room
        )
        _, block, bounds = _assert_matches_reference(
            w.index, w.session, list(w.pop), [q]
        )
        j, _ = _rows(block, obj)
        inf = float("inf")
        assert bounds.row(0).interval(j) == DistanceInterval(inf, inf)
        # Row 3 carries the iPRQ floor of r = 60: tmin = 61, tmax = inf.
        assert bounds.row(3).lo[j] == 61.0
        assert bounds.row(3).probability(j, 60.0) == (0.0, 0.0)

    def test_unreached_doors_carry_inf_weights(self):
        """Sealing the upper floor's stair exits keeps its doors open
        but unreached from below: ``+inf`` weights, and for the iPRQ
        the ``unreached_floor = r + 1.0`` lower bound."""
        w = _world(1)
        space = w.space
        assert space.num_floors == 2
        for door_id in sorted(space.doors):
            if door_id.startswith("stair_") and door_id.endswith("_e1"):
                w.index.apply_event(CloseDoor(door_id))
        _add_straddlers(w.index, w.gen, w.rng, n=1, floor=1)
        q = _point_where(space, lambda p: p.floor == 0)
        stack, block, bounds = _assert_matches_reference(
            w.index, w.session, list(w.pop), [q]
        )
        bare, floored = bounds.row(0), bounds.row(3)
        for obj in (o for o in w.pop if o.floor == 1):
            j, rows = _rows(block, obj)
            for i in rows:
                doors = block.layout.entry_idx[block.sub_part[i]]
                assert doors.size
                assert np.isinf(stack.w[:, doors]).all()
            assert bare.lo[j] == math.inf
            assert floored.lo[j] == 61.0
            assert floored.probability(j, 60.0) == (0.0, 0.0)


class TestUnreachedFloor:
    """Closed doors leave doors unreached: ``unreached_floor`` replaces
    an infinite ``tmin`` — in the kernel exactly as in
    :func:`repro.reference.bounds.subregion_stats`."""

    @given(seed=st.integers(0, 10_000), r=st.sampled_from(RADII))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_closed_doors_match_reference(self, seed, r):
        """Every object of the venue — behind the closed doors included
        — against the same search, floored and unfloored."""
        w = _world(seed)
        for door_id in w.rng.sample(sorted(w.space.doors), 4):
            w.index.apply_event(CloseDoor(door_id))
        block = w.index.columns.block(list(w.pop))
        searches, floors = [], []
        for q in (
            w.space.random_point(rng=w.rng),
            w.straddlers[0].region.center,
        ):
            dd = w.index.doors_graph.dijkstra_from_point(q)
            assert not np.isfinite(
                dd.w
            ).all(), "search reached every door: nothing is floored"
            searches += [dd, dd]
            floors += [r, None]
        _assert_stack_matches(
            w.index, _stack(w.index, searches, floors), block
        )

    def test_multi_partition_object_straddling_the_radius(self):
        """An object across the wall between two rooms, asked from a
        third room with the farther room's door closed: finite floored
        lower bound, infinite upper bound, identical to the
        reference."""
        w = _world(3)
        space, grid = w.space, w.pop.grid
        rooms = [
            p
            for p in space.partitions.values()
            if p.kind is PartitionKind.ROOM and p.floor == 0
        ]
        a, b = next(
            (a, b)
            for a in rooms
            for b in rooms
            if a.bounds.maxx == b.bounds.minx
            and a.bounds.miny == b.bounds.miny
        )
        obj = w.gen.generate_one(
            center=Point(
                a.bounds.maxx, (a.bounds.miny + a.bounds.maxy) / 2.0, 0
            )
        )
        w.index.insert_object(obj)
        assert [s.partition_id for s in subregions(obj, space, grid)] == [
            a.partition_id,
            b.partition_id,
        ]
        (door_a,) = space.doors_of(a.partition_id)
        (door_b,) = space.doors_of(b.partition_id)
        # Asked from a third room (a hallway point would seed every
        # hallway door at once); the farther door is then closed.
        c = next(c for c in rooms if c not in (a, b))
        q = Point(
            (c.bounds.minx + c.bounds.maxx) / 2.0,
            (c.bounds.miny + c.bounds.maxy) / 2.0,
            0,
        )
        full = w.session.door_distances(q)
        (near, reached), (far, unreached) = sorted(
            (full.distance_to(d.door_id), d.door_id)
            for d in (door_a, door_b)
        )
        assert near < far < float("inf")
        r = (near + far) / 2.0
        w.index.apply_event(CloseDoor(unreached))
        cut = w.index.doors_graph.dijkstra_from_point(q)
        assert math.isfinite(cut.distance_to(reached))
        assert not math.isfinite(cut.distance_to(unreached))
        block = w.index.columns.block([obj])
        bounds = _assert_stack_matches(
            w.index, _stack(w.index, [cut, cut], [r, None]), block
        )
        got = bounds.row(0).interval(0)
        assert got == object_bounds(
            q, obj, cut, space, grid, unreached_floor=r
        )
        assert got.lower < float("inf") and got.upper == float("inf")
        assert bounds.row(1).interval(0) == object_bounds(
            q, obj, cut, space, grid
        )


class TestBlockShapes:
    def test_block_of_one_equals_its_row_in_a_larger_block(self):
        """An insert is a block of one: same numbers as the object's
        entry in any larger block."""
        w = _world(12)
        space, session = w.space, w.session
        objects = list(w.pop)
        whole = _pack(w.index, objects)
        fh = space.floor_height
        stack = _stack(
            w.index,
            [
                session.door_distances(space.random_point(rng=w.rng))
                for _ in range(3)
            ],
            [None, 26.0, 26.0],
        )
        whole_bounds = block_object_bounds(stack, whole, fh)
        for j, obj in enumerate(objects):
            one = block_object_bounds(
                stack, _pack(w.index, [obj]), fh
            )
            for i in range(len(stack)):
                big, small = whole_bounds.row(i), one.row(i)
                assert small.lo == [big.lo[j]]
                assert small.interval(0) == big.interval(j)
                assert small.probability(0, 25.0) == big.probability(j, 25.0)


def _stats_lists():
    """Random ``SubregionStats`` lists as an object's rows could read:
    ``tmax >= tmin`` per subregion, either possibly infinite, masses
    possibly zero but not all of them."""
    distance = st.one_of(
        st.floats(min_value=0.0, max_value=1e6), st.just(math.inf)
    )
    entry = st.tuples(
        distance,
        distance,
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    ).map(lambda e: (min(e[0], e[1]), max(e[0], e[1]), e[2]))
    return st.lists(entry, min_size=1, max_size=6).filter(
        lambda entries: sum(e[2] for e in entries) > 0.0
    )


class TestEnvelope:
    """Why the monitor may decide "entirely beyond" from the Eq. 7
    envelope ``min tmin`` before any exact interval exists: both exact
    routines provably agree with it, in floats."""

    @given(entries=_stats_lists())
    @settings(max_examples=300, deadline=None)
    def test_probabilistic_lower_bound_never_undercuts_it(self, entries):
        stats = [
            SubregionStats(f"p{i}", tmin, tmax, mass)
            for i, (tmin, tmax, mass) in enumerate(entries)
        ]
        lowest = min(s.tmin for s in stats)
        assert probabilistic_bounds(stats).lower >= lowest

    @given(
        entries=_stats_lists(),
        r=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_mass_loop_adds_nothing_beyond_it(self, entries, r):
        tmin, tmax, mass = (list(col) for col in zip(*entries))
        got = mass_within(tmin, tmax, mass, range(len(entries)), r)
        if min(tmin) > r:
            assert got == (0.0, 0.0)
        assert 0.0 <= got[0] <= got[1]
