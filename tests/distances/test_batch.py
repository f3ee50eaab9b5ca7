"""The block bounds kernel (:mod:`repro.distances.batch`) held to the
per-pair reference (:func:`repro.distances.bounds.object_bounds`,
:func:`repro.queries.prob_range.probability_bounds`) function for
function.

Every comparison is exact ``==`` on floats, never ``approx``: the
kernel's arithmetic is arranged to repeat the reference's operation
sequence, so any last-digit drift is a bug.
"""

import random
from collections import namedtuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import build_world
from repro.distances.batch import (
    QueryPack,
    block_object_bounds,
    block_probability_bounds,
    pack_block,
)
from repro.distances.bounds import DistanceInterval, object_bounds
from repro.geometry import Point
from repro.queries import QuerySession
from repro.queries.engine import locate_source, subgraph_phase
from repro.queries.prob_range import probability_bounds
from repro.space.events import CloseDoor
from repro.space.partition import PartitionKind

RADII = (8.0, 25.0, 60.0)


def _pack(index, session, objects):
    return pack_block(
        objects,
        index.space,
        index.population.grid,
        session.door_layout(),
    )


def _n_subregions(index, obj):
    return len(obj.subregions(index.space, index.population.grid))


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


def _assert_matches_reference(index, session, objects, q):
    """Whole-block kernel output == the per-pair reference, object by
    object, for the distance interval and every probability range."""
    space, grid = index.space, index.population.grid
    pack = session.kernel_pack(q)
    block = _pack(index, session, objects)
    assert block_object_bounds(pack, block, q, space) == [
        object_bounds(q, obj, pack.dd, space, grid) for obj in objects
    ]
    # The columnar table serves the rows pack_block computes.
    assert block_object_bounds(
        pack, index.columns.block(objects), q, space
    ) == block_object_bounds(pack, block, q, space)
    for r in RADII:
        los, his = block_probability_bounds(pack, block, q, space, r)
        assert list(zip(los, his)) == [
            probability_bounds(index, q, obj, pack.dd, r)
            for obj in objects
        ]
    return pack, block


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
        for q in points:
            _assert_matches_reference(w.index, w.session, objects, q)

    def test_query_point_inside_object_partition(self):
        """The query's own partition takes the direct Euclidean path
        (the ``source_row`` patch) in addition to its entry doors."""
        w = _world(7)
        for obj in (next(iter(w.pop)), w.straddlers[0]):
            pack, block = _assert_matches_reference(
                w.index, w.session, list(w.pop), obj.region.center
            )
            _, rows = _rows(block, obj)
            assert pack.source_row in block.sub_part[rows]

    def test_partition_without_entry_doors(self):
        """Closing a room's only door leaves it no entry door at all:
        an empty door row, an infinite interval, zero probability."""
        w = _world(4)
        space, grid = w.space, w.pop.grid
        obj, room = next(
            (o, subs[0].partition_id)
            for o in w.pop
            for subs in [o.subregions(space, grid)]
            if len(subs) == 1
            and space.partition(subs[0].partition_id).kind
            is PartitionKind.ROOM
        )
        (door,) = space.doors_of(room)
        w.index.apply_event(CloseDoor(door.door_id))
        layout = w.session.door_layout()
        assert layout.entry_idx[layout.part_row[room]].size == 0
        q = _point_where(
            space, lambda p: grid.locate(p).partition_id != room
        )
        pack, block = _assert_matches_reference(
            w.index, w.session, list(w.pop), q
        )
        j, _ = _rows(block, obj)
        inf = float("inf")
        assert block_object_bounds(pack, block, q, space)[j] == (
            DistanceInterval(inf, inf)
        )
        los, his = block_probability_bounds(pack, block, q, space, 60.0)
        assert (los[j], his[j]) == (0.0, 0.0)

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
        pack, block = _assert_matches_reference(
            w.index, w.session, list(w.pop), q
        )
        los, his = block_probability_bounds(pack, block, q, space, 1e9)
        for obj in (o for o in w.pop if o.floor == 1):
            j, rows = _rows(block, obj)
            for i in rows:
                doors = block.layout.entry_idx[block.sub_part[i]]
                assert doors.size
                assert np.isinf(pack.w[doors]).all()
            assert (los[j], his[j]) == (0.0, 0.0)


class TestUnreachedFloor:
    """One-shot iRQ/ikNNQ without ``precomputed_dd`` prune against a
    cutoff, subgraph-restricted search: a door it did not reach is
    proven farther than the cutoff, so ``unreached_floor`` replaces an
    infinite ``tmin`` — in the kernel exactly as in
    :func:`repro.distances.bounds.subregion_stats`."""

    @staticmethod
    def _cutoff_pack(index, q, r):
        filtered = index.range_search(q, r)
        dd, _ = subgraph_phase(
            index, q, locate_source(index, q), filtered.partitions, cutoff=r
        )
        return QueryPack(dd, index.columns.layout())

    @given(seed=st.integers(0, 10_000), r=st.sampled_from(RADII))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cutoff_search_matches_reference(self, seed, r):
        """Every object of the venue — far beyond the cutoff included —
        against the same restricted search, floored and unfloored."""
        w = _world(seed)
        space, grid = w.space, w.pop.grid
        objects = list(w.pop)
        block = w.index.columns.block(objects)
        for q in (
            w.space.random_point(rng=w.rng),
            w.straddlers[0].region.center,
        ):
            pack = self._cutoff_pack(w.index, q, r)
            assert not all(
                d in pack.dd.dist for d in space.doors
            ), "cutoff reached every door: nothing is floored"
            for floor in (r, None):
                assert block_object_bounds(
                    pack, block, q, space, unreached_floor=floor
                ) == [
                    object_bounds(
                        q, obj, pack.dd, space, grid, unreached_floor=floor
                    )
                    for obj in objects
                ]

    def test_multi_partition_object_straddling_the_radius(self):
        """An object across the wall between two rooms, asked from the
        hallway with a cutoff that reaches one room's door and not the
        other's: finite floored lower bound, infinite upper bound,
        identical to the reference."""
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
        assert [s.partition_id for s in obj.subregions(space, grid)] == [
            a.partition_id,
            b.partition_id,
        ]
        (door_a,) = space.doors_of(a.partition_id)
        (door_b,) = space.doors_of(b.partition_id)
        # Asked from a third room (a hallway point would seed every
        # hallway door at once), with a cutoff between the two doors.
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
        pack = self._cutoff_pack(w.index, q, r)
        assert reached in pack.dd.dist and unreached not in pack.dd.dist
        block = w.index.columns.block([obj])
        (got,) = block_object_bounds(pack, block, q, space, unreached_floor=r)
        assert got == object_bounds(
            q, obj, pack.dd, space, grid, unreached_floor=r
        )
        assert got.lower < float("inf") and got.upper == float("inf")
        (bare,) = block_object_bounds(pack, block, q, space)
        assert bare == object_bounds(q, obj, pack.dd, space, grid)


class TestBlockShapes:
    def test_subset_equals_packing_the_kept_objects(self):
        """``ObjectBlock.subset(keep)`` — what the sharded router hands
        a shard — is value-identical to packing the kept objects
        directly (up to extra sentinel padding columns)."""
        w = _world(11)
        space, session = w.space, w.session
        objects = list(w.pop)
        whole = _pack(w.index, session, objects)
        keep = sorted(w.rng.sample(range(len(objects)), 9))
        sub = whole.subset(keep)
        direct = _pack(w.index, session, [objects[j] for j in keep])
        assert sub.objects == direct.objects
        assert sub.layout is direct.layout
        assert sub.sub_pids == direct.sub_pids
        assert sub.sub_mass == direct.sub_mass
        assert sub.sub_instances == direct.sub_instances
        assert (sub.sub_part == direct.sub_part).all()
        assert (sub.obj_offsets == direct.obj_offsets).all()
        width = direct.sub_door.shape[1]
        assert (sub.sub_door[:, :width] == direct.sub_door).all()
        assert (sub.sub_door[:, width:] == whole.layout.sentinel).all()
        used = direct.sub_door != whole.layout.sentinel
        assert (sub.sub_min[:, :width][used] == direct.sub_min[used]).all()
        assert (sub.sub_max[:, :width][used] == direct.sub_max[used]).all()
        for q in (space.random_point(rng=w.rng) for _ in range(3)):
            pack = session.kernel_pack(q)
            assert block_object_bounds(
                pack, sub, q, space
            ) == block_object_bounds(pack, direct, q, space)
            assert block_probability_bounds(
                pack, sub, q, space, 25.0
            ) == block_probability_bounds(pack, direct, q, space, 25.0)

    def test_block_of_one_equals_its_row_in_a_larger_block(self):
        """An insert is a block of one: same numbers as the object's
        entry in any larger block."""
        w = _world(12)
        space, session = w.space, w.session
        objects = list(w.pop)
        whole = _pack(w.index, session, objects)
        for q in (space.random_point(rng=w.rng) for _ in range(3)):
            pack = session.kernel_pack(q)
            intervals = block_object_bounds(pack, whole, q, space)
            los, his = block_probability_bounds(
                pack, whole, q, space, 25.0
            )
            for j, obj in enumerate(objects):
                one = _pack(w.index, session, [obj])
                assert block_object_bounds(pack, one, q, space) == [
                    intervals[j]
                ]
                assert block_probability_bounds(
                    pack, one, q, space, 25.0
                ) == ([los[j]], [his[j]])
