"""Block exact refinement (:func:`repro.distances.batch.
block_expected_distances`) held to the scalar reference —
:func:`repro.reference.expected.expected_indoor_distance` ``.value``
and :func:`~repro.reference.expected.qualifying_probability` — for
every (query, object) pair it is handed.

Every comparison is exact ``==`` on floats, never ``approx``: the
routine repeats the reference's operation sequence instance for
instance and sums each subregion's instances contiguously, so any
last-digit drift is a bug, and a standing result (refined here) can
never disagree with the oracle (refined there) on a boundary object.
"""

import math
import random
import warnings

import numpy as np
import pytest

from repro.distances.batch import (
    REFINE_CHUNK,
    QueryStack,
    block_expected_distances,
    block_object_bounds,
)
from repro.errors import QueryError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    ObjectGenerator,
    ObjectMove,
    UncertainObject,
)
from repro.reference.expected import (
    expected_indoor_distance,
    qualifying_probability,
)
from repro.reference.pack import subregion_rows
from repro.reference.subregions import subregions
from repro.space import PartitionKind
from repro.space.events import CloseDoor, OpenDoor

RADII = (6.0, 20.0, 45.0)


def _stack(index, searches):
    return QueryStack(
        index.columns.layout(), searches, [None] * len(searches)
    )


def _assert_block_equals_scalar(index, searches, objects, radii=RADII):
    """Every (search, object) pair, in one call per finish: ``==`` the
    scalar value and, per radius, the scalar qualifying probability.
    Returns the distances, ``[search][object]``."""
    space, grid = index.space, index.population.grid
    fh = space.floor_height
    stack = _stack(index, searches)
    subs, offsets = subregion_rows(objects, space, grid, stack.layout)
    pairs = [(i, j) for i in range(len(searches)) for j in range(len(objects))]
    got = block_expected_distances(stack, subs, offsets, pairs, fh)
    want = [
        expected_indoor_distance(dd.source, obj, dd, space, grid).value
        for dd in searches
        for obj in objects
    ]
    assert got == want
    # The index table's rows (what the one-shot refiner reads) too.
    table, table_offsets = index.columns.rows(objects)
    assert (
        block_expected_distances(stack, table, table_offsets, pairs, fh)
        == want
    )
    assert not any(math.isnan(v) for v in got)
    for r in radii:
        assert block_expected_distances(
            stack, subs, offsets, pairs, fh, r
        ) == [
            qualifying_probability(dd.source, obj, dd, space, r, grid)
            for dd in searches
            for obj in objects
        ]
    n = len(objects)
    return [got[i * n : (i + 1) * n] for i in range(len(searches))]


def _straddlers(index, gen, doors):
    """One object astride each of ``doors``."""
    out = []
    for door in doors:
        mid = door.midpoint
        obj = gen.generate_one(center=Point(mid.x, mid.y, mid.floor))
        index.insert_object(obj)
        out.append(obj)
    return out


def _mall_index(space, seed, n=70):
    gen = ObjectGenerator(space, radius=4.0, n_instances=12, seed=seed)
    index = CompositeIndex.build(space, gen.generate(n))
    _straddlers(index, gen, space.doors.values())
    return index, gen


class TestWholePopulations:
    def test_five_rooms(self, five_rooms):
        gen = ObjectGenerator(five_rooms, radius=3.0, n_instances=9, seed=5)
        index = CompositeIndex.build(five_rooms, gen.generate(40))
        _straddlers(index, gen, five_rooms.doors.values())
        objects = list(index.population)
        grid = index.population.grid
        assert {
            len(subregions(o, five_rooms, grid)) for o in objects
        } >= {1, 2}
        points = [
            Point(15.0, 12.0, 0),  # the hallway
            Point(5.0, 5.0, 0),  # r1: two doors out
            Point(25.0, 20.0, 0),  # r5
            Point(9.9, 9.9, 0),  # r1's corner, next to both its doors
        ]
        searches = [index.doors_graph.dijkstra_from_point(q) for q in points]
        values = _assert_block_equals_scalar(index, searches, objects)
        assert all(math.isfinite(v) for row in values for v in row)

    def test_mall_full_searches(self, small_mall):
        index, _ = _mall_index(small_mall, seed=31)
        objects = list(index.population)
        searches = [
            index.doors_graph.dijkstra_from_point(
                small_mall.random_point(seed=s)
            )
            for s in (1, 2, 3, 4)
        ]
        assert len(objects) > REFINE_CHUNK  # several array passes
        _assert_block_equals_scalar(index, searches, objects)

    def test_closed_doors(self, small_mall):
        """Closed doors leave the layout; whole wings may be cut off."""
        index, _ = _mall_index(small_mall, seed=32, n=40)
        rng = random.Random(9)
        closed = rng.sample(sorted(small_mall.doors), 4)
        try:
            for door_id in closed:
                index.apply_event(CloseDoor(door_id))
            q = small_mall.random_point(seed=6)
            dd = index.doors_graph.dijkstra_from_point(q)
            _assert_block_equals_scalar(index, [dd], list(index.population))
        finally:  # the mall is shared by the session
            for door_id in closed:
                index.apply_event(OpenDoor(door_id))


class TestUnreachedDoors:
    @pytest.mark.parametrize("seed,r", [(1, 15.0), (2, 30.0), (3, 50.0)])
    def test_closed_room_matches_reference(self, small_mall, seed, r):
        """Every door of one room closed: objects in it and astride its
        doors come out ``inf`` (probability 0), and the rest exactly as
        the reference has them against the same search."""
        index, _ = _mall_index(small_mall, seed=40 + seed)
        q = small_mall.random_point(seed=seed)
        source = small_mall.locate(q).partition_id
        rooms = sorted(
            pid
            for pid in small_mall.partitions
            if pid != source
            and small_mall.partition(pid).kind is PartitionKind.ROOM
            and small_mall.doors_of(pid)
        )
        room = random.Random(seed).choice(rooms)
        closed = sorted(d.door_id for d in small_mall.doors_of(room))
        try:
            for door_id in closed:
                index.apply_event(CloseDoor(door_id))
            dd = index.doors_graph.dijkstra_from_point(q)
            (values,) = _assert_block_equals_scalar(
                index, [dd], list(index.population), radii=(r / 2, r)
            )
            assert {math.isfinite(v) for v in values} == {False, True}
        finally:  # the mall is shared by the session
            for door_id in closed:
                index.apply_event(OpenDoor(door_id))

    def test_zero_probability_instance_behind_an_unreached_door(
        self, five_rooms
    ):
        """``inf * 0`` must not surface as ``nan``: a subregion with an
        unreachable instance is infinitely far whatever that instance
        weighs — and says so without a floating-point warning."""
        index = CompositeIndex.build(five_rooms)
        index.columns.layout()
        obj = UncertainObject(
            "o",
            Circle(Point(20.0, 5.0, 0), 3.0),
            # r2 | r3, the r3 piece holding a zero-probability instance.
            InstanceSet(
                np.array([[19.0, 5.0], [21.0, 5.0], [22.0, 5.0]]),
                0,
                np.array([0.5, 0.0, 0.5]),
            ),
        )
        index.insert_object(obj)
        q = Point(5.0, 5.0, 0)  # r1
        # Reaches r2 (through d12) but not r3.
        index.apply_event(CloseDoor("d3"))
        dd = index.doors_graph.dijkstra_from_point(q)
        assert math.isinf(dd.distance_to("d3"))
        assert math.isfinite(dd.distance_to("d12"))
        space, grid = index.space, index.population.grid
        stack = _stack(index, [dd])
        subs, offsets = subregion_rows([obj], space, grid, stack.layout)
        assert [stack.layout.part_ids[p] for p in subs.part] == ["r2", "r3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = block_expected_distances(
                stack, subs, offsets, [(0, 0)], space.floor_height
            )
            mass = block_expected_distances(
                stack, subs, offsets, [(0, 0)], space.floor_height, 20.0
            )
        assert got == [math.inf]
        assert mass == [0.5]  # the r2 instance, 14 m away through d12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the scalar path's inf * 0
            assert got == [
                expected_indoor_distance(q, obj, dd, space, grid).value
            ]
        assert mass == [qualifying_probability(q, obj, dd, space, 20.0, grid)]


class TestOwnPartition:
    def test_rows_in_the_querys_own_partition(self, five_rooms):
        """The direct path joins the entry doors — for the rows that
        lie in the query's partition, not for their siblings."""
        gen = ObjectGenerator(five_rooms, radius=3.0, n_instances=9, seed=2)
        index = CompositeIndex.build(five_rooms, gen.generate(12))
        (astride,) = _straddlers(index, gen, [five_rooms.doors["d12"]])
        grid = index.population.grid
        assert [
            s.partition_id for s in subregions(astride, five_rooms, grid)
        ] == ["r1", "r2"]
        # From inside each half, and from the far side of either door.
        points = [Point(9.0, 5.0, 0), Point(11.0, 5.0, 0), Point(9.5, 9.5, 0)]
        searches = [index.doors_graph.dijkstra_from_point(q) for q in points]
        values = _assert_block_equals_scalar(
            index, searches, list(index.population)
        )
        j = list(index.population).index(astride)
        # Closer than any door path could make it: the direct path won.
        assert values[0][j] < min(
            searches[0].distance_to(d) for d in ("d1", "d12")
        ) + 3.0

    def test_door_less_partition(self, five_rooms):
        """A partition left with no entry door (its only door closed)
        is reachable only from within: the direct path, or not at all —
        an empty ragged row."""
        space = five_rooms
        index = CompositeIndex.build(space)
        index.apply_event(CloseDoor("d3"))
        layout = index.columns.layout()
        assert layout.n_entry[layout.part_row["r3"]] == 0
        inside = UncertainObject(
            "inside",
            Circle(Point(25.0, 5.0, 0), 2.0),
            InstanceSet.uniform(np.array([[24.0, 5.0], [26.0, 4.0]]), 0),
        )
        astride = UncertainObject(  # r2 | r3, across the wall
            "astride",
            Circle(Point(20.0, 5.0, 0), 2.0),
            InstanceSet.uniform(np.array([[19.0, 5.0], [21.0, 5.0]]), 0),
        )
        plain = UncertainObject(
            "plain",
            Circle(Point(5.0, 5.0, 0), 1.0),
            InstanceSet.uniform(np.array([[5.0, 5.0], [5.5, 5.0]]), 0),
        )
        objects = [inside, astride, plain]
        for obj in objects:
            index.insert_object(obj)
        searches = [
            index.doors_graph.dijkstra_from_point(q)
            for q in (
                Point(25.0, 8.0, 0),  # walled in with ``inside``
                Point(3.0, 3.0, 0),
                Point(15.0, 12.0, 0),
            )
        ]
        from_r3, from_r1, from_hall = _assert_block_equals_scalar(
            index, searches, objects
        )
        assert math.isfinite(from_r3[0])  # direct path only
        assert from_r3[1:] == [math.inf, math.inf]  # and no way out
        assert from_r1[0] == math.inf and from_hall[0] == math.inf
        assert from_r1[1] == math.inf  # its r3 half is walled in
        assert math.isfinite(from_r1[2]) and math.isfinite(from_hall[2])
        # Door-less rows alone in a pass: nothing to reduce over.
        _assert_block_equals_scalar(index, [searches[1]], [inside])


class TestStaircases:
    def test_entry_doors_on_another_floor(self, two_floor_space):
        """A stair shaft's entry doors lie on both floors it joins: the
        vertical leg of an instance-to-door distance is not zero."""
        space = two_floor_space
        index = CompositeIndex.build(space)
        index.columns.layout()
        fh = space.floor_height
        assert fh > 0
        shaft = UncertainObject(
            "shaft",
            Circle(Point(22.0, 5.0, 0), 1.5),
            InstanceSet.uniform(np.array([[21.0, 5.0], [23.0, 6.0]]), 0),
        )
        landing = UncertainObject(  # hall0 | stair
            "landing",
            Circle(Point(20.0, 5.0, 0), 1.5),
            InstanceSet.uniform(np.array([[19.0, 5.0], [21.0, 5.0]]), 0),
        )
        upstairs = UncertainObject(
            "upstairs",
            Circle(Point(5.0, 5.0, 1), 1.5),
            InstanceSet.uniform(np.array([[5.0, 5.0], [6.0, 5.0]]), 1),
        )
        for obj in (shaft, landing, upstairs):
            index.insert_object(obj)
        searches = [
            index.doors_graph.dijkstra_from_point(q)
            for q in (
                Point(5.0, 5.0, 1),  # upstairs: enters the shaft by se1
                Point(5.0, 5.0, 0),
                Point(22.0, 2.0, 0),  # inside the shaft itself
            )
        ]
        from_up, _, _ = _assert_block_equals_scalar(
            index, searches, [shaft, landing, upstairs]
        )
        # From upstairs the shaft object is served by the door a floor
        # above it: farther than the same walk without the climb.
        assert from_up[0] > searches[0].distance_to("se1") + fh - 1e-9

    def test_multi_floor_mall(self, medium_mall):
        index, _ = _mall_index(medium_mall, seed=33, n=90)
        searches = [
            index.doors_graph.dijkstra_from_point(
                medium_mall.random_point(seed=s)
            )
            for s in (11, 12)
        ]
        assert {dd.source.floor for dd in searches} != {
            o.floor for o in index.population
        }
        _assert_block_equals_scalar(
            index, searches, list(index.population), radii=(60.0,)
        )


class TestPieceOrder:
    def test_wall_clipped_straggler(self, five_rooms):
        """The scalar assignment's pieces need not come in partition-id
        order (PR 22): rows follow the piece vector, whatever order the
        pieces are in."""
        index = CompositeIndex.build(five_rooms)
        index.columns.layout()
        specs = {
            # The centre's partition (r1) holds no instance, so it is
            # appended after r2's piece.
            "reversed": (Point(9, 1, 0), [[12.0, 1.0], [9.5, -1.0]]),
            "corner": (Point(11, 1, 0), [[9.0, 1.0], [10.5, -1.0]]),
            "edge": (Point(5, 1, 0), [[5.0, 1.0], [5.0, -1.0]]),
        }
        for object_id, (center, _) in specs.items():
            index.insert_object(
                UncertainObject(
                    object_id,
                    Circle(Point(center.x, 5.0, 0), 3.0),
                    InstanceSet.single(Point(center.x, 5.0, 0)),
                )
            )
        moved = index.update_objects(
            [
                ObjectMove(
                    object_id,
                    Circle(center, 3.0),
                    InstanceSet(np.array(xy), 0, np.array([0.25, 0.75])),
                )
                for object_id, (center, xy) in specs.items()
            ]
        )
        grid = index.population.grid
        assert [
            [s.partition_id for s in subregions(o, five_rooms, grid)]
            for o in moved
        ] == [["r2", "r1"], ["r1", "r2"], ["r1"]]
        searches = [
            index.doors_graph.dijkstra_from_point(q)
            for q in (Point(15.0, 12.0, 0), Point(12.0, 3.0, 0))
        ]
        _assert_block_equals_scalar(index, searches, moved)


class TestBlockShapes:
    def test_pairs_of_a_multi_query_stack_in_any_order(self, small_mall):
        """A pair's value depends on the pair alone: not on the other
        pairs, their order, repeats, or where a chunk boundary falls."""
        index, _ = _mall_index(small_mall, seed=34, n=30)
        space, grid = index.space, index.population.grid
        fh = space.floor_height
        objects = list(index.population)
        searches = [
            index.doors_graph.dijkstra_from_point(space.random_point(seed=s))
            for s in (21, 22, 23)
        ]
        stack = _stack(index, searches)
        subs, offsets = subregion_rows(objects, space, grid, stack.layout)
        alone = {
            (i, j): block_expected_distances(
                stack, subs, offsets, [(i, j)], fh
            )[0]
            for i in range(len(searches))
            for j in range(len(objects))
        }
        rng = random.Random(3)
        for _ in range(5):
            pairs = rng.choices(sorted(alone), k=rng.randint(2, 70))
            assert block_expected_distances(
                stack, subs, offsets, pairs, fh
            ) == [alone[p] for p in pairs]
        assert block_expected_distances(stack, subs, offsets, [], fh) == []

    def test_bounds_row_accessors(self, small_mall):
        """What the maintainers call: ``row.exact`` /
        ``row.exact_probability`` over a table-gathered block, reading
        what ``BlockBounds.refine`` kept or refining on demand."""
        index, _ = _mall_index(small_mall, seed=35, n=30)
        space, grid = index.space, index.population.grid
        objects = list(index.population)
        searches = [
            index.doors_graph.dijkstra_from_point(space.random_point(seed=s))
            for s in (5, 6)
        ]
        block = index.columns.block(objects)
        stack = _stack(index, searches)
        bounds = block_object_bounds(stack, block, space.floor_height)
        kept = block_object_bounds(stack, block, space.floor_height)
        half = [(i, j) for i in (0, 1) for j in range(0, len(objects), 2)]
        kept.refine(half)
        kept.refine([(0, 0), (1, 1)])  # overlapping: same floats again
        kept.refine(half, [30.0] * len(half))
        for i, dd in enumerate(searches):
            want = [
                expected_indoor_distance(dd.source, o, dd, space, grid).value
                for o in objects
            ]
            cold, warm = bounds.row(i), kept.row(i)
            assert bounds.row(i) is cold  # one row per query
            for j in range(len(objects)):
                assert cold.exact(j) == warm.exact(j) == want[j]
                mass = qualifying_probability(
                    dd.source, objects[j], dd, space, 30.0, grid
                )
                assert cold.exact_probability(j, 30.0) == mass
                assert warm.exact_probability(j, 30.0) == mass
            # The one-shot prune's kind: it decides alike, and keeps no
            # instance copy to refine with.
            decides = bounds.row(i, refine=False)
            for j in range(len(objects)):
                assert decides.interval(j) == cold.interval(j)
                assert decides.probability(j, 30.0) == cold.probability(
                    j, 30.0
                )
            with pytest.raises(QueryError):
                decides.exact(0)


class TestNoInstanceCopies:
    """A multi-partition object's subregions copy their instances out
    of the parent set only when something reads ``.instances``; the
    hot paths read the index table's instance rows, so refinement there
    is no such reader."""

    @staticmethod
    def _uncopied(index):
        space, grid = index.space, index.population.grid
        pieces = [
            s
            for o in index.population
            for s in subregions(o, space, grid)
            if s.pieces is not None
        ]
        assert pieces
        return sum(s._instances is None for s in pieces), len(pieces)

    def test_ingest_and_one_shot_refinement_build_none(self, five_rooms):
        from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
        from repro.queries import QueryMonitor, QueryStats, iRQ, ikNNQ

        gen = ObjectGenerator(five_rooms, radius=2.0, n_instances=8, seed=3)
        index = CompositeIndex.build(five_rooms)
        # Every object astride a door of r1-r3; the queries stand in
        # r4 / r5, so no subregion lies in a query's own partition (the
        # bounds kernel's direct-path patch does read ``.instances``).
        rng = random.Random(4)
        doors = [five_rooms.doors[d] for d in ("d1", "d2", "d3", "d12")]

        def astride(door):
            mid = door.midpoint
            return Point(
                mid.x + rng.uniform(-0.5, 0.5),
                mid.y + rng.uniform(-0.5, 0.5),
                mid.floor,
            )

        for door in doors * 4:
            index.insert_object(gen.generate_one(center=astride(door)))
        monitor = QueryMonitor(index)
        monitor.register(KNNSpec(Point(5.0, 20.0, 0), 3))
        monitor.register(RangeSpec(Point(25.0, 20.0, 0), 22.0))
        monitor.register(ProbRangeSpec(Point(7.0, 18.0, 0), 18.0, 0.5))
        uncopied, total = self._uncopied(index)
        assert uncopied == total  # registration ran three one-shots

        ids = sorted(index.population.ids())
        for _ in range(4):
            moves = []
            for object_id in rng.sample(ids, 6):
                obj = gen.generate_one(center=astride(rng.choice(doors)))
                moves.append(ObjectMove(object_id, obj.region, obj.instances))
            monitor.apply_moves(moves)
        assert monitor.stats.pairs_refined > 5
        uncopied, total = self._uncopied(index)
        assert uncopied == total

        for run in (
            lambda s: ikNNQ(Point(5.0, 20.0, 0), 4, index, stats=s),
            lambda s: iRQ(Point(25.0, 20.0, 0), 22.0, index, stats=s),
        ):
            stats = QueryStats()
            run(stats)
            assert stats.refined > 0
        assert self._uncopied(index) == (total, total)
