"""Property tests for the query processors: randomized queries must
agree with the naive oracle (iRQ: exact set equality; ikNNQ: tie-aware
equivalence), and the envelope-first prune must decide every candidate
as a prune that builds every exact interval does.  Query points are
random, or on a door, a wall or a corner, where two partitions contain
``q`` and the engine's ``P(q)`` must be the oracle's."""

import bisect
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from monitor_world import boundary_points

from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    ObjectGenerator,
    ObjectPopulation,
    UncertainObject,
)
from repro.queries import (
    QuerySession,
    QueryStats,
    iPRQ,
    iRQ,
    ikNNQ,
    k_seeds_selection,
)
from repro.geometry import Circle, Point, Rect
from repro.queries.engine import locate_source
from repro.reference import (
    NaiveEvaluator,
    object_bounds,
    subregions,
    topological_looser_upper_bound,
)
from repro.space.builder import SpaceBuilder
from repro.space.events import CloseDoor
from repro.space.mall import build_mall


_BOUNDARY: dict[int, list] = {}


def query_points(space):
    """A random point by seed, or a located point on a door, a wall or
    a partition corner."""
    if id(space) not in _BOUNDARY:
        _BOUNDARY[id(space)] = [
            p for p in boundary_points(space) if space.locate(p) is not None
        ]
    return st.one_of(
        st.integers(0, 500).map(lambda seed: space.random_point(seed=seed)),
        st.sampled_from(_BOUNDARY[id(space)]),
    )


@pytest.fixture(scope="module")
def world():
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=3, floor_size=120.0,
        hallway_width=4.0, stair_size=10.0, seed=9,
    )
    pop = ObjectGenerator(
        space, radius=4.0, n_instances=8, seed=9
    ).generate(60)
    index = CompositeIndex.build(space, pop)
    oracle = NaiveEvaluator(space, pop)
    return space, index, oracle


class TestIRQAgainstOracle:
    @given(
        data=st.data(),
        r=st.floats(0.0, 150.0, allow_nan=False),
        with_pruning=st.booleans(),
        use_skeleton=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_result_set(
        self, world, data, r, with_pruning, use_skeleton
    ):
        space, index, oracle = world
        q = data.draw(query_points(space))
        got = iRQ(
            q, r, index,
            with_pruning=with_pruning, use_skeleton=use_skeleton,
        ).ids()
        assert got == oracle.range_query(q, r)


class TestIKNNQAgainstOracle:
    @given(
        data=st.data(),
        k=st.integers(1, 59),
        with_pruning=st.booleans(),
        use_skeleton=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_tie_aware_top_k(self, world, data, k, with_pruning, use_skeleton):
        space, index, oracle = world
        q = data.draw(query_points(space))
        result = ikNNQ(
            q, k, index,
            with_pruning=with_pruning, use_skeleton=use_skeleton,
        )
        exact = oracle.all_distances(q)
        kth = oracle.kth_distance(q, k)
        reachable = sum(1 for d in exact.values() if math.isfinite(d))
        assert len(result) == min(k, reachable)
        for oid in result.ids():
            assert exact[oid] <= kth + 1e-6

    @given(data=st.data(), k=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_knn_subset_of_range(self, world, data, k):
        """Every kNN member lies within range of the k-th distance."""
        space, index, oracle = world
        q = data.draw(query_points(space))
        kth = oracle.kth_distance(q, k)
        if not math.isfinite(kth):
            return
        knn_ids = ikNNQ(q, k, index).ids()
        range_ids = iRQ(q, kth + 1e-9, index).ids()
        assert knn_ids <= range_ids


class TestQueryInsideAStaircase:
    """A query point inside a staircase may leave it by an entrance on
    another floor straight away, not only by one on its own floor: the
    filter's skeleton bound must count those entrances as first hops,
    or it drops objects upstairs that the oracle reaches."""

    @pytest.mark.parametrize("world_seed", range(4))
    def test_results_equal_the_oracle(self, world_seed):
        space, index, oracle, _ = _straddling_world(world_seed)
        for stair in space.staircases():
            b = stair.bounds
            for x, y in (
                ((b.minx + b.maxx) / 2.0, (b.miny + b.maxy) / 2.0),
                (b.minx, b.miny),
                (b.maxx, b.maxy),
            ):
                for floor in range(stair.floor, stair.upper_floor + 1):
                    q = Point(x, y, floor)
                    for r in (10.0, 27.5, 60.0):
                        got = iRQ(q, r, index).ids()
                        assert got == oracle.range_query(q, r), (q, r)
                    exact = oracle.all_distances(q)
                    kth = oracle.kth_distance(q, 5)
                    for oid in ikNNQ(q, 5, index).ids():
                        assert exact[oid] <= kth + 1e-6, q


@functools.lru_cache(maxsize=None)
def _straddling_world(seed):
    """A small mall whose objects are wide against its rooms: most of
    them overlap two partitions or more (the Eq. 8 case, where the
    envelope and the exact interval part ways)."""
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=3, floor_size=60.0,
        hallway_width=4.0, stair_size=8.0, seed=seed,
    )
    pop = ObjectGenerator(
        space, radius=6.0, n_instances=8, seed=seed
    ).generate(50)
    grid = pop.grid
    assert 2 * sum(len(subregions(o, space, grid)) > 1 for o in pop) > len(pop)
    index = CompositeIndex.build(space, pop)
    return space, index, NaiveEvaluator(space, pop), QuerySession(index)


def _reference_search(index, q, source, session):
    """The search a processor prunes against: the session's cached
    one, or a fresh full search."""
    if session is not None:
        return session.door_distances(q)
    return index.doors_graph.dijkstra_from_point(q, source)


def _all_intervals(index, q, objects, dd):
    return [
        object_bounds(q, obj, dd, index.space, index.population.grid)
        for obj in objects
    ]


def _reference_irq_decisions(index, q, r, session):
    """(rejected, accepted, refined) of Algorithm 1 with a scalar
    ``object_bounds`` interval for every candidate."""
    filtered = index.range_search(q, r)
    dd = _reference_search(index, q, locate_source(index, q), session)
    intervals = _all_intervals(index, q, filtered.objects, dd)
    rejected = sum(iv.entirely_beyond(r) for iv in intervals)
    accepted = sum(iv.entirely_within(r) for iv in intervals)
    return rejected, accepted, len(intervals) - rejected - accepted


def _reference_iknn_decisions(index, q, k, session, ladder=(2, 4)):
    """(candidates, rejected, accepted, refined) of Algorithm 2 with
    nothing shared with the array path: seed selection restarted per
    widening — ``ladder`` seeds times ``k``, from ``2k`` as ikNNQ
    widens — scalar Lemma 3 per seed, a scalar interval for every
    candidate."""
    space, grid = index.space, index.population.grid
    source = locate_source(index, q)
    kbound = math.inf
    for k_eff in (step * k for step in ladder):
        seeds, _, known_paths = k_seeds_selection(index, q, k_eff, source)
        tlus = sorted(
            tlu
            for seed in seeds
            if math.isfinite(
                tlu := topological_looser_upper_bound(
                    q, seed, known_paths, space, grid
                )
            )
        )
        if len(tlus) >= k:
            kbound = tlus[k - 1]
            break
        if len(seeds) < k_eff:
            break
    filtered = index.range_search(q, kbound)
    candidates = filtered.objects
    if len(candidates) <= k:
        return len(candidates), 0, 0, len(candidates)
    dd = _reference_search(index, q, source, session)
    intervals = _all_intervals(index, q, candidates, dd)
    ok_upper = sorted(iv.upper for iv in intervals)[k - 1]
    lowers = sorted(iv.lower for iv in intervals)
    rejected = accepted = 0
    for iv in intervals:
        if iv.lower > ok_upper:
            rejected += 1
        elif (
            bisect.bisect_right(lowers, iv.upper) - 1 <= k - 1
            and math.isfinite(iv.upper)
        ):
            accepted += 1
    return (
        len(candidates), rejected, accepted,
        len(candidates) - rejected - accepted,
    )


class TestEnvelopeFirstPrune:
    """Session path (the cached search) and bare path (a search of its
    own) alike; an infinite ``U`` must drop nothing."""

    @given(
        world_seed=st.integers(0, 3),
        data=st.data(),
        r=st.floats(0.0, 90.0, allow_nan=False),
        use_session=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_irq_decides_as_the_all_exact_prune(
        self, world_seed, data, r, use_session
    ):
        space, index, oracle, session = _straddling_world(world_seed)
        q = data.draw(query_points(space))
        session = session if use_session else None
        stats = QueryStats()
        got = iRQ(
            q, r, index, stats=stats,
            precomputed_dd=session and session.door_distances(q),
        )
        assert got.ids() == oracle.range_query(q, r)
        assert (
            stats.rejected_by_bounds, stats.accepted_by_bounds, stats.refined
        ) == _reference_irq_decisions(index, q, r, session)

    @given(
        world_seed=st.integers(0, 3),
        data=st.data(),
        k=st.integers(1, 49),
        use_session=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_iknn_decides_as_the_all_exact_prune(
        self, world_seed, data, k, use_session
    ):
        space, index, oracle, session = _straddling_world(world_seed)
        q = data.draw(query_points(space))
        session = session if use_session else None
        stats = QueryStats()
        got = ikNNQ(
            q, k, index, stats=stats,
            precomputed_dd=session and session.door_distances(q),
        )
        exact = oracle.all_distances(q)
        kth = oracle.kth_distance(q, k)
        reachable = sum(1 for d in exact.values() if math.isfinite(d))
        assert len(got) == min(k, reachable)
        for oid in got.ids():
            assert exact[oid] <= kth + 1e-6
        assert (
            stats.candidates_after_filtering,
            stats.rejected_by_bounds,
            stats.accepted_by_bounds,
            stats.refined,
        ) == _reference_iknn_decisions(index, q, k, session)

    def test_seed_pool_starts_at_2k(self):
        """Here ``k`` seeds already decide a ``kbound``, and ``2k`` a
        tighter one: the widening ``(k, 2k, 4k)`` filters more
        candidates, and ikNNQ, which starts from ``2k``, decides as
        the ``(2k, 4k)`` reference and answers as the oracle."""
        space, index, oracle, _ = _straddling_world(0)
        q, k = space.random_point(seed=24), 5
        stats = QueryStats()
        got = ikNNQ(q, k, index, stats=stats)
        decisions = (
            stats.candidates_after_filtering,
            stats.rejected_by_bounds,
            stats.accepted_by_bounds,
            stats.refined,
        )
        assert decisions == _reference_iknn_decisions(index, q, k, None)
        from_k = _reference_iknn_decisions(index, q, k, None, (1, 2, 4))
        assert decisions[0] < from_k[0]
        assert decisions[2:] == from_k[2:]
        want = dict(oracle.knn_query(q, k))
        assert got.ids() == set(want)
        for oid, d in got.distances.items():
            assert d is None or d == want[oid]

    @pytest.mark.parametrize("use_session", [False, True])
    def test_infinite_ceiling_drops_nothing(self, five_rooms, use_session):
        """With r3 shut off, fewer than ``k`` candidates have a finite
        ``hi``: ``U`` is infinite and every candidate must reach the
        exact rule, which rejects none of them either."""
        pop = ObjectGenerator(
            five_rooms, radius=2.5, n_instances=8, seed=3
        ).generate(30)
        index = CompositeIndex.build(five_rooms, pop)
        index.apply_event(CloseDoor("d3"))
        oracle = NaiveEvaluator(five_rooms, pop)
        session = QuerySession(index) if use_session else None
        q = five_rooms.random_point(seed=1)
        reachable = sum(
            1 for d in oracle.all_distances(q).values() if math.isfinite(d)
        )
        assert 0 < reachable < len(pop)
        k = reachable + 1
        stats = QueryStats()
        got = ikNNQ(
            q, k, index, stats=stats,
            precomputed_dd=session and session.door_distances(q),
        )
        assert got.ids() == {oid for oid, _ in oracle.knn_query(q, reachable)}
        assert stats.candidates_after_filtering == len(pop)
        assert stats.rejected_by_bounds == 0
        assert (
            stats.candidates_after_filtering,
            stats.rejected_by_bounds,
            stats.accepted_by_bounds,
            stats.refined,
        ) == _reference_iknn_decisions(index, q, k, session)


# ----------------------------------------------------------------------
# rooms whose doors lie far apart
# ----------------------------------------------------------------------

#: The hallway spans y in [0, 5], every room y in [5, 15].
HALL_Y, ROOM_Y = (0.0, 5.0), (5.0, 15.0)


@st.composite
def _inside(draw, span):
    """A coordinate strictly inside ``span``, on a half-metre lattice."""
    lo, hi = span
    return lo + draw(st.integers(1, int(2 * (hi - lo)) - 1)) / 2.0


@st.composite
def two_door_worlds(draw):
    """A row of rooms above one hallway, as plain data.  A room's
    hallway doors (none, one, or two near its two ends) lie far apart;
    neighbours may share a room-to-room door; objects spread their
    instances over up to three partitions.  The query point, radius,
    ``k`` and iPRQ threshold come with it."""
    widths = draw(st.lists(st.integers(8, 24), min_size=2, max_size=4))
    xs = [0.0, *itertools.accumulate(map(float, widths))]
    rooms = list(zip(xs, xs[1:]))
    hall = (0.0, xs[-1] + draw(st.integers(0, 12)))
    room_doors = [
        (i, draw(_inside(ROOM_Y)))
        for i in range(len(rooms) - 1)
        if draw(st.booleans())
    ]
    hall_doors = []
    for i, (x0, x1) in enumerate(rooms):
        ends = ((x0, x0 + (x1 - x0) / 4.0), (x1 - (x1 - x0) / 4.0, x1))
        n = draw(st.integers(0, 2))
        if n == 1:
            hall_doors.append((i, draw(_inside((x0, x1)))))
        elif n == 2:
            hall_doors += [(i, draw(_inside(end))) for end in ends]
    for i, (x0, x1) in enumerate(rooms):
        has_door = any(j == i for j, _ in hall_doors) or any(
            j in (i - 1, i) for j, _ in room_doors
        )
        if not has_door or not hall_doors:
            hall_doors.append((i, (x0 + x1) / 2.0))
    spans = [(x, ROOM_Y) for x in rooms] + [(hall, HALL_Y)]
    objects = []
    for _ in range(draw(st.integers(2, 6))):
        homes = draw(
            st.lists(
                st.sampled_from(spans), min_size=1, max_size=3, unique=True
            )
        )
        instances = []
        for _ in range(draw(st.integers(1, 8))):
            xspan, yspan = draw(st.sampled_from(homes))
            instances.append((draw(_inside(xspan)), draw(_inside(yspan))))
        objects.append(instances)
    xspan, yspan = draw(st.sampled_from(spans))
    return dict(
        rooms=rooms,
        hall=hall,
        hall_doors=hall_doors,
        room_doors=room_doors,
        objects=objects,
        q=(draw(_inside(xspan)), draw(_inside(yspan))),
        # A radius, or the exact distance of an object: the boundary
        # where a wrongly costed instance moves the decision.
        r=draw(
            st.one_of(
                st.integers(0, 120).map(lambda r: r / 2.0),
                st.integers(0, len(objects) - 1),
            )
        ),
        k=draw(st.integers(1, len(objects))),
        theta=draw(st.sampled_from([0.25, 0.5, 0.875, 1.0])),
    )


#: The two-door room of ``tests/queries/test_two_door_room.py``: ``o``
#: qualifies on its mean through ``A``'s door into ``B``, and its
#: hallway instance is reached through ``B``'s far door.
TWO_DOOR_ROOM = dict(
    rooms=[(0.0, 10.0), (10.0, 30.0)],
    hall=(0.0, 40.0),
    hall_doors=[(0, 8.0), (1, 29.0)],
    room_doors=[(0, 14.0)],
    objects=[
        [
            (16.0, 14.0), (16.5, 14.0), (17.0, 14.0), (16.0, 13.5),
            (16.5, 13.5), (17.0, 13.5), (16.5, 14.5), (35.0, 2.0),
        ],
        [(19.7, 14.0)],
    ],
    q=(9.5, 14.0),
    r=10.0,
    k=1,
    theta=0.5,
)


def _build_two_door(spec):
    b = SpaceBuilder()
    b.add_hallway("H", Rect(spec["hall"][0], HALL_Y[0], spec["hall"][1], 5))
    for i, (x0, x1) in enumerate(spec["rooms"]):
        b.add_room(f"R{i}", Rect(x0, ROOM_Y[0], x1, ROOM_Y[1]))
    for j, (i, x) in enumerate(spec["hall_doors"]):
        b.connect(f"R{i}", "H", at=Point(x, HALL_Y[1], 0), door_id=f"h{j}")
    for i, y in spec["room_doors"]:
        x = spec["rooms"][i][1]
        b.connect(f"R{i}", f"R{i + 1}", at=Point(x, y, 0), door_id=f"r{i}")
    space = b.build()
    pop = ObjectPopulation(space)
    for j, xy in enumerate(spec["objects"]):
        xy = np.array(xy, dtype=np.float64)
        center = Point(*xy.mean(axis=0), 0)
        radius = float(np.hypot(*(xy - xy.mean(axis=0)).T).max()) + 0.5
        pop.insert(
            UncertainObject(
                f"o{j}", Circle(center, radius), InstanceSet.uniform(xy, 0)
            )
        )
    return space, pop


class TestDrawnTwoDoorWorlds:
    """A query's own door search and a session's cached one answer
    alike, and as the oracle, where an object's instances are reached
    through doors far apart — the shape a search restricted to the
    filtered partitions and cut off at the query bound gets wrong."""

    @given(spec=two_door_worlds())
    @example(spec=TWO_DOOR_ROOM)
    @settings(max_examples=40, deadline=None)
    def test_bare_equals_session_equals_oracle(self, spec):
        space, pop = _build_two_door(spec)
        index = CompositeIndex.build(space, pop)
        oracle = NaiveEvaluator(space, pop)
        session = QuerySession(index)
        q = Point(*spec["q"], 0)
        k, theta = spec["k"], spec["theta"]
        exact = oracle.all_distances(q)
        r = spec["r"]
        if isinstance(r, int):
            r = exact[f"o{r}"] if math.isfinite(exact[f"o{r}"]) else 0.0
        want = oracle.range_query(q, r)
        for with_pruning in (True, False):
            assert iRQ(q, r, index, with_pruning=with_pruning).ids() == want
        assert session.irq(q, r).ids() == want
        kth = oracle.kth_distance(q, k)
        reachable = sum(1 for d in exact.values() if math.isfinite(d))
        bare = ikNNQ(q, k, index).ids()
        assert session.iknnq(q, k).ids() == bare
        assert len(bare) == min(k, reachable)
        assert all(exact[oid] <= kth + 1e-6 for oid in bare)
        want = oracle.prob_range_query(q, r, theta)
        assert iPRQ(q, r, theta, index).ids() == want
        assert session.iprq(q, r, theta).ids() == want
