"""Objects straddling a staircase shaft, asked from the shaft.

The filter tests an object on another floor than ``q`` by its legs to
the staircase entrances of its own floor (Lemma 6's skeleton bound).
An instance *inside* a staircase lies in a partition that spans
several floors: a path may reach it from any entrance of that shaft,
and an object with instances inside and outside the shaft has
subregions on both sides of its walls.  Here every shaft of a small
mall holds such objects on every floor it spans, and the query points
stand on each of those floors, inside the shaft and on its walls
(corners and wall midpoints, where the shaft and its neighbour both
contain ``q``).  iRQ, ikNNQ and iPRQ must equal the oracle, which
shares no index structure with them.
"""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import iPRQ, iRQ, ikNNQ
from repro.reference import NaiveEvaluator
from repro.reference.tree import range_search_tree
from repro.space.mall import build_mall


@functools.lru_cache(maxsize=None)
def _shaft_world(seed, floors):
    """A small mall whose every staircase holds, on every floor it
    spans, one object centred inside it and wider than it, beside a
    few objects placed at random."""
    space = build_mall(
        floors=floors, bands=2, rooms_per_band_side=3, floor_size=60.0,
        hallway_width=4.0, stair_size=8.0, seed=seed,
    )
    gen = ObjectGenerator(space, radius=5.0, n_instances=8, seed=seed)
    pop = gen.generate(12)
    stairs = space.staircases()
    for i, stair in enumerate(stairs):
        b = stair.bounds
        for floor in range(stair.floor, stair.upper_floor + 1):
            t = (i + floor + seed) % 3 / 4.0 + 0.25
            center = Point(
                b.minx + t * (b.maxx - b.minx),
                b.miny + (1.0 - t) * (b.maxy - b.miny),
                floor,
            )
            pop.insert(gen.generate_one(center))
    index = CompositeIndex.build(space, pop)
    inside = sum(
        stair.contains_xy(x, y)
        for obj in pop
        for stair in stairs
        if stair.floor <= obj.floor <= stair.upper_floor
        for x, y in obj.instances.xy.tolist()
    )
    assert inside > 0
    return space, index, NaiveEvaluator(space, pop)


def _shaft_points(stair, floor):
    """The shaft's centre, four corners and four wall midpoints."""
    b = stair.bounds
    xs = (b.minx, (b.minx + b.maxx) / 2.0, b.maxx)
    ys = (b.miny, (b.miny + b.maxy) / 2.0, b.maxy)
    return [Point(x, y, floor) for x in xs for y in ys]


class TestObjectsStraddlingAStaircase:
    @given(
        world=st.sampled_from([(0, 2), (1, 3), (2, 2), (3, 3)]),
        data=st.data(),
        r=st.sampled_from([6.0, 15.0, 30.0, 70.0]),
        k=st.integers(1, 8),
        p_min=st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_results_equal_the_oracle(self, world, data, r, k, p_min):
        space, index, oracle = _shaft_world(*world)
        stair = data.draw(st.sampled_from(space.staircases()))
        floor = data.draw(st.integers(stair.floor, stair.upper_floor))
        q = data.draw(st.sampled_from(_shaft_points(stair, floor)))
        got = index.range_search(q, r)
        want = range_search_tree(index, q, r)
        assert {o.object_id for o in got.objects} == {
            o.object_id for o in want.objects
        }
        assert got.partitions == want.partitions
        assert iRQ(q, r, index).ids() == oracle.range_query(q, r), (q, r)
        assert iPRQ(q, r, p_min, index).ids() == oracle.prob_range_query(
            q, r, p_min
        ), (q, r, p_min)
        exact = oracle.all_distances(q)
        kth = oracle.kth_distance(q, k)
        reachable = sum(math.isfinite(d) for d in exact.values())
        got = ikNNQ(q, k, index).ids()
        assert len(got) == min(k, reachable), q
        for oid in got:
            assert exact[oid] <= kth + 1e-6, (q, k)

    def test_the_floor_above_is_reached_inside_the_shaft(self):
        """From the shaft's wall on floor 0, the object inside the shaft
        on floor 1 is 5-6 m away straight up the stairs, while every
        path through an entrance is longer than ``r``: the skeleton
        bound alone dropped it."""
        space, index, oracle = _shaft_world(0, 2)
        q = Point(0.0, 2.0, 0)
        upstairs = oracle.range_query(q, 6.0) - {
            o.object_id for o in index.population if o.floor == 0
        }
        assert upstairs
        assert upstairs <= iRQ(q, 6.0, index).ids()

    def test_the_shaft_above_is_entered_on_another_floor(self):
        """Stacked shafts: from floor 0 of the lower one, the object
        inside the upper one on floor 2 is reached by entering it at its
        floor-1 entrance and climbing, not through a floor-2 entrance:
        legs to its own floor's entrances alone dropped it."""
        space, index, oracle = _shaft_world(1, 3)
        q = Point(0.0, 0.0, 0)
        assert iPRQ(q, 15.0, 0.1, index).ids() == oracle.prob_range_query(
            q, 15.0, 0.1
        )
