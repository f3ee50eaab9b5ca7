"""Shared scenario machinery for the continuous-monitoring property
tests: randomized floorplans, standing-query registration and the
from-scratch equivalence assertion.  Used by
``test_prop_monitor.py`` (single monitor vs oracle) and
``test_prop_deltas.py`` (delta replay); the index's bucket ground truth
by ``test_prop_range_search.py`` and ``tests/index/test_composite.py``;
the boundary query points by ``test_prop_queries.py`` and
``tests/index/test_composite.py``."""

import math

import pytest

from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.geometry import Point
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import iRQ
from repro.reference import NaiveEvaluator
from repro.reference.tree import resolve_units
from repro.space.mall import build_mall


def build_world(seed: int, n_objects: int):
    """A randomized floorplan + population + monitor-ready index.

    Deterministic in ``seed``: calling twice yields two *independent*
    but identical worlds (same spaces, same object ids and positions) —
    equivalence tests run twin worlds in lockstep.
    """
    space = build_mall(
        floors=1 + seed % 2,
        bands=2,
        rooms_per_band_side=2 + seed % 2,
        floor_size=100.0,
        hallway_width=4.0,
        stair_size=10.0,
        seed=seed,
    )
    gen = ObjectGenerator(space, radius=3.0, n_instances=6, seed=seed)
    pop = gen.generate(n_objects)
    index = CompositeIndex.build(space, pop)
    return space, gen, pop, index


def assert_buckets_are_the_tree_walk(index):
    """Every leaf bucket the index reads — the CSR its table derives
    from the unit rows — equals the inverse of each population object's
    indR-tree walk (``reference.tree.resolve_units``), which neither
    search reads."""
    want: dict[str, set[str]] = {}
    for obj in index.population:
        for unit_id in resolve_units(index, obj):
            want.setdefault(unit_id, set()).add(obj.object_id)
    got = {
        unit_id: index.columns.objects_in(unit_id)
        for unit_id in index.units
    }
    assert {u: ids for u, ids in got.items() if ids} == want


def boundary_points(space) -> list[Point]:
    """Points where partitions meet: every door midpoint, and each
    partition's four corners and four wall midpoints on every floor it
    spans.  A point on a shared wall lies in two partitions, so two
    locators that break the tie differently part ways here (some
    corners of a non-rectangular footprint lie in no partition)."""
    points = [door.midpoint for door in space.doors.values()]
    for partition in space.partitions.values():
        b = partition.bounds
        xs = (b.minx, (b.minx + b.maxx) / 2, b.maxx)
        ys = (b.miny, (b.miny + b.maxy) / 2, b.maxy)
        for floor in range(partition.floor, partition.upper_floor + 1):
            points += [
                Point(x, y, floor)
                for x in xs
                for y in ys
                if (x, y) != (xs[1], ys[1])
            ]
    return points


def register_random_queries(monitor, space, rng):
    """Two standing iRQs and two ikNNQs at random points/parameters."""
    irqs = [
        (monitor.register(RangeSpec(q, r)), q, r)
        for q, r in (
            (space.random_point(rng=rng), rng.uniform(15.0, 60.0)),
            (space.random_point(rng=rng), rng.uniform(15.0, 60.0)),
        )
    ]
    knns = [
        (monitor.register(KNNSpec(q, k)), q, k)
        for q, k in (
            (space.random_point(rng=rng), rng.randint(2, 8)),
            (space.random_point(rng=rng), rng.randint(2, 8)),
        )
    ]
    return irqs, knns


def register_random_prob_queries(monitor, space, rng):
    """Two standing iPRQs at random points/ranges/thresholds."""
    return [
        (monitor.register(ProbRangeSpec(q, r, p)), q, r, p)
        for q, r, p in (
            (
                space.random_point(rng=rng),
                rng.uniform(10.0, 45.0),
                rng.uniform(0.25, 0.75),
            ),
            (
                space.random_point(rng=rng),
                rng.uniform(10.0, 45.0),
                rng.uniform(0.25, 0.75),
            ),
        )
    ]


def assert_prob_equivalent(monitor, space, pop, probs):
    """Each standing iPRQ's maintained membership equals the oracle's
    from-scratch probabilistic-threshold evaluation."""
    oracle = NaiveEvaluator(space, pop)
    for qid, q, r, p_min in probs:
        assert monitor.result_ids(qid) == \
            oracle.prob_range_query(q, r, p_min)


def assert_equivalent(monitor, space, pop, index, irqs, knns):
    """The monitor's maintained results equal from-scratch execution:
    iRQ by exact set equality, ikNNQ tie-aware."""
    oracle = NaiveEvaluator(space, pop)
    for qid, q, r in irqs:
        got = monitor.result_ids(qid)
        assert got == iRQ(q, r, index).ids()
        assert got == oracle.range_query(q, r)
    for qid, q, k in knns:
        exact = oracle.all_distances(q)
        kth = oracle.kth_distance(q, k)
        got = monitor.result_distances(qid)
        reachable = sum(1 for d in exact.values() if math.isfinite(d))
        assert len(got) == min(k, reachable)
        for oid, d in got.items():
            assert exact[oid] <= kth + 1e-6
            assert exact[oid] == pytest.approx(d, abs=1e-6)
