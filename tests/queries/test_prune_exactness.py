"""The one-shot prune's array paths held to their scalar references.

Two bounds changed hands from per-object Python to the index's columnar
table, and neither may move a float:

* the seeds' Lemma 3 bound (:meth:`repro.queries.knn.SeedExpansion.
  seed_upper_bounds`) against
  :func:`repro.distances.bounds.topological_looser_upper_bound`;
* the candidates' envelope (``pruning_phase(...).lo`` / ``.hi``)
  against :func:`repro.distances.bounds.topological_bounds`, and the
  on-demand interval against
  :func:`~repro.distances.bounds.object_bounds`.

Every comparison is exact ``==`` on floats, as in
``tests/distances/test_batch.py``.
"""

import math

import pytest

from repro.distances.bounds import (
    object_bounds,
    subregion_stats,
    topological_bounds,
    topological_looser_upper_bound,
)
from repro.geometry import Point
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries.engine import (
    filtering_phase,
    locate_source,
    pruning_phase,
    subgraph_phase,
)
from repro.queries.knn import SeedExpansion
from repro.space.events import CloseDoor, OpenDoor


def _index(space, n, radius, seed):
    gen = ObjectGenerator(space, radius=radius, n_instances=10, seed=seed)
    index = CompositeIndex.build(space, gen.generate(n))
    # One object astride every door: multi-partition seeds, whose other
    # half may lie beyond the expansion frontier (an infinite TLU).
    for door in space.doors.values():
        mid = door.midpoint
        index.insert_object(
            gen.generate_one(center=Point(mid.x, mid.y, mid.floor))
        )
    return index


def _assert_seed_bounds_exact(index, q, ks):
    """Table-gathered TLUs ``==`` the scalar Lemma 3 of every seed, at
    each stop of one resumed expansion; returns what it compared."""
    space, grid = index.space, index.population.grid
    expansion = SeedExpansion(index, q, locate_source(index, q))
    compared = []
    for k in ks:
        expansion.extend(k)
        reference = [
            topological_looser_upper_bound(
                q, seed, expansion.known_paths, space, grid
            )
            for seed in expansion.seeds
        ]
        assert expansion.seed_upper_bounds().tolist() == reference
        # Lemma 3 reads ``ent_max`` at the arrival door's entry, which
        # exists because every known path enters through an entry door.
        for pid, door_id in expansion.arrival_doors.items():
            assert door_id in {d.door_id for d in space.entry_doors(pid)}
            arrival, _ = expansion.known_paths[pid]
            assert arrival == space.doors[door_id].midpoint
        compared.extend(zip(expansion.seeds, reference))
    return compared


class TestSeedBoundsFromTheTable:
    def test_five_rooms(self, five_rooms):
        index = _index(five_rooms, 30, 2.5, seed=5)
        # Astride the r2 | r3 wall, which no door crosses: expanding r2
        # alone leaves its r3 half without a known path.
        walled = ObjectGenerator(
            five_rooms, radius=2.5, n_instances=10, seed=55, id_prefix="w"
        )
        index.insert_object(walled.generate_one(center=Point(20, 5, 0)))
        seen = []
        for q in (Point(15, 5, 0), Point(15, 12, 0), Point(25, 20, 0)):
            seen += _assert_seed_bounds_exact(index, q, (1, 4, 8, 40))
        grid = index.population.grid
        many = [
            tlu for seed, tlu in seen
            if len(seed.subregions(five_rooms, grid)) > 1
        ]
        # Both outcomes of a straddler were compared.
        assert any(math.isinf(tlu) for tlu in many)
        assert any(math.isfinite(tlu) for tlu in many)

    def test_small_mall_across_floors(self, small_mall):
        index = _index(small_mall, 60, 4.0, seed=6)
        for seed in range(6):
            q = small_mall.random_point(seed=seed)
            _assert_seed_bounds_exact(index, q, (3, 6, 12, 200))

    def test_one_way_door(self, one_way_space):
        """An exit door of ``pid`` that is not an entry door of the
        neighbour cannot exist — ``Door.allows_exit(pid)`` implies
        ``allows_entry(other_side(pid))`` — so the gather needs no
        fallback; r1 is reached around the one-way door, r2 -> r1
        through it."""
        index = _index(one_way_space, 20, 2.5, seed=7)
        for q in (Point(5, 5, 0), Point(15, 5, 0), Point(10, 12, 0)):
            _assert_seed_bounds_exact(index, q, (2, 5, 30))
        from_r2 = SeedExpansion(index, Point(15, 5, 0), "r2")
        from_r2.extend(30)
        assert from_r2.arrival_doors["r1"] == "d21"
        from_r1 = SeedExpansion(index, Point(5, 5, 0), "r1")
        from_r1.extend(30)
        assert from_r1.arrival_doors["r2"] == "dh2"

    def test_after_door_close_and_reopen(self, five_rooms):
        index = _index(five_rooms, 30, 2.5, seed=8)
        q = Point(5, 5, 0)
        _assert_seed_bounds_exact(index, q, (4, 40))
        for event in (CloseDoor("d12"), OpenDoor("d12")):
            before = index.columns.layout()
            index.apply_event(event)
            _assert_seed_bounds_exact(index, q, (4, 40))
            layout = index.columns.layout()
            assert layout is not before
            assert layout.topology_version == five_rooms.topology_version


class TestEnvelopeIsTheTopologicalBounds:
    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("r", [15.0, 45.0])
    def test_lo_hi_and_interval(self, small_mall, r, restricted):
        index = _index(small_mall, 60, 4.0, seed=9)
        space, grid = index.space, index.population.grid
        straddlers = 0
        for seed in range(4):
            q = small_mall.random_point(seed=seed)
            source = locate_source(index, q)
            filtered, _ = filtering_phase(index, q, r, True)
            if restricted:
                dd, _ = subgraph_phase(
                    index, q, source, filtered.partitions, cutoff=r
                )
                floor = r
            else:
                dd = index.doors_graph.dijkstra_from_point(q, source)
                floor = None
            bounds = pruning_phase(
                index, filtered.objects, dd, search_radius=floor
            )
            assert len(bounds.lo) == len(bounds.hi) == len(filtered.objects)
            for j, obj in enumerate(filtered.objects):
                stats = [
                    subregion_stats(q, s, dd, space, unreached_floor=floor)
                    for s in obj.subregions(space, grid)
                ]
                straddlers += len(stats) > 1
                envelope = topological_bounds(stats)
                assert bounds.lo[j] == envelope.lower
                assert bounds.hi[j] == envelope.upper
                assert bounds.interval(j) == object_bounds(
                    q, obj, dd, space, grid, unreached_floor=floor
                )
        assert straddlers
