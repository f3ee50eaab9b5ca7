"""Unit tests for the synthetic mall generator."""

import math

import pytest

from repro.errors import SpaceError
from repro.space import DoorsGraph, PartitionKind
from repro.space.mall import MallParameters, build_mall, generate_mall, mall_statistics


class TestStructure:
    def test_default_counts_match_paper_plan(self):
        space = build_mall(floors=1)
        stats = mall_statistics(space)
        assert stats["rooms"] == 100
        assert stats["floors"] == 1
        assert stats["staircases"] == 0  # single floor: no shafts needed

    def test_two_floor_staircases(self):
        space = build_mall(floors=2)
        stats = mall_statistics(space)
        assert stats["staircases"] == 4
        assert stats["floors"] == 2

    def test_multi_floor_shaft_count(self):
        space = build_mall(floors=4, bands=2, rooms_per_band_side=2)
        assert mall_statistics(space)["staircases"] == 4 * 3

    def test_partitions_per_floor_formula(self):
        params = MallParameters(floors=1, bands=3, rooms_per_band_side=4)
        space = generate_mall(params)
        assert len(space.partitions) == params.partitions_per_floor
        assert params.rooms_per_floor == 24

    def test_validates(self, small_mall):
        assert small_mall.validate() == []

    def test_no_partition_overlaps_on_same_floor(self, small_mall):
        """Only stacked shafts of one corner may overlap in plan; every
        other same-floor pair (including room vs staircase) is disjoint."""
        parts = list(small_mall.partitions.values())
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                shared_floors = set(
                    range(a.floor, a.upper_floor + 1)
                ) & set(range(b.floor, b.upper_floor + 1))
                if not shared_floors:
                    continue
                both_stairs = (
                    a.kind is PartitionKind.STAIRCASE
                    and b.kind is PartitionKind.STAIRCASE
                )
                if both_stairs:
                    continue  # same-corner shaft stacks legitimately align
                inter = a.bounds.intersection(b.bounds)
                assert inter is None or inter.area == pytest.approx(0.0), (
                    a.partition_id, b.partition_id,
                )


class TestConnectivity:
    def test_every_door_reachable_from_any_room(self, small_mall):
        graph = DoorsGraph.from_space(small_mall)
        q = small_mall.random_point(seed=0)
        dd = graph.dijkstra_from_point(q)
        unreachable = [
            d for d in small_mall.doors
            if not math.isfinite(dd.distance_to(d))
        ]
        assert unreachable == []

    def test_cross_floor_distance_exceeds_floor_height(self, small_mall):
        graph = DoorsGraph.from_space(small_mall)
        q = small_mall.random_point(seed=1)
        p_other = None
        for seed in range(2, 50):
            cand = small_mall.random_point(seed=seed)
            if cand.floor != q.floor:
                p_other = cand
                break
        assert p_other is not None
        dist = graph.indoor_distance(q, p_other)
        assert dist > small_mall.floor_height


class TestParameters:
    def test_bad_parameters_rejected(self):
        with pytest.raises(SpaceError):
            build_mall(floors=0)
        with pytest.raises(SpaceError):
            build_mall(bands=0)
        with pytest.raises(SpaceError):
            build_mall(hallway_width=200.0, floor_size=300.0)

    def test_one_way_fraction(self):
        space = build_mall(
            floors=1, bands=2, rooms_per_band_side=3, floor_size=120.0,
            hallway_width=4.0, one_way_fraction=1.0, seed=1,
        )
        room_doors = [
            d for d in space.doors.values()
            if any(
                space.partition(pid).kind is PartitionKind.ROOM
                for pid in d.partitions
            )
        ]
        assert room_doors
        assert all(d.direction.value == "one_way" for d in room_doors)

    def test_determinism(self):
        a = build_mall(floors=2, seed=5, one_way_fraction=0.3)
        b = build_mall(floors=2, seed=5, one_way_fraction=0.3)
        assert set(a.doors) == set(b.doors)
        for did in a.doors:
            assert a.door(did).direction == b.door(did).direction
