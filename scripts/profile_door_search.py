#!/usr/bin/env python3
"""Door-search profile on the end-to-end benchmark's worlds.

For world A and world B (``benchmarks/e2e/worlds.py``, one seed, 256
kiosks from ``World.points(256, salt=11)``) prints: the median time of
a full single-source search (best of three per kiosk), the bytes one
search retains (tracemalloc, median over 64 kiosks), the bytes a full
256-entry ``QuerySession`` cache retains, on world A the
``PrecomputedDistanceIndex`` build time, and the oracle iPRQ
(``NaiveEvaluator.prob_range_query``, r = 100, p = 0.5) time.

Only public names both sides of a change share are used, so the same
script measures a parent checkout and a change::

    PYTHONPATH=<tree>/src python scripts/profile_door_search.py <tree>

Run it on an otherwise idle machine: a search is ~1 ms on world A.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path


def profile(shape, seed: int, precompute: bool) -> dict[str, float]:
    from worlds import World

    from repro.reference import NaiveEvaluator
    from repro.reference.precompute import PrecomputedDistanceIndex
    from repro.queries import QuerySession

    world = World.build(shape, seed)
    space, graph = world.space, world.index.doors_graph
    points = world.points(256, salt=11)
    sources = [space.locate(q).partition_id for q in points]
    graph.dijkstra_from_point(points[0], sources[0])  # build the graph
    times = []
    for q, source in zip(points, sources):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            graph.dijkstra_from_point(q, source)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    tracemalloc.start()
    retained = []
    for q, source in zip(points[:64], sources[:64]):
        before = tracemalloc.get_traced_memory()[0]
        dd = graph.dijkstra_from_point(q, source)
        retained.append(tracemalloc.get_traced_memory()[0] - before)
        del dd
    session = QuerySession(world.index)
    before = tracemalloc.get_traced_memory()[0]
    for q in points:
        session.door_distances(q)
    cache = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    row = {
        "doors": len(space.doors),
        "full_search_us_median": 1e6 * statistics.median(times),
        "retained_bytes_per_search": statistics.median(retained),
        "session_cache_256_bytes": cache,
    }
    if precompute:
        row["precompute_build_s"] = PrecomputedDistanceIndex(
            space
        ).build_seconds
    oracle = NaiveEvaluator(space, world.population)
    t0 = time.perf_counter()
    oracle.prob_range_query(points[0], 100.0, 0.5)
    row["oracle_iprq_s"] = time.perf_counter() - t0
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "tree", type=Path, nargs="?", default=Path(__file__).parent.parent
    )
    parser.add_argument("--seed", type=int, default=2013)
    args = parser.parse_args()
    sys.path.insert(0, str(args.tree / "benchmarks" / "e2e"))
    from worlds import WORLD_A, WORLD_B

    for name, shape in (("A", WORLD_A), ("B", WORLD_B)):
        for key, value in profile(shape, args.seed, name == "A").items():
            print(f"world {name} {key:28s} {value:14,.4f}")


if __name__ == "__main__":
    main()
