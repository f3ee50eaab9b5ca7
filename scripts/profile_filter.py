#!/usr/bin/env python3
"""Filter-phase profile: the columnar RangeSearch (Algorithm 4).

Prints

* on world A and world B (``benchmarks/e2e/worlds.py``, one seed): the
  median time of ``CompositeIndex.range_search`` over the calls the
  ``oneshot_mix`` query sequence makes (its kiosks, kinds and levels,
  replayed through a ``QueryService``; each recorded call then timed
  best of three), and the columnar table's ``nbytes``;
* at the ``PAPER`` scale (``WorkloadFactory(PAPER)``: 20 000 objects x
  100 instances) for 10 / 20 / 30 floors and r = 50 / 100 / 150: the
  median columnar ``range_search`` and tree-walk ``range_search_tree``
  over the profile's query points, and their ratio.

The world profile uses only public names both sides of a change share,
so the same script measures a parent checkout and a change (the
``PAPER`` profile's tree walk is ``repro.reference.tree``'s)::

    PYTHONPATH=<tree>/src python scripts/profile_filter.py <tree>

``--rounds`` sets the mix rounds replayed (three queries each);
``--no-paper`` skips the ``PAPER`` grid (about a minute per floor
count, most of it the build).  Run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path


def _best(call, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def mix_calls(world, rounds: int) -> list[tuple]:
    """The ``(q, r, use_skeleton)`` of every ``range_search`` the
    ``oneshot_mix`` sequence makes in ``rounds`` rounds: kiosks
    alternately from the 32 recurring points and the rest of a
    512-point pool, three kinds per kiosk, levels cycling."""
    from worlds import ONESHOT_KINDS

    from repro.api import QueryService, ServiceConfig

    pool, hot_n = world.points(512, salt=11), 32
    order = random.Random(13)
    hot = order.sample(range(hot_n), hot_n)
    cold = order.sample(range(hot_n, len(pool)), len(pool) - hot_n)
    index = world.index
    calls = []
    search = index.range_search

    def recorded(q, r, use_skeleton=True):
        calls.append((q, r, use_skeleton))
        return search(q, r, use_skeleton)

    index.range_search = recorded
    try:
        service = QueryService(index, ServiceConfig())
        for round_no in range(rounds):
            cycle = cold if round_no % 2 else hot
            q = pool[cycle[(round_no // 2) % len(cycle)]]
            for _, make in ONESHOT_KINDS:
                service.run(make(q, round_no % 3))
    finally:
        del index.range_search
    return calls


def profile_world(shape, seed: int, rounds: int) -> dict[str, float]:
    from worlds import World

    world = World.build(shape, seed)
    index = world.index
    calls = mix_calls(world, rounds)
    times = [_best(lambda c=c: index.range_search(*c)) for c in calls]
    return {
        "range_search_calls": len(calls),
        "range_search_us_median": 1e6 * statistics.median(times),
        "columns_nbytes": index.columns.nbytes,
    }


def profile_paper(seed: int | None) -> None:
    from repro.bench.workloads import PAPER, WorkloadFactory
    from repro.reference.tree import range_search_tree

    for floors in PAPER.floors_grid:
        factory = WorkloadFactory(PAPER, seed=seed)
        index = factory.index(floors=floors)
        points = factory.query_points(floors=floors)
        index.range_search(points[0], 1.0)  # build the table
        for r in PAPER.ranges_grid:
            columnar = statistics.median(
                _best(lambda q=q: index.range_search(q, r)) for q in points
            )
            tree = statistics.median(
                _best(lambda q=q: range_search_tree(index, q, r), 1)
                for q in points
            )
            print(
                f"PAPER floors={floors:2d} r={r:5.0f}  "
                f"columnar {1e3 * columnar:8.3f} ms  "
                f"tree {1e3 * tree:8.3f} ms  "
                f"tree/columnar {tree / columnar:6.1f}"
            )
        del factory, index


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "tree", type=Path, nargs="?", default=Path(__file__).parent.parent
    )
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--no-paper", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(args.tree / "benchmarks" / "e2e"))
    from worlds import WORLD_A, WORLD_B

    for name, shape in (("A", WORLD_A), ("B", WORLD_B)):
        row = profile_world(shape, args.seed, args.rounds)
        for key, value in row.items():
            print(f"world {name} {key:24s} {value:14,.1f}")
    if not args.no_paper:
        profile_paper(None)


if __name__ == "__main__":
    main()
