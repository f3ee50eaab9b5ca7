#!/usr/bin/env python3
"""Index-write profile: ``CompositeIndex.update_objects`` alone.

On world A (``benchmarks/e2e/worlds.py``, one seed) the script drives
the world's random-walk movement stream through the index — no monitor,
no service — at 1 / 5 / 20 / 80 moves a batch, and prints per batch
size

* the median wall time of one ``update_objects`` call, in µs (the
  stream's own move generation is not timed);
* the function calls one batch makes under ``cProfile`` (its
  ``total_calls`` over a separate run of batches, divided by their
  number), and how many of them construct a ``Subregion``;
* the columnar table's ``nbytes`` after the batches.

Only public names both sides of a change share are used, so the same
script measures a parent checkout and a change::

    PYTHONPATH=<tree>/src python scripts/profile_write.py <tree>

``--batches`` sets the timed batches per size (and, a tenth of it,
the profiled ones); ``--sizes`` the batch sizes.  Run it on an
otherwise idle machine and alternate parent and change.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time
from pathlib import Path


def profile_size(world, stream, size: int, batches: int) -> dict:
    index = world.index
    times = []
    for _ in range(batches):
        moves = stream.next_moves(size)
        t0 = time.perf_counter()
        index.update_objects(moves)
        times.append(time.perf_counter() - t0)
    profiled = max(1, batches // 10)
    profiler = cProfile.Profile()
    for _ in range(profiled):
        moves = stream.next_moves(size)
        profiler.enable()
        index.update_objects(moves)
        profiler.disable()
    stats = pstats.Stats(profiler)
    # ``Subregion`` lives in repro/reference/subregions.py (in
    # repro/objects/uncertain.py in older trees).
    subregions = sum(
        calls
        for (path, _, name), (calls, *_) in stats.stats.items()
        if path.endswith(("uncertain.py", "subregions.py"))
        and name == "__init__"
    )
    return {
        "median_us": 1e6 * statistics.median(times),
        "calls_per_batch": stats.total_calls / profiled,
        "subregions_per_batch": subregions / profiled,
        "columns_nbytes": index.columns.nbytes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "tree", type=Path, nargs="?", default=Path(__file__).parent.parent
    )
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--batches", type=int, default=200)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1, 5, 20, 80]
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.tree / "benchmarks" / "e2e"))
    from worlds import WORLD_A, World

    world = World.build(WORLD_A, args.seed)
    world.index.range_search(world.points(1, salt=1)[0], 1.0)  # build
    print(f"world A built columns_nbytes {world.index.columns.nbytes:,}")
    stream = world.stream()
    for size in args.sizes:
        row = profile_size(world, stream, size, args.batches)
        print(
            f"moves={size:3d}  median {row['median_us']:9.1f} µs  "
            f"calls/batch {row['calls_per_batch']:8.1f}  "
            f"Subregion()/batch {row['subregions_per_batch']:6.1f}  "
            f"columns_nbytes {row['columns_nbytes']:,}"
        )


if __name__ == "__main__":
    main()
