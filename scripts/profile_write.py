#!/usr/bin/env python3
"""Index-write profile: ``CompositeIndex.update_objects`` alone.

On world A (``benchmarks/e2e/worlds.py``, one seed) the script drives
the world's random-walk movement stream through the index — no monitor,
no service — at 1 / 5 / 20 / 80 moves a batch, and prints per batch
size

* the median wall time of one ``update_objects`` call, in µs (the
  stream's own move generation is not timed), and beside it the split
  of that call: the median µs in ``ObjectColumns.stage`` and in
  ``ObjectColumns.commit``, and the mean µs of writing queued batches
  (``ObjectColumns._flush``, where the tree has one — inside
  ``commit`` when a batch repeats a queued object or would overflow
  the queue; a tree that writes at once reads 0 there);
* the function calls one batch makes under ``cProfile`` (its
  ``total_calls`` over a separate run of batches, divided by their
  number), and how many of them construct a ``Subregion``;
* the columnar table's ``nbytes`` after the batches;

and, over all ``--sizes``, a least-squares line through the medians:
the fixed cost a call pays whatever its size and the cost of each
moved object, for ``update_objects`` and for the stage.

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

import numpy as np

#: The write's steps, timed per batch where the tree has them.
SPLIT = ("stage", "commit", "_flush")


def install_split() -> dict[str, float]:
    """Wrap the table's write steps by name; returns the dict their
    seconds accumulate in (one key per step)."""
    from repro.index.columns import ObjectColumns

    spent = dict.fromkeys(SPLIT, 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0

        return wrapper

    for name in SPLIT:
        if hasattr(ObjectColumns, name):
            setattr(
                ObjectColumns, name, timed(name, getattr(ObjectColumns, name))
            )
    return spent


def profile_size(
    world, stream, size: int, batches: int, spent: dict[str, float]
) -> dict:
    index = world.index
    times = []
    split: dict[str, list[float]] = {name: [] for name in SPLIT}
    for _ in range(batches):
        moves = stream.next_moves(size)
        for name in SPLIT:
            spent[name] = 0.0
        t0 = time.perf_counter()
        index.update_objects(moves)
        times.append(time.perf_counter() - t0)
        for name in SPLIT:
            split[name].append(spent[name])
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
        "stage_us": 1e6 * statistics.median(split["stage"]),
        "commit_us": 1e6 * statistics.median(split["commit"]),
        "flush_mean_us": 1e6 * statistics.mean(split["_flush"]),
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
    spent = install_split()
    rows = []
    for size in args.sizes:
        row = profile_size(world, stream, size, args.batches, spent)
        rows.append(row)
        print(
            f"moves={size:3d}  median {row['median_us']:9.1f} µs  "
            f"(stage {row['stage_us']:7.1f}  commit {row['commit_us']:6.1f}"
            f"  flush mean {row['flush_mean_us']:6.1f})  "
            f"calls/batch {row['calls_per_batch']:8.1f}  "
            f"Subregion()/batch {row['subregions_per_batch']:6.1f}  "
            f"columns_nbytes {row['columns_nbytes']:,}"
        )
    if len(set(args.sizes)) > 1:
        fits = (("update_objects", "median_us"), ("stage", "stage_us"))
        for label, key in fits:
            slope, fixed = np.polyfit(
                args.sizes, [row[key] for row in rows], 1
            )
            print(
                f"fit over sizes {' '.join(map(str, args.sizes))}: "
                f"{label} ≈ {fixed:.1f} µs fixed + {slope:.1f} µs a moved "
                "object"
            )


if __name__ == "__main__":
    main()
