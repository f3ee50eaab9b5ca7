#!/usr/bin/env python3
"""Memory profile: what a built index holds, world by world.

For world B and world A (``benchmarks/e2e/worlds.py``, one seed) and,
with ``--paper``, the ``PAPER`` scale (``WorkloadFactory(PAPER,
seed=2013)``: 20 000 objects x 100 instances on 20 floors), each in a
fresh interpreter, the script builds the population and its index
(the columnar table included) and prints

* the population's instance bytes — every object's own ``xy`` and
  ``probs`` arrays;
* the columnar table's ``nbytes``;
* the bytes ``tracemalloc`` still traces once the build is done (the
  world, population and index are alive; the build's temporaries are
  not);
* the interpreter's max RSS (``ru_maxrss``), which includes the
  imports and ``tracemalloc``'s own bookkeeping.

Only public names both sides of a change share are used, so the same
script measures a parent checkout and a change::

    PYTHONPATH=<tree>/src python scripts/profile_memory.py <tree> [--paper]

``--worlds`` picks among B and A (both by default).  Alternate parent
and change on an otherwise idle machine.  The ``PAPER`` build takes
about half a minute under ``tracemalloc``.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

WORLDS = ("B", "A", "PAPER")


def build(name: str, tree: Path, seed: int):
    """The population and index of world ``name``."""
    if name == "PAPER":
        from repro.bench.workloads import PAPER, WorkloadFactory

        factory = WorkloadFactory(PAPER, seed=seed)
        index = factory.index()
        point = factory.query_points(n=1)[0]
        return index.population, index, point
    sys.path.insert(0, str(tree / "benchmarks" / "e2e"))
    from worlds import WORLD_A, WORLD_B, World

    world = World.build({"A": WORLD_A, "B": WORLD_B}[name], seed)
    return world.population, world.index, world.points(1, salt=1)[0]


def profile(name: str, tree: Path, seed: int) -> None:
    tracemalloc.start()
    population, index, point = build(name, tree, seed)
    index.range_search(point, 1.0)  # the table is built by now
    traced, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    instance_bytes = sum(
        obj.instances.xy.nbytes + obj.instances.probs.nbytes
        for obj in population
    )
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"world {name:5s}  objects {len(population):6,d}  "
        f"instance bytes {instance_bytes:12,d}  "
        f"columns_nbytes {index.columns.nbytes:12,d}  "
        f"traced after build {traced:13,d}  max RSS {max_rss:7.1f} MB",
        flush=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "tree", type=Path, nargs="?", default=Path(__file__).parent.parent
    )
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--worlds",
        nargs="+",
        choices=WORLDS[:2],
        default=list(WORLDS[:2]),
    )
    parser.add_argument(
        "--paper", action="store_true", help="also profile PAPER"
    )
    parser.add_argument("--world", choices=WORLDS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.world:
        profile(args.world, args.tree, args.seed)
        return
    # One interpreter a world: max RSS is a per-process high-water mark.
    for name in args.worlds + ["PAPER"] * args.paper:
        subprocess.run(
            [
                sys.executable,
                __file__,
                str(args.tree),
                "--seed",
                str(args.seed),
                "--world",
                name,
            ],
            check=True,
        )


if __name__ == "__main__":
    main()
