#!/usr/bin/env python3
"""Ingest profile: where one stream batch's time goes, step by step.

On world A (``benchmarks/e2e/worlds.py``, one seed) the script builds
the ``knn_stream`` and ``range_stream`` shapes — their standing
queries on one ``QueryService`` — and ingests the world's random-walk
batches (5 and 20 moves).  Wrappers installed from here, by name,
time per batch

* the index write: ``CompositeIndex.update_objects`` whole, and
  inside it ``ObjectColumns.stage``, ``commit`` and the write of queued
  batches (``_flush``, where the tree has one: a commit or a read may
  run it, and its time is inside theirs too);
* ``ObjectColumns.block`` (the monitor's read of the batch);
* the bounds kernel (``block_object_bounds`` as the monitor calls it)
  and the monitor's listing of the pairs it cannot decide
  (``QueryMonitor._undecided``);
* the refinement step: the maintainers' ``refinements`` hooks (naming
  the pairs), the batch's refinement (``BlockBounds.refine``) and,
  inside it, each array pass (``batch._refine_pass``);
* the maintainers' decisions (every ``on_update_batch``);
* the delta diff (``QueryMonitor._collect``);

and prints the median and mean µs of each over the batches (a step a
batch does not run counts 0 there), beside the whole ``ingest`` call.
It also counts the table reads the window made, by reader (a
``block`` served by gather counts under ``_gathered_block`` too, where
the tree has one).  Only
names both sides of a change share are patched (a missing one is
skipped), so the same script measures a parent checkout and a
change::

    PYTHONPATH=<tree>/src python scripts/profile_ingest.py <tree>

``--batches`` sets the batches per shape, ``--seed`` the world.  Run it
on an otherwise idle machine and alternate parent and change.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Steps timed per batch: (label, module, class, attribute).
STEPS = (
    (
        "update_objects",
        "repro.index.composite",
        "CompositeIndex",
        "update_objects",
    ),
    ("stage", "repro.index.columns", "ObjectColumns", "stage"),
    ("commit", "repro.index.columns", "ObjectColumns", "commit"),
    ("flush", "repro.index.columns", "ObjectColumns", "_flush"),
    ("columns.block", "repro.index.columns", "ObjectColumns", "block"),
    ("kernel", "repro.queries.monitor", None, "block_object_bounds"),
    ("_undecided", "repro.queries.monitor", "QueryMonitor", "_undecided"),
    ("refine", "repro.distances.batch", "BlockBounds", "refine"),
    ("_refine_pass", "repro.distances.batch", None, "_refine_pass"),
    ("collect", "repro.queries.monitor", "QueryMonitor", "_collect"),
)

#: Maintainer hooks timed per batch, on every ``StandingQuery``
#: subclass that defines one: (label, attribute).
HOOKS = (("refinements", "refinements"), ("maintainers", "on_update_batch"))

#: Rows printed, in the order a batch runs them.
ROWS = (
    "ingest",
    "update_objects",
    "stage",
    "commit",
    "flush",
    "columns.block",
    "kernel",
    "_undecided",
    "refinements",
    "refine",
    "_refine_pass",
    "maintainers",
    "collect",
)

#: The table's readers, counted over the window.
READERS = (
    "search",
    "block",
    "_gathered_block",
    "rows",
    "units_of",
    "objects_in",
    "held_in",
    "partition_objects",
    "layout",
    "validate",
)


class Profile:
    """Per-batch inclusive seconds by step, and reader call counts."""

    def __init__(self) -> None:
        self.batch: dict[str, float] = defaultdict(float)
        self.batches: list[dict[str, float]] = []
        self.reads: Counter[str] = Counter()
        self.counting = False

    def timed(self, label: str, fn):
        """``fn``, adding its inclusive seconds to ``label``'s."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.batch[label] += time.perf_counter() - t0

        return wrapper

    def counted(self, name: str, fn):
        """``fn``, counted as a read of ``name`` in the window."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.counting:
                self.reads[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def close_batch(self, seconds: float) -> None:
        """End one batch that took ``seconds`` in all."""
        self.batch["ingest"] = seconds
        self.batches.append(dict(self.batch))
        self.batch.clear()


def install(profile: Profile) -> None:
    """Patch every step and reader this tree has, by name."""
    from repro.queries import maintainers

    columns = importlib.import_module("repro.index.columns")
    for name in READERS:
        if hasattr(columns.ObjectColumns, name):
            setattr(
                columns.ObjectColumns,
                name,
                profile.counted(name, getattr(columns.ObjectColumns, name)),
            )
    for label, module, owner, attr in STEPS:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        if hasattr(holder, attr):
            setattr(holder, attr, profile.timed(label, getattr(holder, attr)))
    pending = [maintainers.StandingQuery]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for label, attr in HOOKS:
            if attr in cls.__dict__:
                setattr(cls, attr, profile.timed(label, cls.__dict__[attr]))


def run_shape(world_mod, name: str, seed: int, batches: int, profile):
    """Build world A with one stream shape's queries, ingest its
    batches and print the per-step table."""
    from repro.api import QueryService, ServiceConfig

    make, size = {
        "knn_stream": (world_mod.knn_stream_specs, 5),
        "range_stream": (world_mod.range_stream_specs, 20),
    }[name]
    world = world_mod.World.build(world_mod.WORLD_A, seed)
    service = QueryService(world.index, ServiceConfig())
    for spec in make(world.points(48, salt=17)):
        service.watch(spec)
    stream = world.stream()
    for _ in range(2):
        service.ingest(stream.next_moves(size))
    profile.batches.clear()
    profile.batch.clear()
    profile.reads.clear()
    profile.counting = True
    for _ in range(batches):
        moves = stream.next_moves(size)
        t0 = time.perf_counter()
        service.ingest(moves)
        profile.close_batch(time.perf_counter() - t0)
    profile.counting = False
    print(f"{name}: {batches} batches of {size} moves (µs per batch)")
    for label in ROWS:
        values = [1e6 * b.get(label, 0.0) for b in profile.batches]
        print(
            f"  {label:15s} median {statistics.median(values):8.1f}  "
            f"mean {statistics.mean(values):8.1f}"
        )
    reads = ", ".join(
        f"{name} {count}" for name, count in sorted(profile.reads.items())
    )
    print(f"  table reads in the window: {reads or 'none'}")


def main() -> None:
    """Parse the options and profile each shape."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "tree", type=Path, nargs="?", default=Path(__file__).parent.parent
    )
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--batches", type=int, default=1000)
    parser.add_argument(
        "--shapes",
        nargs="+",
        default=["knn_stream", "range_stream"],
        choices=["knn_stream", "range_stream"],
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.tree / "benchmarks" / "e2e"))
    import worlds

    profile = Profile()
    install(profile)
    for name in args.shapes:
        run_shape(worlds, name, args.seed, args.batches, profile)


if __name__ == "__main__":
    main()
