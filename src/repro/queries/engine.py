"""Shared machinery of the four-phase query evaluation (Section IV-B).

Both processors compose the same pieces; the subtle part is *why* the
subgraph restriction stays exact, documented on
:func:`subgraph_phase`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.distances.batch import (
    ObjectBlock,
    QueryPack,
    QueryStack,
    block_object_bounds,
)
from repro.distances.bounds import DistanceInterval
from repro.distances.expected import expected_indoor_distance
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex, RangeSearchResult
from repro.objects.uncertain import UncertainObject
from repro.space.doors_graph import DoorDistances


@dataclass
class QueryResult:
    """Result of a distance-aware query.

    ``objects`` holds the qualifying objects; ``distances`` the exact
    expected indoor distance for every object whose refinement was
    necessary (objects accepted purely by bounds map to ``None``).
    """

    objects: list[UncertainObject] = field(default_factory=list)
    distances: dict[str, float | None] = field(default_factory=dict)

    def ids(self) -> set[str]:
        return {o.object_id for o in self.objects}

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self):
        return iter(self.objects)


def locate_source(index: CompositeIndex, q: Point) -> str:
    """``P(q)`` via the tree (r = 0 point location)."""
    partition = index.locate(q)
    if partition is None:
        raise QueryError(f"query point {q} lies outside every partition")
    return partition.partition_id


def filtering_phase(
    index: CompositeIndex, q: Point, r: float, use_skeleton: bool
) -> tuple[RangeSearchResult, float]:
    """Phase 1: RangeSearch on the geometric layer (Algorithm 4)."""
    t0 = time.perf_counter()
    result = index.range_search(q, r, use_skeleton=use_skeleton)
    return result, time.perf_counter() - t0


def subgraph_phase(
    index: CompositeIndex,
    q: Point,
    source_partition: str,
    candidate_partitions: set[str],
    cutoff: float | None = None,
) -> tuple[DoorDistances, float]:
    """Phase 2: single-source Dijkstra restricted to the candidates.

    Exactness argument (mirrors the paper's): any path of length <= the
    query bound enters only partitions whose skeleton min-distance is
    <= the bound (each prefix of the path is itself a path), and the
    filtering phase retrieved exactly those — so restricted distances
    equal true distances for everything that can qualify, and they are
    ordinary (over-)estimates for everything else.
    """
    t0 = time.perf_counter()
    allowed = set(candidate_partitions)
    allowed.add(source_partition)
    dd = index.doors_graph.dijkstra_from_point(
        q,
        source_partition=source_partition,
        allowed_partitions=allowed,
        cutoff=cutoff,
    )
    return dd, time.perf_counter() - t0


#: Candidates per bounds-kernel call.  A block pads every row to its
#: widest partition's door count, so a venue-wide candidate set in one
#: block would cost megabytes of transient arrays; the kernel's
#: per-call overhead is amortised long before this size.
PRUNE_CHUNK = 256


def candidate_blocks(
    index: CompositeIndex, candidates: list[UncertainObject]
) -> Iterator[ObjectBlock]:
    """``candidates`` — live objects of ``index``, e.g. the filter
    phase's output — as bounds-kernel blocks of at most
    :data:`PRUNE_CHUNK` objects, gathered from the index's columnar
    table in order."""
    for i in range(0, len(candidates), PRUNE_CHUNK):
        yield index.columns.block(candidates[i : i + PRUNE_CHUNK])


def pruning_phase(
    index: CompositeIndex,
    candidates: list[UncertainObject],
    dd: DoorDistances,
    search_radius: float | None = None,
) -> tuple[dict[str, DistanceInterval], float]:
    """Phase 3: distance intervals per candidate (Table III dispatch).

    The block kernel over the candidates' rows of the index's
    columnar table (``candidates`` are live objects of ``index``), with
    ``dd`` flattened to a :class:`~repro.distances.batch.QueryPack`
    and stacked alone (the monitor's ingest path calls the same kernel
    with all its standing queries stacked).

    ``search_radius`` is the bound the subgraph/cutoff Dijkstra was run
    with; doors it failed to reach are provably farther than it, which
    keeps lower bounds finite for radius-straddling objects (see
    :func:`repro.distances.bounds.subregion_stats`).
    """
    t0 = time.perf_counter()
    floor = (
        search_radius
        if search_radius is not None and math.isfinite(search_radius)
        else None
    )
    layout = index.columns.layout()
    stack = QueryStack(layout, [QueryPack(dd, layout)], [floor])
    fh = index.space.floor_height
    intervals: dict[str, DistanceInterval] = {}
    for block in candidate_blocks(index, candidates):
        row = block_object_bounds(stack, block, fh).row(0)
        for obj, interval in zip(block.objects, row.intervals()):
            intervals[obj.object_id] = interval
    return intervals, time.perf_counter() - t0


class Refiner:
    """Phase 4: exact expected distances, with an escape hatch.

    An object whose expected distance is within the query bound can
    still own instances whose paths leave the candidate subgraph (a far
    low-mass subregion).  For those the restricted Dijkstra reports
    "unreachable", so the refiner recomputes the object against a full,
    unrestricted Dijkstra — built lazily, at most once per query.
    """

    def __init__(self, index: CompositeIndex, q: Point, dd: DoorDistances):
        self.index = index
        self.q = q
        self.dd = dd
        self._full_dd: DoorDistances | None = None
        self.fallbacks = 0

    def exact(self, obj: UncertainObject) -> float:
        value = expected_indoor_distance(
            self.q, obj, self.dd, self.index.space, self.index.population.grid
        ).value
        if math.isfinite(value):
            return value
        if self._full_dd is None:
            self._full_dd = self.index.doors_graph.dijkstra_from_point(
                self.q, self.dd.source_partition
            )
        self.fallbacks += 1
        return expected_indoor_distance(
            self.q, obj, self._full_dd, self.index.space,
            self.index.population.grid,
        ).value


def refine_object(
    index: CompositeIndex,
    q: Point,
    obj: UncertainObject,
    dd: DoorDistances,
) -> float:
    """One-shot exact distance (no fallback); prefer :class:`Refiner`
    inside query processors."""
    return expected_indoor_distance(
        q, obj, dd, index.space, index.population.grid
    ).value
