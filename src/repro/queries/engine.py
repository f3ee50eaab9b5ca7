"""Shared machinery of the four-phase query evaluation (Section IV-B).

Every processor composes the same pieces.  Phase 2 departs from the
paper: it is one full door search from ``q`` (:func:`search_phase`),
not a Dijkstra restricted to the filtered partitions and cut off at
the query bound.  The restriction is exact for point distances, not
for expected ones: an object's far instance may be reached only
through a partition the filter never retrieved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.distances.batch import (
    BoundsRow,
    ObjectBlock,
    QueryStack,
    block_expected_distances,
    block_object_bounds,
)
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex, RangeSearchResult
from repro.objects.uncertain import UncertainObject
from repro.queries.stats import QueryStats
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
    """``P(q)``: the partition
    :meth:`~repro.space.floorplan.IndoorSpace.locate` returns, through
    the index's partition grid."""
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


def search_phase(
    index: CompositeIndex,
    q: Point,
    source_partition: str,
    stats: QueryStats,
    precomputed_dd: DoorDistances | None = None,
) -> DoorDistances:
    """Phase 2: the full single-source door search from ``q`` —
    ``precomputed_dd`` when given (e.g. a session's cached search),
    else one Dijkstra, timed into ``stats.t_subgraph``."""
    dd = precomputed_dd
    if dd is None:
        t0 = time.perf_counter()
        dd = index.doors_graph.dijkstra_from_point(q, source_partition)
        stats.t_subgraph = time.perf_counter() - t0
    stats.doors_settled = dd.doors_settled
    return dd


#: Candidates per bounds-kernel call: bounds the block's gathered door
#: entries, hence the kernel's temporaries, for a venue-wide candidate
#: set (the kernel itself bounds the query axis).  A world-A ikNNQ's
#: few hundred candidates are one gather and one kernel call.
PRUNE_CHUNK = 1024


def candidate_blocks(
    index: CompositeIndex, candidates: list[UncertainObject]
) -> Iterator[ObjectBlock]:
    """``candidates`` — live objects of ``index``, e.g. the filter
    phase's output — as bounds-kernel blocks of at most
    :data:`PRUNE_CHUNK` objects, gathered from the index's columnar
    table in order."""
    for i in range(0, len(candidates), PRUNE_CHUNK):
        yield index.columns.block(candidates[i : i + PRUNE_CHUNK])


class CandidateBounds:
    """Phase 3's result: the candidates' topological envelope as
    arrays, and their exact pruning intervals on demand.

    ``lo[j] = min_S tmin(S)`` (Lemma 1) never exceeds the lower end of
    candidate ``j``'s exact interval, so ``lo[j] > r`` rejects it with
    the decision the interval would give; ``hi[j] = max_S tmax(S)``
    (Lemma 2) bounds its distance from above — a rank bound for ikNNQ,
    never an acceptance test (see :mod:`repro.distances.batch`).
    :meth:`pair` computes the Table III interval (Eq. 7 / Eq. 8) of
    one candidate the envelope could not decide, as plain floats.
    """

    __slots__ = ("lo", "hi", "_rows")

    def __init__(
        self, lo: np.ndarray, hi: np.ndarray, rows: list[BoundsRow]
    ) -> None:
        self.lo = lo
        self.hi = hi
        self._rows = rows  # one per chunk of PRUNE_CHUNK candidates

    def pair(self, j: int) -> tuple[float, float]:
        """Candidate ``j``'s exact pruning interval as ``(lower,
        upper)`` — float for float :func:`repro.reference.bounds.
        object_bounds`."""
        chunk, at = divmod(j, PRUNE_CHUNK)
        return self._rows[chunk].pair(at)


def pruning_phase(
    index: CompositeIndex,
    candidates: list[UncertainObject],
    dd: DoorDistances,
) -> CandidateBounds:
    """Phase 3: distance bounds per candidate (Table III dispatch).

    The block kernel over the candidates' rows of the index's
    columnar table (``candidates`` are live objects of ``index``), with
    the search ``dd`` stacked alone (the monitor's ingest path calls
    the same kernel with all its standing queries stacked).  The
    kernel's envelope
    decides most candidates; the caller builds an exact interval only
    for the rest, so the time of the whole phase is the caller's to
    take.
    """
    stack = QueryStack(index.columns.layout(), [dd], [None])
    fh = index.space.floor_height
    lo, hi, rows = [np.empty(0)], [np.empty(0)], []
    for block in candidate_blocks(index, candidates):
        # One chunk's door entries and instance copies at a time: only
        # its envelope and its row of per-subregion extrema are kept
        # (the candidates refine through ``Refiner``, not the row).
        bounds = block_object_bounds(stack, block, fh)
        lo.append(bounds.lo[0])
        hi.append(bounds.hi_array(0))
        rows.append(bounds.row(0, refine=False))
    return CandidateBounds(np.concatenate(lo), np.concatenate(hi), rows)


class Refiner:
    """Phase 4: exact expected distances.

    The undecided objects of a query — live objects of the index —
    are refined together, by the block routine
    (:func:`repro.distances.batch.block_expected_distances`) over their
    rows of the index's columnar table, against the query's full
    search ``dd``, stacked alone.  An object with an instance no open
    door path reaches is infinitely far.
    """

    def __init__(self, index: CompositeIndex, dd: DoorDistances):
        self.index = index
        self._stack = QueryStack(index.columns.layout(), [dd], [None])

    def _refine(
        self, objects: list[UncertainObject], r: float | None = None
    ) -> list[float]:
        if not objects:
            return []
        rows, offsets = self.index.columns.rows(objects)
        return block_expected_distances(
            self._stack,
            rows,
            offsets,
            [(0, j) for j in range(len(objects))],
            self.index.space.floor_height,
            r,
        )

    def exact_many(self, objects: list[UncertainObject]) -> list[float]:
        """``|q, O|_I`` of every object, in order."""
        return self._refine(objects)

    def exact(self, obj: UncertainObject) -> float:
        """:meth:`exact_many` for one object."""
        return self._refine([obj])[0]

    def probabilities(
        self, objects: list[UncertainObject], r: float
    ) -> list[float]:
        """The exact iPRQ qualifying probability ``Pr(|q, s|_I <= r)``
        of every object, in order."""
        return self._refine(objects, r)
