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

import numpy as np

from repro.distances.batch import (
    BoundsRow,
    ObjectBlock,
    QueryStack,
    block_expected_distances,
    block_object_bounds,
)
from repro.distances.bounds import DistanceInterval
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


#: Candidates per bounds-kernel call: bounds the block's gathered door
#: entries, hence the kernel's temporaries, for a venue-wide candidate
#: set (the kernel itself bounds the query axis); the per-call overhead
#: is amortised long before this size.
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


class CandidateBounds:
    """Phase 3's result: the candidates' topological envelope as
    arrays, and their exact pruning intervals on demand.

    ``lo[j] = min_S tmin(S)`` (Lemma 1) never exceeds the lower end of
    candidate ``j``'s exact interval, so ``lo[j] > r`` rejects it with
    the decision the interval would give; ``hi[j] = max_S tmax(S)``
    (Lemma 2) bounds its distance from above — a rank bound for ikNNQ,
    never an acceptance test (see :mod:`repro.distances.batch`).
    :meth:`interval` builds the Table III interval (Eq. 7 / Eq. 8) of
    one candidate the envelope could not decide.
    """

    __slots__ = ("lo", "hi", "_rows")

    def __init__(
        self, lo: np.ndarray, hi: np.ndarray, rows: list[BoundsRow]
    ) -> None:
        self.lo = lo
        self.hi = hi
        self._rows = rows  # one per chunk of PRUNE_CHUNK candidates

    def interval(self, j: int) -> DistanceInterval:
        """Candidate ``j``'s exact pruning interval — float for float
        :func:`repro.reference.bounds.object_bounds`."""
        chunk, at = divmod(j, PRUNE_CHUNK)
        return self._rows[chunk].interval(at)


def pruning_phase(
    index: CompositeIndex,
    candidates: list[UncertainObject],
    dd: DoorDistances,
    search_radius: float | None = None,
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

    ``search_radius`` is the bound the subgraph/cutoff Dijkstra was run
    with; doors it failed to reach are provably farther than it, which
    keeps lower bounds finite for radius-straddling objects (see
    :func:`repro.reference.bounds.subregion_stats`).
    """
    floor = (
        search_radius
        if search_radius is not None and math.isfinite(search_radius)
        else None
    )
    stack = QueryStack(index.columns.layout(), [dd], [floor])
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
    """Phase 4: exact expected distances, with an escape hatch.

    The undecided objects of a query — live objects of the index —
    are refined together, by the block routine
    (:func:`repro.distances.batch.block_expected_distances`) over their
    rows of the index's columnar table, against the query's search,
    stacked alone.

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
        self._stack: QueryStack | None = None
        self._full_stack: QueryStack | None = None
        self.fallbacks = 0

    def _refine(
        self,
        stack: QueryStack,
        objects: list[UncertainObject],
        r: float | None = None,
    ) -> list[float]:
        rows, offsets = self.index.columns.rows(objects)
        return block_expected_distances(
            stack,
            rows,
            offsets,
            [(0, j) for j in range(len(objects))],
            self.index.space.floor_height,
            r,
        )

    def _own_stack(self) -> QueryStack:
        if self._stack is None:
            self._stack = QueryStack(
                self.index.columns.layout(), [self.dd], [None]
            )
        return self._stack

    def exact_many(self, objects: list[UncertainObject]) -> list[float]:
        """``|q, O|_I`` of every object, in order; the ones the
        query's own search cannot reach are refined again — they alone
        — against the full search."""
        if not objects:
            return []
        values = self._refine(self._own_stack(), objects)
        lost = [j for j, v in enumerate(values) if not math.isfinite(v)]
        if lost:
            if self._full_stack is None:
                full = self.index.doors_graph.dijkstra_from_point(
                    self.q, self.dd.source_partition
                )
                self._full_stack = QueryStack(
                    self._own_stack().layout, [full], [None]
                )
            self.fallbacks += len(lost)
            again = self._refine(self._full_stack, [objects[j] for j in lost])
            for j, value in zip(lost, again):
                values[j] = value
        return values

    def exact(self, obj: UncertainObject) -> float:
        """:meth:`exact_many` for one object."""
        return self.exact_many([obj])[0]

    def probabilities(
        self, objects: list[UncertainObject], r: float
    ) -> list[float]:
        """The exact iPRQ qualifying probability ``Pr(|q, s|_I <= r)``
        of every object, in order.  No escape hatch: an instance the
        search does not reach within ``r`` is not within ``r``."""
        if not objects:
            return []
        return self._refine(self._own_stack(), objects, r)
