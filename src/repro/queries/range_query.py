"""The indoor range query iRQ (Definition 3, Algorithm 1).

``iRQ_{q,r}(O) = { O : |q, O|_I <= r }`` over expected indoor
distances.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.queries.engine import (
    QueryResult,
    Refiner,
    filtering_phase,
    locate_source,
    pruning_phase,
    subgraph_phase,
)
from repro.queries.stats import QueryStats


def iRQ(
    q: Point,
    r: float,
    index: CompositeIndex,
    with_pruning: bool = True,
    use_skeleton: bool = True,
    stats: QueryStats | None = None,
    precomputed_dd=None,
) -> QueryResult:
    """Evaluate an indoor range query (Algorithm 1).

    Parameters
    ----------
    q, r:
        Query point and range (metres of indoor distance).
    index:
        The composite index over space + objects.
    with_pruning:
        Disable to skip phase 3 (the Figure 14(b) ablation): every
        filtered candidate goes straight to exact refinement.
    use_skeleton:
        Disable to filter with plain Euclidean MINDIST instead of the
        skeleton bound (the Figure 15(a) ablation).
    stats:
        Optional stats collector, filled in place.
    precomputed_dd:
        A full (unrestricted) :class:`DoorDistances` from ``q``, e.g.
        from a :class:`repro.queries.session.QuerySession`; skips the
        subgraph phase.
    """
    if r < 0:
        raise QueryError(f"negative query range {r}")
    if stats is None:
        stats = QueryStats()
    stats.total_objects = len(index.population)

    source = locate_source(index, q)

    # Phase 1: filtering.
    filtered, stats.t_filtering = filtering_phase(index, q, r, use_skeleton)
    stats.candidates_after_filtering = len(filtered.objects)
    stats.partitions_retrieved = len(filtered.partitions)

    # Phase 2: subgraph Dijkstra (sources = doors of P(q)); a session
    # cache may supply a full search instead.
    if precomputed_dd is not None:
        dd = precomputed_dd
        search_radius = None  # exact everywhere: no unreached floor
    else:
        dd, stats.t_subgraph = subgraph_phase(
            index, q, source, filtered.partitions, cutoff=r
        )
        search_radius = r
    stats.doors_settled = dd.doors_settled

    result = QueryResult()
    if with_pruning:
        # Phase 3: bounds.  The envelope rejects first; only the
        # candidates it cannot place beyond r get an exact interval.
        t0 = time.perf_counter()
        bounds = pruning_phase(
            index, filtered.objects, dd, search_radius=search_radius
        )
        near = np.flatnonzero(bounds.lo <= r).tolist()
        stats.rejected_by_bounds += len(filtered.objects) - len(near)
        undecided = []
        for j in near:
            obj = filtered.objects[j]
            interval = bounds.interval(j)
            if interval.entirely_within(r):
                stats.accepted_by_bounds += 1
                result.objects.append(obj)
                result.distances[obj.object_id] = None
            elif interval.entirely_beyond(r):
                stats.rejected_by_bounds += 1
            else:
                undecided.append(obj)
        stats.t_pruning = time.perf_counter() - t0
    else:
        undecided = list(filtered.objects)

    # Phase 4: refinement.
    t0 = time.perf_counter()
    refiner = Refiner(index, q, dd)
    stats.refined += len(undecided)
    for obj, d in zip(undecided, refiner.exact_many(undecided)):
        if d <= r:
            result.objects.append(obj)
            result.distances[obj.object_id] = d
    stats.fallback_recomputes = refiner.fallbacks
    stats.t_refinement = time.perf_counter() - t0
    stats.result_size = len(result.objects)
    return result
