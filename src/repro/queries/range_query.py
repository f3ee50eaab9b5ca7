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
    search_phase,
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
        The full :class:`DoorDistances` from ``q``, e.g. from a
        :class:`repro.queries.session.QuerySession`; skips the door
        search.
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

    # Phase 2: the full door search (sources = doors of P(q)), or a
    # session's cached one.
    dd = search_phase(index, q, source, stats, precomputed_dd)

    result = QueryResult()
    if with_pruning:
        # Phase 3: bounds.  The envelope rejects first; only the
        # candidates it cannot place beyond r get an exact interval.
        t0 = time.perf_counter()
        bounds = pruning_phase(index, filtered.objects, dd)
        near = np.flatnonzero(bounds.lo <= r).tolist()
        stats.rejected_by_bounds += len(filtered.objects) - len(near)
        undecided = []
        for j in near:
            obj = filtered.objects[j]
            lower, upper = bounds.pair(j)
            if upper <= r:  # entirely within
                stats.accepted_by_bounds += 1
                result.objects.append(obj)
                result.distances[obj.object_id] = None
            elif lower > r:  # entirely beyond
                stats.rejected_by_bounds += 1
            else:
                undecided.append(obj)
        stats.t_pruning = time.perf_counter() - t0
    else:
        undecided = list(filtered.objects)

    # Phase 4: refinement.
    t0 = time.perf_counter()
    stats.refined += len(undecided)
    for obj, d in zip(undecided, Refiner(index, dd).exact_many(undecided)):
        if d <= r:
            result.objects.append(obj)
            result.distances[obj.object_id] = d
    stats.t_refinement = time.perf_counter() - t0
    stats.result_size = len(result.objects)
    return result
