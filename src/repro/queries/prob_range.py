"""Probabilistic-threshold indoor range query (extension).

The paper's iRQ thresholds the *expected* distance.  Related work
(Yang et al. [24]) instead thresholds the *probability* of being within
range.  With the instance representation both semantics are natural, so
the library offers the probabilistic variant too::

    iPRQ_{q,r,theta}(O) = { O : Pr(|q, s|_I <= r) >= theta }

where the probability is the total mass of instances whose indoor
distance is within ``r``.  Evaluation reuses the paper's machinery: the
filtering phase is unchanged (an object with skeleton min-distance
beyond ``r`` has probability 0), the pruning phase uses per-subregion
``tmin``/``tmax`` to bound the qualifying mass from both sides, and
only undecided objects have their instances evaluated exactly.
"""

from __future__ import annotations

import time

from repro.distances.batch import QueryStack, block_object_bounds
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.queries.engine import (
    QueryResult,
    Refiner,
    candidate_blocks,
    filtering_phase,
    locate_source,
    subgraph_phase,
)
from repro.queries.stats import QueryStats


def iPRQ(
    q: Point,
    r: float,
    theta: float,
    index: CompositeIndex,
    stats: QueryStats | None = None,
    precomputed_dd=None,
) -> QueryResult:
    """Evaluate the probabilistic-threshold range query.

    Returns objects whose probability of being within indoor distance
    ``r`` is at least ``theta``; ``QueryResult.distances`` carries the
    exact probability for refined objects (``None`` when accepted by
    bounds alone).  ``precomputed_dd`` is a full (unrestricted)
    :class:`DoorDistances` from ``q``, e.g. from a
    :class:`repro.queries.session.QuerySession`; it skips the subgraph
    phase, as in :func:`~repro.queries.range_query.iRQ`.

    Pruning bounds each candidate's qualifying probability from its
    subregions (:meth:`~repro.distances.batch.BoundsRow.probability`):
    a subregion with ``tmax <= r`` contributes all its mass to the
    lower bound, one with ``tmin > r`` nothing to the upper bound
    (``tmax`` is the best door's worst instance, so ``tmax <= r``
    proves every instance of the subregion qualifies).  A subregion no
    reached door serves is beyond ``r``.
    """
    if r < 0:
        raise QueryError(f"negative query range {r}")
    if not 0.0 < theta <= 1.0:
        raise QueryError(f"theta must be in (0, 1], got {theta}")
    if stats is None:
        stats = QueryStats()
    stats.total_objects = len(index.population)

    source = locate_source(index, q)
    filtered, stats.t_filtering = filtering_phase(index, q, r, True)
    stats.candidates_after_filtering = len(filtered.objects)
    stats.partitions_retrieved = len(filtered.partitions)

    if precomputed_dd is not None:
        dd = precomputed_dd
    else:
        dd, stats.t_subgraph = subgraph_phase(
            index, q, source, filtered.partitions, cutoff=r
        )
    stats.doors_settled = dd.doors_settled

    result = QueryResult()
    undecided = []
    t0 = time.perf_counter()
    stack = QueryStack(index.columns.layout(), [dd], [r + 1.0])
    fh = index.space.floor_height
    for block in candidate_blocks(index, filtered.objects):
        row = block_object_bounds(stack, block, fh).row(0)
        for j, obj in enumerate(block.objects):
            lo, hi = row.probability(j, r)
            if lo >= theta:
                stats.accepted_by_bounds += 1
                result.objects.append(obj)
                result.distances[obj.object_id] = None
            elif hi < theta:
                stats.rejected_by_bounds += 1
            else:
                undecided.append(obj)
    stats.t_pruning = time.perf_counter() - t0

    t0 = time.perf_counter()
    stats.refined += len(undecided)
    refiner = Refiner(index, q, dd)
    for obj, prob in zip(undecided, refiner.probabilities(undecided, r)):
        if prob >= theta:
            result.objects.append(obj)
            result.distances[obj.object_id] = prob
    stats.t_refinement = time.perf_counter() - t0
    stats.result_size = len(result.objects)
    return result
