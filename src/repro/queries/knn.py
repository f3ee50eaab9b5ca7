"""The indoor k nearest neighbour query ikNNQ (Definition 4,
Algorithms 2 and 5).

Returns the ``k`` objects with the smallest expected indoor distances.
The search radius is not given — it is derived: kSeedsSelection expands
partitions around ``q`` until ``k`` objects are seen, the Topological
Looser Upper Bound (Lemma 3) of the worst seed becomes ``kbound``, and
a range search with ``kbound`` then guarantees zero false negatives
(Lemma 6).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import time

from repro.errors import QueryError
from repro.distances.bounds import topological_looser_upper_bound
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.objects.uncertain import UncertainObject
from repro.queries.engine import (
    QueryResult,
    Refiner,
    filtering_phase,
    locate_source,
    pruning_phase,
    subgraph_phase,
)
from repro.queries.stats import QueryStats


def k_seeds_selection(
    index: CompositeIndex, q: Point, k: int, source: str
) -> tuple[list[UncertainObject], set[str], dict[str, tuple[Point, float]]]:
    """Algorithm 5: greedy partition expansion until ``k`` objects.

    Expands partitions in order of (greedy) accumulated path length from
    ``q``, collecting the objects bucketed in each.  Returns the seed
    objects, the expanded partitions ``R^p_1``, and per-partition known
    paths ``{pid: (arrival_point, path_length)}`` feeding the TLU.
    """
    space = index.space
    fh = space.floor_height
    seeds: list[UncertainObject] = []
    seen_objects: set[str] = set()
    expanded: set[str] = set()
    known_paths: dict[str, tuple[Point, float]] = {source: (q, 0.0)}
    counter = itertools.count()
    heap: list[tuple[float, int, str, Point]] = [(0.0, next(counter), source, q)]
    while heap and len(seeds) < k:
        length, _, pid, arrival = heapq.heappop(heap)
        if pid in expanded:
            continue
        expanded.add(pid)
        for unit in index.indr.units_of_partition.get(pid, ()):
            for object_id in index.otable.objects_in(unit.unit_id):
                if object_id in seen_objects:
                    continue
                seen_objects.add(object_id)
                seeds.append(index.population.get(object_id))
        for door in space.exit_doors(pid):
            nbr = door.other_side(pid)
            if nbr in expanded:
                continue
            nbr_length = length + arrival.distance(door.midpoint, fh)
            prev = known_paths.get(nbr)
            if prev is None or nbr_length < prev[1]:
                known_paths[nbr] = (door.midpoint, nbr_length)
            heapq.heappush(
                heap, (nbr_length, next(counter), nbr, door.midpoint)
            )
    return seeds, expanded, known_paths


def ikNNQ(
    q: Point,
    k: int,
    index: CompositeIndex,
    with_pruning: bool = True,
    use_skeleton: bool = True,
    stats: QueryStats | None = None,
    precomputed_dd=None,
) -> QueryResult:
    """Evaluate an indoor k nearest neighbour query (Algorithm 2).

    ``precomputed_dd`` — a full single-source search from ``q`` (e.g.
    from a :class:`repro.queries.session.QuerySession`) that replaces
    the subgraph phase.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if stats is None:
        stats = QueryStats()
    stats.total_objects = len(index.population)

    source = locate_source(index, q)

    # Phase 1a: seeds + kbound (Lemma 3).  kbound is the k-th smallest
    # finite seed TLU — with exactly k seeds this is the paper's "max
    # over the seeds"; a seed whose TLU is infinite (a straddler whose
    # partition lies beyond the expansion frontier) triggers a wider
    # seed pool instead of an unbounded search.
    t0 = time.perf_counter()
    kbound = math.inf
    for k_eff in (k, 2 * k, 4 * k):
        seeds, _seed_partitions, known_paths = k_seeds_selection(
            index, q, k_eff, source
        )
        tlus = sorted(
            tlu
            for seed in seeds
            if math.isfinite(
                tlu := topological_looser_upper_bound(
                    q, seed, known_paths, index.space, index.population.grid
                )
            )
        )
        if len(tlus) >= k:
            kbound = tlus[k - 1]
            break
        if len(seeds) < k_eff:
            break  # the whole building holds fewer seeds than requested
    t_seeds = time.perf_counter() - t0

    # Phase 1b: range search with the kbound radius.
    filtered, t_range = filtering_phase(
        index, q, kbound if math.isfinite(kbound) else math.inf, use_skeleton
    )
    stats.t_filtering = t_seeds + t_range
    stats.candidates_after_filtering = len(filtered.objects)
    stats.partitions_retrieved = len(filtered.partitions)
    stats.nodes_visited = filtered.nodes_visited

    # Phase 2: subgraph Dijkstra (or a session-cached full search).
    if precomputed_dd is not None:
        dd = precomputed_dd
        search_radius = None
    else:
        cutoff = kbound if math.isfinite(kbound) else None
        dd, stats.t_subgraph = subgraph_phase(
            index, q, source, filtered.partitions, cutoff=cutoff
        )
        search_radius = kbound
    stats.doors_settled = len(dd.dist)

    candidates = list(filtered.objects)
    result = QueryResult()
    if with_pruning and len(candidates) > k:
        # Phase 3: bounds.
        intervals, stats.t_pruning = pruning_phase(
            index, candidates, dd, search_radius=search_radius
        )
        # O_k = candidate with the k-th smallest upper bound; objects
        # whose lower bound exceeds O_k's upper cannot be in the top-k
        # (at least k candidates are certainly closer) — Algorithm 2's
        # rejection rule, line 13.
        uppers = sorted(intervals[o.object_id].upper for o in candidates)
        ok_upper = uppers[k - 1]
        # Acceptance (line 11) is implemented in its provably safe form:
        # accept O without refinement only when at most k-1 *other*
        # candidates could possibly be closer, i.e. have a lower bound
        # not above O's upper bound.  (The paper's literal
        # "O.u < O_k.l" test can mis-rank tie-dense boundaries.)
        lowers = sorted(intervals[o.object_id].lower for o in candidates)
        sure: list[UncertainObject] = []
        undecided: list[UncertainObject] = []
        for obj in candidates:
            interval = intervals[obj.object_id]
            if interval.lower > ok_upper:
                stats.rejected_by_bounds += 1
                continue
            # Count candidates (other than this one) whose lower bound
            # does not exceed this object's upper bound.
            possibly_closer = bisect.bisect_right(lowers, interval.upper) - 1
            if possibly_closer <= k - 1 and math.isfinite(interval.upper):
                stats.accepted_by_bounds += 1
                sure.append(obj)
            else:
                undecided.append(obj)
    else:
        sure = []
        undecided = candidates

    # Phase 4: refinement.
    t0 = time.perf_counter()
    refiner = Refiner(index, q, dd)
    refined: list[tuple[float, str, UncertainObject]] = []
    for obj in undecided:
        stats.refined += 1
        d = refiner.exact(obj)
        refined.append((d, obj.object_id, obj))
    stats.fallback_recomputes = refiner.fallbacks
    refined.sort()
    for obj in sure:
        result.objects.append(obj)
        result.distances[obj.object_id] = None
    for d, _oid, obj in refined[: max(0, k - len(sure))]:
        if math.isinf(d):
            continue  # unreachable objects never qualify
        result.objects.append(obj)
        result.distances[obj.object_id] = d
    stats.t_refinement = time.perf_counter() - t0
    stats.result_size = len(result.objects)
    return result
