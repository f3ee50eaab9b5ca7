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

import numpy as np

from repro.distances.batch import own_row_extrema
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.objects.uncertain import UncertainObject
from repro.queries.engine import (
    QueryResult,
    Refiner,
    candidate_blocks,
    filtering_phase,
    locate_source,
    pruning_phase,
    subgraph_phase,
)
from repro.queries.stats import QueryStats


class SeedExpansion:
    """Algorithm 5's greedy partition expansion, resumable.

    Expands partitions in order of (greedy) accumulated path length from
    ``q``, collecting the objects bucketed in each — one slice of the
    table's bucket CSR per partition, in ascending slot order, so the
    seed order is the same in every interpreter.  :meth:`extend` runs
    the loop until ``k`` seeds are held; a later call with a larger
    ``k`` continues from the heap it stopped on — the loop is
    deterministic, so the state is exactly what a restart reaches.

    ``known_paths`` is ``{pid: (arrival_point, path_length)}`` — some
    valid path from ``q`` into each partition touched, what Lemma 3
    needs — and ``arrival_doors[pid]`` the door that path enters
    through (the source partition, entered by no door, has none).
    """

    def __init__(self, index: CompositeIndex, q: Point, source: str) -> None:
        self.index = index
        self.q = q
        self.source = source
        self.seeds: list[UncertainObject] = []
        self.expanded: set[str] = set()
        self.known_paths: dict[str, tuple[Point, float]] = {source: (q, 0.0)}
        self.arrival_doors: dict[str, str] = {}
        self._seen: set[str] = set()
        self._counter = itertools.count()
        self._heap: list[tuple[float, int, str, Point]] = [
            (0.0, next(self._counter), source, q)
        ]

    def extend(self, k: int) -> None:
        """Expand until ``k`` seeds are held (or nothing is left)."""
        index = self.index
        space = index.space
        fh = space.floor_height
        seeds, seen, expanded = self.seeds, self._seen, self.expanded
        known_paths, arrival_doors = self.known_paths, self.arrival_doors
        heap, counter = self._heap, self._counter
        while heap and len(seeds) < k:
            length, _, pid, arrival = heapq.heappop(heap)
            if pid in expanded:
                continue
            expanded.add(pid)
            for obj in index.columns.partition_objects(pid):
                if obj.object_id not in seen:
                    seen.add(obj.object_id)
                    seeds.append(obj)
            for door in space.exit_doors(pid):
                nbr = door.other_side(pid)
                if nbr in expanded:
                    continue
                nbr_length = length + arrival.distance(door.midpoint, fh)
                prev = known_paths.get(nbr)
                if prev is None or nbr_length < prev[1]:
                    known_paths[nbr] = (door.midpoint, nbr_length)
                    arrival_doors[nbr] = door.door_id
                heapq.heappush(
                    heap, (nbr_length, next(counter), nbr, door.midpoint)
                )

    def seed_upper_bounds(self) -> np.ndarray:
        """Lemma 3 (TLU) of every seed, gathered from the index's
        columnar table: ``max_S (length[P(S)] + |arrival, S|_E^max)``,
        ``inf`` when some subregion's partition has no known path.

        Every known path enters its partition through one of that
        partition's *entry* doors — an open door one may leave ``pid``
        through is, by :class:`~repro.space.door.Door`'s two predicates,
        one that admits into the other side, one-way doors included —
        so ``|arrival, S|_E^max`` is the ``ent_max`` entry the table
        wrote for that (row, door) when the object last moved; the
        source partition's rows, reached by no door, take
        ``max |s, q|_E`` from the instances as the bounds kernel's
        own-partition patch does.  Float for float
        :func:`repro.reference.bounds.topological_looser_upper_bound`,
        which ``tests/queries/test_prune_exactness.py`` holds it to by
        ``==``.
        """
        index = self.index
        layout = index.columns.layout()
        fh = index.space.floor_height
        length = np.full(len(layout.entry_idx), np.inf)
        door = np.full(len(layout.entry_idx), -1, dtype=np.intp)
        for pid, (_, path_length) in self.known_paths.items():
            length[layout.part_row[pid]] = path_length
        for pid, door_id in self.arrival_doors.items():
            door[layout.part_row[pid]] = layout.door_index[door_id]
        source_row = layout.part_row[self.source]
        src = np.array([[self.q.x, self.q.y, float(self.q.floor)]])
        out = [np.empty(0)]
        for block in candidate_blocks(index, self.seeds):
            part = block.sub_part
            # The entry of each row's arrival door; a row no known path
            # arrives in has none and keeps ``inf``.
            row = np.arange(part.size).repeat(block.row_n)
            hit = np.flatnonzero(block.ent_door == door[part[row]])
            row = row[hit]
            tlu = np.full(part.size, np.inf)
            tlu[row] = length[part[row]] + block.ent_max[hit]
            own = np.flatnonzero(part == source_row)
            if own.size:
                _, tlu[own] = own_row_extrema(
                    block.rows, own, src.repeat(own.size, axis=0), fh
                )
            out.append(np.maximum.reduceat(tlu, block.obj_offsets[:-1]))
        return np.concatenate(out)


def k_seeds_selection(
    index: CompositeIndex, q: Point, k: int, source: str
) -> tuple[list[UncertainObject], set[str], dict[str, tuple[Point, float]]]:
    """Algorithm 5: greedy partition expansion until ``k`` objects.

    Returns the seed objects, the expanded partitions ``R^p_1``, and
    per-partition known paths ``{pid: (arrival_point, path_length)}``
    feeding the TLU — one :class:`SeedExpansion` run to ``k``.
    """
    expansion = SeedExpansion(index, q, source)
    expansion.extend(k)
    return expansion.seeds, expansion.expanded, expansion.known_paths


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
    expansion = SeedExpansion(index, q, source)
    for k_eff in (k, 2 * k, 4 * k):
        expansion.extend(k_eff)
        tlus = expansion.seed_upper_bounds()
        tlus = tlus[np.isfinite(tlus)]
        if len(tlus) >= k:
            kbound = float(np.partition(tlus, k - 1)[k - 1])
            break
        if len(expansion.seeds) < k_eff:
            break  # the whole building holds fewer seeds than requested
    t_seeds = time.perf_counter() - t0

    # Phase 1b: range search with the kbound radius.
    filtered, t_range = filtering_phase(
        index, q, kbound if math.isfinite(kbound) else math.inf, use_skeleton
    )
    stats.t_filtering = t_seeds + t_range
    stats.candidates_after_filtering = len(filtered.objects)
    stats.partitions_retrieved = len(filtered.partitions)

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
    stats.doors_settled = dd.doors_settled

    candidates = list(filtered.objects)
    result = QueryResult()
    if with_pruning and len(candidates) > k:
        # Phase 3: bounds.  U, the k-th smallest envelope upper end,
        # is at least the k-th true distance, and a candidate's
        # envelope lower end at most its own: ``lo > U`` rejects
        # without an exact interval, and only what the true k-th
        # smallest upper bound (never above U) would reject anyway.
        t0 = time.perf_counter()
        bounds = pruning_phase(
            index, candidates, dd, search_radius=search_radius
        )
        ceiling = np.partition(bounds.hi, k - 1)[k - 1]
        ranked = np.flatnonzero(bounds.lo <= ceiling).tolist()
        stats.rejected_by_bounds += len(candidates) - len(ranked)
        intervals = [bounds.interval(j) for j in ranked]
        # O_k = candidate with the k-th smallest upper bound; objects
        # whose lower bound exceeds O_k's upper cannot be in the top-k
        # (at least k candidates are certainly closer) — Algorithm 2's
        # rejection rule, line 13.
        ok_upper = sorted(interval.upper for interval in intervals)[k - 1]
        # Acceptance (line 11) is implemented in its provably safe form:
        # accept O without refinement only when at most k-1 *other*
        # candidates could possibly be closer, i.e. have a lower bound
        # not above O's upper bound.  (The paper's literal
        # "O.u < O_k.l" test can mis-rank tie-dense boundaries.)  The
        # candidates dropped above are not missed from that count:
        # their lower bounds lie beyond U, and an upper bound reaching
        # that far already counts the k candidates that set U.
        lowers = sorted(interval.lower for interval in intervals)
        sure: list[UncertainObject] = []
        undecided: list[UncertainObject] = []
        for j, interval in zip(ranked, intervals):
            if interval.lower > ok_upper:
                stats.rejected_by_bounds += 1
                continue
            # Count candidates (other than this one) whose lower bound
            # does not exceed this object's upper bound.
            possibly_closer = bisect.bisect_right(lowers, interval.upper) - 1
            if possibly_closer <= k - 1 and math.isfinite(interval.upper):
                stats.accepted_by_bounds += 1
                sure.append(candidates[j])
            else:
                undecided.append(candidates[j])
        stats.t_pruning = time.perf_counter() - t0
    else:
        sure = []
        undecided = candidates

    # Phase 4: refinement.
    t0 = time.perf_counter()
    refiner = Refiner(index, q, dd)
    stats.refined += len(undecided)
    refined = sorted(
        (d, obj.object_id, obj)
        for obj, d in zip(undecided, refiner.exact_many(undecided))
    )
    stats.fallback_recomputes = refiner.fallbacks
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
