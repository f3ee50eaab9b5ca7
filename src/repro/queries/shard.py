"""Sharded continuous monitoring: standing queries partitioned across
per-shard :class:`~repro.queries.monitor.QueryMonitor` instances.

One :class:`QueryMonitor` evaluates every ``(update, standing query)``
pair serially, so update fan-out grows linearly with the standing-query
population.  A :class:`ShardedMonitor` splits the standing queries by
**floor and spatial zone** of their query point across ``n_shards``
monitors that all share one :class:`~repro.index.composite.CompositeIndex`
(and one :class:`~repro.queries.session.QuerySession`, so a query point
still pays its full Dijkstra exactly once), then routes each index
mutation only to the shards it can possibly affect.

The router's skip test is the same conservative geometry Table III's
intervals are built from: a 3-D Euclidean distance never exceeds an
indoor (walking) distance, so an object whose old **and** new instance
boxes are Euclidean-farther than a query's influence radius (iRQ/iPRQ
``r`` / current ikNNQ band radius ``rho``, see
:meth:`~repro.queries.monitor.QueryMonitor.influence_radii`) from that
query provably cannot enter, leave, or re-rank its result — both old
and new positions matter, because leaving is as much a result change as
entering.  An ikNNQ whose band holds the whole reachable population
makes its shard unskippable (``rho`` is infinite — any reachable
object could enter).  Reach tables are cached per shard and rebuilt
only when a shard's
:attr:`~repro.queries.monitor.QueryMonitor.reach_epoch` (or the
topology) moved since the last build — batches that move no ikNNQ
``rho`` (re-ranks inside the band included) and register nothing route
on the cached table (:attr:`ShardStats.reach_cache_hits`).

The reach summary the router tests against is **two-level**:

* a coarse bounding box of the shard's query points with the maximum
  influence radius among them — one cheap test that rejects most far
  updates outright;
* a per-floor table of **grid buckets** (query points grouped on a
  coarse per-floor grid, each bucket carrying its own tight box and its
  own maximum radius) — so one far-reaching query inflates only its own
  bucket, and an update landing *between* a shard's query clusters no
  longer wakes the shard just because the coarse box spans the gap.
  Updates the buckets exclude after the coarse box admitted them are
  counted in ``ShardStats.bucket_skips``.

The grid resolution adapts to standing-query density:
:func:`_buckets_per_side` sizes each reach table's per-floor grid from
the shard's own query count (clamped to ``[2, 32]`` cells per side),
so a near-empty shard does not pay bucket bookkeeping for a fine grid
and a dense shard is not stuck at the historical fixed 8x8.

Routing is vectorized on the batch path: each update batch's old and
new instance boxes are packed once into ``(n, 6)`` numpy arrays, and a
shard's coarse box plus **all** of its grid buckets are tested in a
handful of whole-array operations
(:meth:`_ShardReach.admit_moves`) instead of a per-(update, bucket)
Python loop.  The arithmetic is the exact
:meth:`~repro.geometry.rect.Box3.min_distance_to` formula evaluated in
IEEE-754 float64 either way, so admission decisions — and therefore
results and routing statistics — are bit-identical to the scalar
two-level test, which single-box insert/delete routing still uses.

Skipping is sound against the monitor's incremental invariants because
``rho`` never *grows* on an incremental path (a trim lowers it, every
other band transition leaves it alone); the only path that can grow it
is a refill, a full re-execution that re-reads the whole — already
fully updated — index population and therefore sees filtered objects
anyway.

Parallel execution
------------------

Shards are provably independent once routed: each ``ingest_*`` call
touches only its own monitor's standing results, and the one shared
mutable structure — the session's Dijkstra cache — takes its own lock.
``ShardedMonitor(..., workers=N)`` therefore runs the routed per-shard
maintenance on a :class:`~concurrent.futures.ThreadPoolExecutor`
(pair maintenance is numpy-heavy, so threads overlap wherever numpy
drops the GIL), gathering per-shard
:class:`~repro.queries.deltas.DeltaBatch` results **in shard-index
order** — the same order the serial loop merges in — so the merged
batch is bit-identical to serial execution.

Every mutation path below first computes a **routing plan** — one
thunk per shard: ingest its routed share, or just drain parked deltas —
and then runs the plan serially or on the pool, so the routing
decisions are the same code whichever way the plan executes.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from repro.api.specs import QuerySpec, standing_spec
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Box3, Rect
from repro.index.composite import CompositeIndex
from repro.objects.population import ObjectMove
from repro.objects.uncertain import UncertainObject
from repro.queries.deltas import DeltaBatch
from repro.queries.maintainers import spec_anchor
from repro.queries.monitor import (
    MonitorStats,
    QueryMonitor,
    claim_query_id,
)
from repro.queries.session import QuerySession
from repro.space.events import TopologyEvent

#: Safety margin added to influence radii before a skip decision, so a
#: distance that ties the threshold to the last float bit never skips.
_EPS = 1e-9

#: Density-derived per-floor grid bounds: a shard's reach table never
#: uses fewer than ``_MIN_BUCKETS_PER_SIDE`` or more than
#: ``_MAX_BUCKETS_PER_SIDE`` cells per side (see
#: :func:`_buckets_per_side`).
_MIN_BUCKETS_PER_SIDE = 2
_MAX_BUCKETS_PER_SIDE = 32


def _buckets_per_side(n_queries: int) -> int:
    """Per-floor grid resolution for a shard holding ``n_queries``
    standing queries.

    ``ceil(2 * sqrt(n))`` cells per side, clamped to
    ``[_MIN_BUCKETS_PER_SIDE, _MAX_BUCKETS_PER_SIDE]``: the populated
    bucket count is bounded by the query count, so a sparse shard gets
    a coarse grid (less bucket bookkeeping per batch) while a dense
    shard gets proportionally finer cells (tighter boxes, more
    bucket-level skips).  Sixteen queries reproduce the historical
    fixed ``8``; one query gets the minimum ``2``; the cap keeps the
    cell arithmetic bounded for very dense shards.
    """
    if n_queries <= 0:
        return _MIN_BUCKETS_PER_SIDE
    side = math.ceil(2.0 * math.sqrt(n_queries))
    return max(_MIN_BUCKETS_PER_SIDE, min(_MAX_BUCKETS_PER_SIDE, side))


@dataclass
class ShardStats:
    """Routing accounting across the lifetime of one sharded monitor.

    ``shard_visits`` / ``shards_skipped`` count (batch, shard) routing
    decisions over shards that *hold standing queries* (an empty shard
    is not evidence the router works); ``updates_filtered`` counts
    per-shard update exclusions inside visited shards — updates whose
    pairs were never evaluated even though the shard itself ran.
    ``bucket_skips`` counts the update exclusions the per-floor grid
    buckets are *responsible* for: the coarse shard box admitted the
    update and only the bucketed reach table proved it irrelevant —
    the direct measure of what router tightening buys over the single
    bbox + max-radius summary.  ``reach_cache_hits`` counts routed
    mutations that reused a shard's cached reach table instead of
    rebuilding it (no influence radius in the shard changed since the
    table was built — see
    :attr:`repro.queries.monitor.QueryMonitor.reach_epoch`).
    """

    batches_routed: int = 0
    shard_visits: int = 0
    shards_skipped: int = 0
    updates_filtered: int = 0
    bucket_skips: int = 0
    reach_cache_hits: int = 0

    @property
    def skip_ratio(self) -> float:
        """Share of (batch, shard) decisions that skipped the shard."""
        decisions = self.shard_visits + self.shards_skipped
        if decisions == 0:
            return 0.0
        return self.shards_skipped / decisions


def _object_box(obj: UncertainObject, floor_height: float) -> Box3:
    """The object's instance bounding box at its floor elevation (the
    flattened :class:`Box3` the tree tier also measures distances on)."""
    return Box3.from_rect(obj.bounds(), obj.floor, floor_height).flattened()


def _box_rows(boxes: list[Box3]) -> np.ndarray:
    """Pack boxes into an ``(n, 6)`` float64 array with columns
    ``minx, miny, minz, maxx, maxy, maxz`` — the layout every
    vectorized admission test below broadcasts against."""
    return np.array(
        [
            [b.minx, b.miny, b.minz, b.maxx, b.maxy, b.maxz]
            for b in boxes
        ],
        dtype=np.float64,
    ).reshape(len(boxes), 6)


def _box_min_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise :meth:`Box3.min_distance_to` between two box arrays.

    ``a`` is ``(m, 6)``, ``b`` is ``(n, 6)``; returns the ``(m, n)``
    matrix of minimum Euclidean distances.  Per axis the gap is
    ``max(a.min - b.max, 0, b.min - a.max)`` — exactly the scalar
    formula, evaluated in the same float64 arithmetic, so every
    comparison downstream decides identically to the scalar path.
    """
    dx = np.maximum(
        0.0,
        np.maximum(
            a[:, None, 0] - b[None, :, 3], b[None, :, 0] - a[:, None, 3]
        ),
    )
    dy = np.maximum(
        0.0,
        np.maximum(
            a[:, None, 1] - b[None, :, 4], b[None, :, 1] - a[:, None, 4]
        ),
    )
    dz = np.maximum(
        0.0,
        np.maximum(
            a[:, None, 2] - b[None, :, 5], b[None, :, 2] - a[:, None, 5]
        ),
    )
    return np.sqrt(dx * dx + dy * dy + dz * dz)


class _ClaimedIds:
    """Membership view over the routed ids plus every shard's own
    registry, for :func:`~repro.queries.monitor.claim_query_id` (which
    only ever probes ``in``)."""

    def __init__(self, homes: dict[str, int], shards: list) -> None:
        self._homes = homes
        self._shards = shards

    def __contains__(self, query_id: str) -> bool:
        if query_id in self._homes:
            return True
        return any(query_id in shard for shard in self._shards)


@dataclass(frozen=True)
class _ReachBucket:
    """One grid bucket of a shard's reach table: the tight bounding box
    of the query points that hash into one per-floor grid cell, and the
    largest influence radius among them."""

    box: Box3
    radius: float

    def may_affect(self, obj_box: Box3) -> bool:
        return obj_box.min_distance_to(self.box) <= self.radius + _EPS


@dataclass(frozen=True)
class _ShardReach:
    """One shard's influence summary for one batch.

    ``box``/``radius`` are the coarse level (bounding box of all query
    points, maximum radius); ``buckets`` is the tightened per-floor
    grid level.  An empty bucket tuple means "coarse only" (the
    ``bucketed_router=False`` ablation mode).

    Single-box routing (insert/delete) uses the scalar two-level test;
    batch routing packs the summary into numpy arrays once
    (:attr:`_coarse_rows` / :attr:`_bucket_rows`, cached on the frozen
    instance) and admits the whole batch in :meth:`admit_moves`.
    """

    box: Box3
    radius: float
    buckets: tuple[_ReachBucket, ...] = ()

    @cached_property
    def _coarse_rows(self) -> np.ndarray:
        """``(1, 6)`` array of the coarse box."""
        return _box_rows([self.box])

    @cached_property
    def _bucket_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(m, 6)`` bucket boxes and the ``(m, 1)`` column of their
        skip thresholds (radius + eps), ready to broadcast."""
        boxes = _box_rows([b.box for b in self.buckets])
        radii = np.array(
            [[b.radius + _EPS] for b in self.buckets], dtype=np.float64
        ).reshape(len(self.buckets), 1)
        return boxes, radii

    def coarse_may_affect(self, obj_box: Box3) -> bool:
        if math.isinf(self.radius):
            return True
        return obj_box.min_distance_to(self.box) <= self.radius + _EPS

    def bucket_may_affect(self, obj_box: Box3) -> bool:
        if not self.buckets:
            return True  # coarse-only mode: never tighten
        return any(b.may_affect(obj_box) for b in self.buckets)

    def may_affect(
        self, obj_box: Box3, stats: ShardStats | None = None
    ) -> bool:
        """Two-level test for a single box (insert/delete routing)."""
        if not self.coarse_may_affect(obj_box):
            return False
        if self.bucket_may_affect(obj_box):
            return True
        if stats is not None:
            stats.bucket_skips += 1
        return False

    def may_affect_move(
        self,
        old_box: Box3,
        new_box: Box3,
        stats: ShardStats | None = None,
    ) -> bool:
        """Two-level test for a move (old *or* new position relevant);
        a bucket skip is counted once per excluded update, not once per
        tested box."""
        if not (
            self.coarse_may_affect(old_box)
            or self.coarse_may_affect(new_box)
        ):
            return False
        if self.bucket_may_affect(old_box) or self.bucket_may_affect(
            new_box
        ):
            return True
        if stats is not None:
            stats.bucket_skips += 1
        return False

    def admit_moves(
        self,
        old_rows: np.ndarray,
        new_rows: np.ndarray,
        stats: ShardStats | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`may_affect_move` over a whole batch.

        ``old_rows``/``new_rows`` are the batch's ``(n, 6)`` box arrays
        (:func:`_box_rows`); returns the boolean admission mask, in
        batch order.  The caller handles the infinite-radius case (the
        whole batch is relevant, no geometry needed).  Bucket skips are
        counted exactly as the scalar test counts them: once per update
        the coarse box admitted and the buckets excluded.
        """
        threshold = self.radius + _EPS
        coarse = (
            _box_min_distances(self._coarse_rows, old_rows)[0]
            <= threshold
        ) | (
            _box_min_distances(self._coarse_rows, new_rows)[0]
            <= threshold
        )
        if not self.buckets:
            return coarse
        boxes, radii = self._bucket_rows
        in_reach = (
            (_box_min_distances(boxes, old_rows) <= radii).any(axis=0)
        ) | ((_box_min_distances(boxes, new_rows) <= radii).any(axis=0))
        if stats is not None:
            stats.bucket_skips += int(
                np.count_nonzero(coarse & ~in_reach)
            )
        return coarse & in_reach


def _moves_task(
    shard: QueryMonitor, relevant: list[UncertainObject], subblock
) -> Callable[[], DeltaBatch]:
    """One shard's routed share of a move batch as a thunk.  Keeps only
    the deltas: ``moved`` is already carried once at the top level
    (shards each re-list their routed subset)."""

    def run_moves() -> DeltaBatch:
        return DeltaBatch(
            deltas=shard.ingest_moves(relevant, block=subblock).deltas
        )

    return run_moves


class ShardedMonitor:
    """``n_shards`` query monitors over one shared composite index.

    Mirrors the :class:`~repro.queries.monitor.QueryMonitor` API —
    registration, result access, and the four ``apply_*`` mutation
    paths, each returning a merged
    :class:`~repro.queries.deltas.DeltaBatch` — but mutates the shared
    index exactly once per call and fans maintenance out through the
    per-shard ``ingest_*`` hooks, skipping shards the router proves
    untouched.

    Standing queries are assigned by :meth:`shard_of`: the query
    point's floor and spatial quadrant hash onto a shard, so co-located
    queries (one kiosk's iRQ and ikNNQ) tend to share both a shard and
    a session-cached Dijkstra.

    Shard monitors are in-process :class:`QueryMonitor` instances;
    ``workers > 1`` fans the routed work out on a thread pool, merged
    in shard-index order, bit-identical to serial.

    ``bucketed_router=False`` falls back to the coarse single-box reach
    summary (kept as an ablation for the benchmark's before/after
    skip-ratio comparison).
    """

    def __init__(
        self,
        index: CompositeIndex,
        n_shards: int = 4,
        session: QuerySession | None = None,
        workers: int = 1,
        bucketed_router: bool = True,
    ) -> None:
        if n_shards < 1:
            raise QueryError(f"n_shards must be >= 1, got {n_shards}")
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.index = index
        self.session = session or QuerySession(index)
        self.workers = workers
        self.bucketed_router = bucketed_router
        self.routing = ShardStats()
        # Per-shard reach-table cache: (reach_epoch, topology_version,
        # reach) as of the last build; reused while neither moved.
        self._reach_cache: list[
            tuple[int, int, _ShardReach | None] | None
        ] = [None] * n_shards
        self._homes: dict[str, int] = {}
        self._id_counter = itertools.count(1)
        self._updates_seen = 0
        self._bounds: Rect = index.space.bounds()
        self.shards = [
            QueryMonitor(index, session=self.session)
            for _ in range(n_shards)
        ]
        self._executor: ThreadPoolExecutor | None = None
        if workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="shard"
            )

    # ------------------------------------------------------------------
    # lifecycle (the thread pool is the only owned resource)
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the thread pool down (idempotent; serial mode no-ops).
        The monitor stays usable — it falls back to serial."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # registration / result access (QueryMonitor-compatible surface)
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, q: Point) -> int:
        """The shard a query at ``q`` lands on: floor-major, with the
        floor split into 2x2 spatial zones (a deterministic
        floor/region partition, not a content hash — co-located query
        points always land together)."""
        b = self._bounds
        zx = int(q.x >= (b.minx + b.maxx) / 2.0)
        zy = int(q.y >= (b.miny + b.maxy) / 2.0)
        zone = 4 * q.floor + 2 * zy + zx
        return zone % len(self.shards)

    def register(
        self,
        spec: QuerySpec,
        query_id: str | None = None,
    ) -> str:
        """Register a standing query from its spec on the shard its
        query point hashes to; returns its id."""
        spec = standing_spec(spec)
        query_id = self._claim_id(query_id, spec.kind)
        shard = self.shard_of(spec_anchor(spec, self.index.space))
        self.shards[shard].register(spec, query_id=query_id)
        self._homes[query_id] = shard
        return query_id

    def deregister(self, query_id: str) -> None:
        self._home(query_id).deregister(query_id)
        del self._homes[query_id]

    def restore_query(self, spec: QuerySpec, query_id: str, state) -> None:
        """Reinstate a checkpointed standing query on the shard its
        query point deterministically hashes to (same :meth:`shard_of`
        placement as a live registration, so a restored sharded engine
        routes and merges identically).  No register delta, no reach
        epoch bump — see
        :meth:`~repro.queries.monitor.QueryMonitor.restore_query`."""
        spec = standing_spec(spec)
        if query_id in _ClaimedIds(self._homes, self.shards):
            raise QueryError(f"standing query id {query_id!r} already used")
        shard = self.shard_of(spec_anchor(spec, self.index.space))
        self.shards[shard].restore_query(spec, query_id, state)
        self._homes[query_id] = shard

    def _claim_id(self, query_id: str | None, kind: str) -> str:
        # Claim against the routed ids *and* every shard's own
        # registry: a query registered directly on a shard monitor
        # (shards are reachable via `.shards`) must not be silently
        # shadowed by a same-id registration routed to another shard —
        # results() would merge the two under one id.  A membership
        # view, not a materialized union: claims stay O(probe), not
        # O(standing queries) per registration.
        return claim_query_id(
            _ClaimedIds(self._homes, self.shards),
            query_id,
            kind,
            self._id_counter,
        )

    def _home(self, query_id: str) -> QueryMonitor:
        shard = self._homes.get(query_id)
        if shard is None:
            raise QueryError(f"unknown standing query {query_id!r}")
        return self.shards[shard]

    def result_ids(self, query_id: str) -> set[str]:
        return self._home(query_id).result_ids(query_id)

    def result_distances(self, query_id: str) -> dict[str, float | None]:
        return self._home(query_id).result_distances(query_id)

    def results(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for shard in self.shards:
            out.update(shard.results())
        return out

    def query_ids(self) -> list[str]:
        return list(self._homes)

    def query_spec(self, query_id: str) -> QuerySpec:
        return self._home(query_id).query_spec(query_id)

    def snapshot_query(self, query_id: str):
        return self._home(query_id).snapshot_query(query_id)

    def snapshot_queries(self) -> list[tuple[str, QuerySpec, object]]:
        """``(query_id, spec, state)`` for every standing query, in
        global registration order (``_homes`` insertion order) — so the
        restore path re-registers in the same order and each shard's
        internal registration order is reproduced too."""
        return [
            (qid, shard.query_spec(qid), shard.snapshot_query(qid))
            for qid, shard in (
                (qid, self.shards[idx]) for qid, idx in self._homes.items()
            )
        ]

    def __len__(self) -> int:
        return len(self._homes)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._homes

    @property
    def stats(self) -> MonitorStats:
        """Aggregated work accounting across all shards.

        Pair-level counters sum (each shard evaluated its own pairs);
        per-monitor observations of shared state do not: ``updates_seen``
        counts each routed update once (not once per ingesting shard)
        and ``topology_invalidations`` counts each ``topology_version``
        bump once (every shard sees the same bumps).
        """
        merged = MonitorStats()
        for shard in self.shards:
            merged = merged.merge(shard.stats)
        merged.updates_seen = self._updates_seen
        merged.topology_invalidations = max(
            (s.stats.topology_invalidations for s in self.shards),
            default=0,
        )
        return merged

    # ------------------------------------------------------------------
    # routed mutation paths: build a plan (one thunk per shard), run it
    # ------------------------------------------------------------------

    def apply_moves(self, moves: list[ObjectMove]) -> DeltaBatch:
        """Absorb a batch of position updates: one shared index update,
        then per-shard maintenance of only the updates that can affect
        each shard (fanned out on the thread pool when there is one)."""
        fh = self.index.space.floor_height
        old_boxes = {
            oid: _object_box(self.index.population.get(oid), fh)
            for oid in {move.object_id for move in moves}
        }
        # update_objects owns the last-write-wins dedupe: it returns
        # (and the monitor pairs against) one object per unique id.
        moved = self.index.update_objects(moves)
        head = DeltaBatch(moved=tuple(moved))
        if not moved:
            # An idle tick is not a routing decision: flush parked
            # deltas but keep the skip statistics honest.
            return DeltaBatch.merge_all(
                [head] + self._run_tasks(self._drain_plan())
            )
        self._updates_seen += len(moved)
        self.routing.batches_routed += 1
        old_rows = _box_rows(
            [old_boxes[obj.object_id] for obj in moved]
        )
        new_rows = _box_rows([_object_box(obj, fh) for obj in moved])
        # A shard with no standing queries, or one the router skips,
        # evaluates no pair — but its parked deltas (the last query's
        # deregister, registrations, out-of-band resyncs) still flow.
        plan = self._drain_plan()
        block = None
        for idx, shard in enumerate(self.shards):
            reach = self._reach_of(idx)
            if reach is None:
                continue
            if math.isinf(reach.radius):
                keep = list(range(len(moved)))
            else:
                mask = reach.admit_moves(old_rows, new_rows, self.routing)
                keep = [i for i, k in enumerate(mask) if k]
            if not keep:
                self.routing.shards_skipped += 1
                continue
            self.routing.shard_visits += 1
            # Filtered updates are only counted for shards that
            # actually ran — a whole-shard skip is its own statistic.
            self.routing.updates_filtered += len(moved) - len(keep)
            if block is None:
                # Gather the whole batch's rows from the index's
                # columnar table ONCE; each visited shard gets its
                # routed view.
                block = self.index.columns.block(moved)
            plan[idx] = _moves_task(
                shard,
                [moved[i] for i in keep],
                block if len(keep) == len(moved) else block.subset(keep),
            )
        return DeltaBatch.merge_all([head] + self._run_tasks(plan))

    def apply_insert(self, obj: UncertainObject) -> DeltaBatch:
        """A brand-new object appears: only shards it can reach run."""
        fh = self.index.space.floor_height
        self.index.insert_object(obj)
        self._updates_seen += 1
        self.routing.batches_routed += 1
        box = _object_box(obj, fh)
        plan = self._drain_plan()
        for idx, shard in enumerate(self.shards):
            if self._admits(idx, box):
                plan[idx] = partial(shard.ingest_insert, obj)
        return DeltaBatch.merge_all(self._run_tasks(plan))

    def apply_delete(self, object_id: str) -> DeltaBatch:
        """An object disappears: shards it provably never belonged to
        are skipped (a member is always within its query's reach)."""
        fh = self.index.space.floor_height
        obj = self.index.population.get(object_id)
        box = _object_box(obj, fh)
        deleted = self.index.delete_object(object_id)
        self._updates_seen += 1
        self.routing.batches_routed += 1
        head = DeltaBatch(deleted=deleted)
        plan = self._drain_plan()
        for idx, shard in enumerate(self.shards):
            if self._admits(idx, box):
                plan[idx] = partial(shard.ingest_delete, object_id)
        return DeltaBatch.merge_all([head] + self._run_tasks(plan))

    def apply_event(self, event: TopologyEvent) -> DeltaBatch:
        """Topology events invalidate every cached search — all shards
        resynchronise; there is nothing to skip."""
        result = self.index.apply_event(event)
        head = DeltaBatch(event_result=result)
        return DeltaBatch.merge_all(
            [head] + self._run_tasks(self._drain_plan())
        )

    def drain_pending_deltas(self) -> DeltaBatch:
        """Registration/deregistration/out-of-band resync deltas from
        every shard."""
        return DeltaBatch.merge_all(self._run_tasks(self._drain_plan()))

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------

    def _drain_plan(self) -> list[Callable[[], DeltaBatch]]:
        return [shard.drain_pending_deltas for shard in self.shards]

    def _admits(self, shard_idx: int, box: Box3) -> bool:
        """Single-box routing decision (insert/delete) for one shard,
        counted in :attr:`routing`; a shard without standing queries is
        not a decision."""
        reach = self._reach_of(shard_idx)
        if reach is None:
            return False
        if not reach.may_affect(box, self.routing):
            self.routing.shards_skipped += 1
            return False
        self.routing.shard_visits += 1
        return True

    def _run_tasks(
        self, tasks: list[Callable[[], DeltaBatch]]
    ) -> list[DeltaBatch]:
        """Execute one thunk per shard, returning the per-shard delta
        batches in shard-index order (the merge order, serial and
        pooled alike).  Routing already proved the thunks touch
        disjoint monitors; the shared session takes its own lock."""
        if self._executor is None or len(tasks) <= 1:
            return [task() for task in tasks]
        futures = [self._executor.submit(task) for task in tasks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------

    def _reach_of(self, shard_idx: int) -> _ShardReach | None:
        """The shard's current influence summary (``None`` when it has
        no standing queries), served from the per-shard cache whenever
        no influence radius in the shard changed since the table was
        built.

        The cache key is the shard monitor's
        :attr:`~repro.queries.monitor.QueryMonitor.reach_epoch` (bumped
        on registration churn and whenever a query's influence radius
        moved — an ikNNQ band refilled or trimmed) plus the
        space's ``topology_version`` (a resync the shard has not
        processed yet must rebuild, never reuse a pre-topology ``rho``).
        iRQ/iPRQ radii and query positions are immutable, so an
        unchanged epoch proves the whole table unchanged.  Hits are
        counted in :attr:`ShardStats.reach_cache_hits`.
        """
        shard = self.shards[shard_idx]
        topology = self.index.space.topology_version
        cached = self._reach_cache[shard_idx]
        if (
            cached is not None
            and cached[0] == shard.reach_epoch
            and cached[1] == topology
            and shard._topology_version == topology
        ):
            self.routing.reach_cache_hits += 1
            return cached[2]
        reach = self._build_reach(shard)
        # Read the keys *after* the build: influence_radii_by_floor may
        # itself have resynced the shard (epoch/version moved mid-build).
        self._reach_cache[shard_idx] = (
            shard.reach_epoch,
            self.index.space.topology_version,
            reach,
        )
        return reach

    def _build_reach(self, shard: QueryMonitor) -> _ShardReach | None:
        """Build one shard's influence summary from scratch: a cheap
        O(queries-in-shard) pass of pure arithmetic over a grid sized
        by the shard's own standing-query density
        (:func:`_buckets_per_side`)."""
        by_floor = shard.influence_radii_by_floor()
        if not by_floor:
            return None
        fh = self.index.space.floor_height
        b = self._bounds
        n_queries = sum(len(entries) for entries in by_floor.values())
        side = _buckets_per_side(n_queries)
        cell_w = max(b.width, _EPS) / side
        cell_h = max(b.height, _EPS) / side
        minx = miny = minz = math.inf
        maxx = maxy = maxz = -math.inf
        radius = 0.0
        cells: dict[tuple[int, int, int], list[float]] = {}
        for floor, entries in by_floor.items():
            for _qid, q, reach in entries:
                if math.isinf(reach):
                    # An unfull ikNNQ reaches forever: the shard is
                    # unskippable, no summary geometry needed.
                    z = q.z(fh)
                    return _ShardReach(
                        Box3(q.x, q.y, z, q.x, q.y, z), math.inf
                    )
                minx, maxx = min(minx, q.x), max(maxx, q.x)
                miny, maxy = min(miny, q.y), max(maxy, q.y)
                z = q.z(fh)
                minz, maxz = min(minz, z), max(maxz, z)
                radius = max(radius, reach)
                if not self.bucketed_router:
                    continue
                gx = min(max(int((q.x - b.minx) / cell_w), 0), side - 1)
                gy = min(max(int((q.y - b.miny) / cell_h), 0), side - 1)
                cell = cells.get((floor, gx, gy))
                if cell is None:
                    cells[(floor, gx, gy)] = [
                        q.x, q.y, q.x, q.y, z, reach,
                    ]
                else:
                    cell[0] = min(cell[0], q.x)
                    cell[1] = min(cell[1], q.y)
                    cell[2] = max(cell[2], q.x)
                    cell[3] = max(cell[3], q.y)
                    cell[5] = max(cell[5], reach)
        buckets = tuple(
            _ReachBucket(Box3(x0, y0, z, x1, y1, z), r)
            for x0, y0, x1, y1, z, r in cells.values()
        )
        return _ShardReach(
            Box3(minx, miny, minz, maxx, maxy, maxz), radius, buckets
        )
