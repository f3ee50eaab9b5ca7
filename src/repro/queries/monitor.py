"""Continuous query monitoring over streams of object updates.

The paper evaluates one-shot queries, but its setting is *moving*
objects: positions change continuously while the composite index absorbs
updates cheaply (Section III-C).  A :class:`QueryMonitor` closes the
loop: it keeps standing queries registered and maintains each result
set **incrementally** as the population streams position updates
through :meth:`repro.index.composite.CompositeIndex.update_objects`.

Per-query maintenance is *pluggable*: the monitor holds one
:class:`~repro.queries.maintainers.StandingQuery` maintainer per
registered query and dispatches every per-kind decision — update
absorption, deletions, full re-execution, influence radius, result
snapshots — through that protocol.  The built-in maintainers cover the
paper's standing iRQ/ikNNQ plus the probabilistic-threshold range
query (standing iPRQ); adding a query kind is one maintainer class in
:mod:`repro.queries.maintainers`, nothing here changes.

The delta contract
------------------

The monitor's public mutation API speaks *deltas*, not result sets:
``apply_moves``, ``apply_insert``, ``apply_delete`` and ``apply_event``
each return a :class:`~repro.queries.deltas.DeltaBatch` holding one
:class:`~repro.queries.deltas.ResultDelta` — ``(entered, left,
distance_changed / probability_changed)`` — per standing query whose
result changed, so downstream consumers never diff result sets
themselves.  Registration and deregistration emit deltas too, and a
topology resync triggered *outside* a mutation (an external
``topology_version`` bump noticed on result access) parks its deltas
until the next mutation or an explicit :meth:`drain_pending_deltas`.
Replaying every delta for one query from the empty state reproduces
its current result exactly — the property
``tests/properties/test_prop_monitor.py`` (and friends) enforce.

Two maintenance entry points exist per mutation: the ``apply_*``
methods own the index (they mutate it, then maintain results), while
the ``ingest_*`` methods maintain results only, for an index mutation
that already happened.

The incremental argument reuses the paper's own machinery:

* every standing query keeps a full (unrestricted) single-source
  Dijkstra from its query point, memoised in a
  :class:`~repro.queries.session.QuerySession` — valid until the
  *topology* changes, no matter how objects move (and evicted when the
  last standing query at that point deregisters);
* when one object moves, only the (object, query) pairs are touched —
  most of them as one element of an array compare: a maintainer sees
  only the objects whose Eq. 7 envelope reaches inside its influence
  radius, or which it holds, and re-decides those against the cached
  search using the paper's interval machinery (Table III for
  distances, the subregion mass bounds for probabilities), usually
  *deciding* membership outright;
* only an undecided pair pays one exact refinement.  A standing ikNNQ
  keeps the exact distances of a guard band of near non-members beside
  its ``k`` members, so a member drifting outward or deleted is a
  re-rank among stored distances; only a band drained below ``k``
  entries falls back to full re-execution — the counters in
  :class:`MonitorStats` prove how rarely that happens.

Topology events (door closures, splits, merges) invalidate every cached
search — the monitor detects the space's ``topology_version`` bump,
re-executes all standing queries once, and resumes incremental
maintenance.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

from repro.api.specs import QuerySpec, standing_spec
from repro.distances.batch import (
    BlockBounds,
    DoorLayout,
    QueryStack,
    block_object_bounds,
)
from repro.errors import QueryError
from repro.index.composite import CompositeIndex
from repro.objects.population import ObjectMove
from repro.objects.uncertain import UncertainObject
from repro.queries.deltas import DeltaBatch, ResultDelta, diff_results
from repro.queries.maintainers import StandingQuery, maintainer_for
from repro.queries.session import QuerySession
from repro.space.events import TopologyEvent


def claim_query_id(
    taken,
    query_id: str | None,
    kind: str,
    counter,
) -> str:
    """Allocate (or validate) a standing-query id against the ids in
    ``taken`` — shared by :class:`QueryMonitor` and
    :class:`repro.api.QueryService` so both allocate identically."""
    if query_id is None:
        # Skip over ids the caller claimed explicitly.
        while (query_id := f"{kind}-{next(counter)}") in taken:
            pass
    elif query_id in taken:
        raise QueryError(f"standing query id {query_id!r} already used")
    return query_id


@dataclass
class MonitorStats:
    """Work accounting across the lifetime of one monitor.

    A *pair* is one ``(object update, standing query)`` combination; the
    three pair counters partition ``pairs_evaluated`` by the work each
    pair cost:

    * ``pairs_skipped`` — decided without any exact distance work:
      either by the safe interval bounds alone, or trivially (a
      deletion touching a non-member, or an iRQ/iPRQ member simply
      dropped);
    * ``pairs_refined`` — needed one exact refinement (an expected
      distance, or an iPRQ qualifying probability) against the cached
      full search;
    * ``pairs_recomputed`` — drained an ikNNQ's guard band below ``k``
      entries and escalated to full re-execution of the standing query
      (a pair that refined first and then escalated counts only here).

    Query-level work is counted separately, in units of *standing-query
    re-executions*: ``full_recomputes`` counts guard-band refills (one
    per escalated pair, but a different dimension — one re-execution
    touches the whole population, not one pair) and
    ``event_recomputes`` counts re-executions forced by a
    ``topology_version`` bump.  ``recompute_ratio`` therefore divides
    pair-level by pair-level and ``recomputes_per_update`` query-level
    by updates — the two never mix.
    """

    updates_seen: int = 0
    pairs_evaluated: int = 0
    pairs_skipped: int = 0
    pairs_refined: int = 0
    pairs_recomputed: int = 0
    full_recomputes: int = 0
    event_recomputes: int = 0
    topology_invalidations: int = 0
    deltas_emitted: int = 0
    #: Pairs evaluated by the stacked bounds-kernel call (moves and
    #: inserts against the queries in the stack; deletions and
    #: unstacked maintainers never evaluate bounds).
    kernel_pairs: int = 0
    #: Of :attr:`kernel_pairs`, those decided without exact refinement
    #: (the block-path share of ``pairs_skipped``).
    kernel_pruned: int = 0

    @property
    def recompute_ratio(self) -> float:
        """Share of *pairs* that escalated to full re-execution; the
        monitor provably skips work whenever this is < 1.0."""
        if self.pairs_evaluated == 0:
            return 0.0
        return self.pairs_recomputed / self.pairs_evaluated

    @property
    def skip_ratio(self) -> float:
        """Share of pairs decided without exact distance work."""
        if self.pairs_evaluated == 0:
            return 0.0
        return self.pairs_skipped / self.pairs_evaluated

    @property
    def recomputes_per_update(self) -> float:
        """Standing-query re-executions (guard-band refills) per
        absorbed update — the query-level fallback rate."""
        if self.updates_seen == 0:
            return 0.0
        return self.full_recomputes / self.updates_seen


class QueryMonitor:
    """Standing queries maintained over streaming updates.

    Usage::

        monitor = QueryMonitor(index)
        kiosk = monitor.register(RangeSpec(q_kiosk, 60.0))
        desk = monitor.register(KNNSpec(q_desk, 5))
        vip = monitor.register(ProbRangeSpec(q_door, 30.0, 0.8))
        for batch in stream.batches(100, 50):
            for delta in monitor.apply_moves(batch):   # index + results
                push_to_subscribers(delta)             # ...updated
        monitor.apply_event(CloseDoor("d7"))           # full resync, once

    The monitor owns the update path: :meth:`apply_moves`,
    :meth:`apply_insert`, :meth:`apply_delete` and :meth:`apply_event`
    mutate the underlying index *and* maintain every standing result,
    returning the per-query deltas.  The ``ingest_*`` twins maintain
    results for an index mutation that already happened.  External
    topology mutations are also tolerated — any ``topology_version``
    bump is detected on the next access, all standing queries
    resynchronise, and the resync deltas surface on the next mutation
    or :meth:`drain_pending_deltas`.

    ``session`` may be shared with other readers of the same index (a
    :class:`repro.api.QueryService` serves one-shot queries from the
    cache its monitor pins, so a query point pays its Dijkstra once).
    """

    def __init__(
        self,
        index: CompositeIndex,
        session: QuerySession | None = None,
    ) -> None:
        if session is not None and session.index is not index:
            raise QueryError("session must wrap the monitor's own index")
        self.index = index
        self.session = session or QuerySession(index)
        self.stats = MonitorStats()
        self._queries: dict[str, StandingQuery] = {}
        self._id_counter = itertools.count(1)
        self._topology_version = index.space.topology_version
        self._pending: list[ResultDelta] = []
        # Serialises registration churn and the maintenance-only
        # ingest hooks: a server loop and a synchronous caller on
        # another thread share this engine.
        self._ingest_lock = threading.Lock()
        # Pre-mutation result copy of the queries actually touched in
        # the current mutation scope (lazy: an untouched query costs
        # nothing), consumed by _collect().
        self._before: dict[str, dict[str, float | None]] = {}
        # The stacked maintainers' searches as one weight matrix, for
        # the one bounds-kernel call per batch.  Dropped (under the
        # ingest lock) whenever the registered query list changes; a
        # new DoorLayout outdates it by identity.  Built with it, in
        # registration order: the maintainers it stacks (row i is
        # query i) and the ones it does not.
        self._stack: QueryStack | None = None
        self._stacked: list[StandingQuery] = []
        self._unstacked: list[StandingQuery] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self,
        spec: QuerySpec,
        query_id: str | None = None,
    ) -> str:
        """Register a standing query from its declarative spec; returns
        its id.  The one registration path: every surface (serving
        layer, :class:`repro.api.QueryService`) funnels through here,
        and the maintainer registry in
        :mod:`repro.queries.maintainers` supplies the per-kind
        maintenance — so a new watchable query kind needs no change
        here.  The initial result is emitted as a ``register`` delta
        (pending until the next mutation / drain)."""
        spec = standing_spec(spec)
        query_id = self._claim_id(query_id, spec.kind)
        self._register(maintainer_for(spec, query_id, self))
        return query_id

    def _register(self, sq: StandingQuery) -> None:
        # Under the ingest lock: a registration must not mutate
        # _queries/_pending while a batch on another thread iterates
        # them.
        with self._ingest_lock:
            self._ensure_topology_current()
            # Execute first, commit after: a failing first execution
            # (query point outside every partition, say) must not leave
            # a broken standing query — or its session pin — behind.
            try:
                sq.recompute()  # touches sq with its pre-result ({})
            except Exception:
                self._before.pop(sq.query_id, None)
                raise
            self._queries[sq.query_id] = sq
            self._stack = None
            self.session.pin(sq.q)
            self._pending.extend(self._collect("register"))

    def restore_query(
        self, spec: QuerySpec, query_id: str, state
    ) -> None:
        """Reinstate a checkpointed standing query *exactly*: the
        maintainer is constructed from ``spec`` and handed the captured
        :meth:`~repro.queries.maintainers.StandingQuery.snapshot`
        ``state`` via ``restore()`` — no recompute, no register delta.
        The restore path of :mod:`repro.persist` uses this so a
        restored monitor is bit-identical to the checkpointed one
        (identical deltas from identical subsequent updates)."""
        spec = standing_spec(spec)
        with self._ingest_lock:
            if query_id in self._queries:
                raise QueryError(
                    f"standing query id {query_id!r} already used"
                )
            sq = maintainer_for(spec, query_id, self)
            sq.restore(state)
            self._queries[query_id] = sq
            self._stack = None
            self.session.pin(sq.q)

    def deregister(self, query_id: str) -> None:
        """Remove a standing query.

        Emits a ``deregister`` delta (every member leaves) and releases
        the query point's pin on the session-cached full Dijkstra; the
        last pin at a point evicts the search, so long-running monitors
        with churning query populations do not accumulate dead searches.
        Pins are counted on the (possibly shared) session itself, so
        monitors sharing one session never evict each other's searches.
        """
        with self._ingest_lock:
            sq = self._queries.pop(query_id, None)
            if sq is None:
                raise QueryError(f"unknown standing query {query_id!r}")
            self._before.pop(query_id, None)
            self._stack = None
            if sq.result:
                self._push_pending(
                    ResultDelta(
                        query_id,
                        "deregister",
                        left=tuple(sorted(sq.result)),
                    )
                )
            self.session.unpin(sq.q)

    def _claim_id(self, query_id: str | None, kind: str) -> str:
        return claim_query_id(
            self._queries, query_id, kind, self._id_counter
        )

    # ------------------------------------------------------------------
    # result access
    # ------------------------------------------------------------------

    def result_ids(self, query_id: str) -> set[str]:
        """The standing query's current result set (object ids)."""
        return set(self._standing(query_id).result)

    def result_distances(self, query_id: str) -> dict[str, float | None]:
        """Member id -> per-member annotation: the exact expected
        distance (or, for a standing iPRQ, the exact qualifying
        probability), with ``None`` marking a member accepted by bounds
        alone.  Reads the *published* result — distinct from
        :meth:`snapshot_query`, whose payload is the maintainer's full
        persistence state (possibly more than the result)."""
        return dict(self._standing(query_id).result)

    def snapshot_query(self, query_id: str):
        """The standing query's full persistence state — the value its
        maintainer's ``restore()`` reinstates exactly (see
        :meth:`restore_query`)."""
        return self._standing(query_id).snapshot()

    def snapshot_queries(self) -> list[tuple[str, QuerySpec, object]]:
        """``(query_id, spec, state)`` for every standing query, in
        registration order — the order matters: the checkpoint restores
        queries in this order so delta *emission* order (dict iteration
        over ``_queries``) survives the round trip."""
        with self._ingest_lock:
            self._ensure_topology_current()
            return [
                (qid, sq.spec(), sq.snapshot())
                for qid, sq in self._queries.items()
            ]

    def results(self) -> dict[str, set[str]]:
        """Every standing query's current result ids."""
        self._ensure_topology_current()
        return {qid: set(sq.result) for qid, sq in self._queries.items()}

    def query_ids(self) -> list[str]:
        return list(self._queries)

    def query_spec(self, query_id: str) -> QuerySpec:
        """The declarative :class:`~repro.api.specs.QuerySpec` of a
        standing query (a real spec object — serializable through
        :mod:`repro.api.wire`, re-registrable as-is)."""
        sq = self._queries.get(query_id)
        if sq is None:
            raise QueryError(f"unknown standing query {query_id!r}")
        return sq.spec()

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._queries

    def _standing(self, query_id: str) -> StandingQuery:
        self._ensure_topology_current()
        try:
            return self._queries[query_id]
        except KeyError:
            raise QueryError(
                f"unknown standing query {query_id!r}"
            ) from None

    # ------------------------------------------------------------------
    # stream consumption (index mutation + maintenance)
    # ------------------------------------------------------------------

    def apply_moves(self, moves: list[ObjectMove]) -> DeltaBatch:
        """Absorb a batch of position updates: the index takes them via
        its batched path, then every standing result is maintained
        incrementally.  Returns the per-query deltas (plus the moved
        objects in ``batch.moved``)."""
        self._ensure_topology_current()
        moved = self.index.update_objects(moves)
        return self.ingest_moves(moved)

    def apply_insert(self, obj: UncertainObject) -> DeltaBatch:
        """A brand-new object appears (index insert + maintenance)."""
        self._ensure_topology_current()
        self.index.insert_object(obj)
        return self.ingest_insert(obj)

    def apply_delete(self, object_id: str) -> DeltaBatch:
        """An object disappears; each maintainer absorbs the departure
        its own way (an iRQ/iPRQ drops the member, an ikNNQ promotes
        the nearest guard-band entry into the vacated slot).  The
        removed object rides along as ``batch.deleted``."""
        self._ensure_topology_current()
        obj = self.index.delete_object(object_id)
        return self.ingest_delete(object_id, deleted=obj)

    def apply_event(self, event: TopologyEvent) -> DeltaBatch:
        """Apply a topology event through the index, then resynchronise
        every standing query (cached searches are all invalid).  The
        space-level outcome rides along as ``batch.event_result``."""
        result = self.index.apply_event(event)
        self._ensure_topology_current()
        return DeltaBatch(
            deltas=self._drain_pending(), event_result=result
        )

    # ------------------------------------------------------------------
    # maintenance-only ingestion
    # ------------------------------------------------------------------

    def ingest_moves(self, moved: list[UncertainObject]) -> DeltaBatch:
        """Maintain standing results for objects the index already
        moved (no index mutation here).  Thread-safe."""
        with self._ingest_lock:
            self._ensure_topology_current()
            self._absorb_block(moved)
            return DeltaBatch(
                deltas=self._drain_pending() + self._collect("move"),
                moved=tuple(moved),
            )

    def ingest_insert(self, obj: UncertainObject) -> DeltaBatch:
        """Maintain standing results for an already-inserted object (a
        block of one)."""
        with self._ingest_lock:
            self._ensure_topology_current()
            self._absorb_block([obj])
            return DeltaBatch(
                deltas=self._drain_pending() + self._collect("insert")
            )

    def ingest_delete(
        self, object_id: str, deleted: UncertainObject | None = None
    ) -> DeltaBatch:
        """Maintain standing results for an already-deleted object.

        Only queries that actually *hold* the id (result/candidate
        set membership, per
        :meth:`~repro.queries.maintainers.StandingQuery.holds`) are
        dispatched — and counted: a deletion touching none of a query's
        members is no evaluated pair, so the pair counters (and the
        recompute-ratio columns derived from them) measure real work.
        """
        with self._ingest_lock:
            self._ensure_topology_current()
            self.stats.updates_seen += 1
            for sq in self._queries.values():
                if not sq.holds(object_id):
                    continue
                self.stats.pairs_evaluated += 1
                sq.on_delete(object_id)
            return DeltaBatch(
                deltas=self._drain_pending() + self._collect("delete"),
                deleted=deleted,
            )

    def drain_pending_deltas(self) -> DeltaBatch:
        """Collect deltas parked by out-of-band work: registrations,
        deregistrations, and topology resyncs triggered by result
        access instead of a mutation call."""
        with self._ingest_lock:
            self._ensure_topology_current()
            return DeltaBatch(deltas=self._drain_pending())

    # ------------------------------------------------------------------
    # delta bookkeeping
    # ------------------------------------------------------------------

    def touch(self, sq: StandingQuery) -> None:
        """Record ``sq``'s pre-mutation result (first write wins;
        later touches in the same scope are free).  Every maintainer
        code path that writes ``sq.result`` calls this first, so
        _collect() diffs only the queries that actually changed."""
        if sq.query_id not in self._before:
            self._before[sq.query_id] = dict(sq.result)

    def _collect(self, cause: str) -> tuple[ResultDelta, ...]:
        """Close the current mutation scope: diff every touched query
        against its recorded pre-state, in query *registration* order —
        not first-touch order — so a delta history does not depend on
        which maintainer a batch happened to reach first."""
        if not self._before:
            return ()
        out = []
        for qid, sq in self._queries.items():
            before = self._before.get(qid)
            if before is None:  # untouched this scope
                continue
            delta = diff_results(
                qid,
                cause,
                before,
                sq.result,
                probabilities=sq.annotates == "probability",
            )
            if delta is not None:
                out.append(delta)
        self._before.clear()
        self.stats.deltas_emitted += len(out)
        return tuple(out)

    def _push_pending(self, delta: ResultDelta) -> None:
        self._pending.append(delta)
        self.stats.deltas_emitted += 1

    def _drain_pending(self) -> tuple[ResultDelta, ...]:
        drained = tuple(self._pending)
        self._pending.clear()
        return drained

    # ------------------------------------------------------------------
    # incremental maintenance (protocol dispatch)
    # ------------------------------------------------------------------

    def _ensure_topology_current(self) -> None:
        version = self.index.space.topology_version
        if version == self._topology_version:
            return
        self._topology_version = version
        self.stats.topology_invalidations += 1
        for sq in self._queries.values():
            sq.recompute()  # touches each query pre-resync
            self.stats.event_recomputes += 1
        self._pending.extend(self._collect("topology"))

    def _query_stack(self, layout: DoorLayout) -> QueryStack:
        """The stacked maintainers' searches over ``layout``, in
        registration order; rebuilt only after registration churn or a
        layout change (the one time the session is asked for them)."""
        stack = self._stack
        if stack is None or stack.layout is not layout:
            queries = self._queries.values()
            stacked = [sq for sq in queries if sq.stacked]
            stack = self._stack = QueryStack(
                layout,
                [self.session.door_distances(sq.q) for sq in stacked],
                [sq.unreached_floor() for sq in stacked],
            )
            self._stacked = stacked
            self._unstacked = [sq for sq in queries if not sq.stacked]
        return stack

    def _absorb_block(self, moved: list[UncertainObject]) -> None:
        """Gather the moved batch's rows once, evaluate them against
        every stacked standing query in one bounds-kernel call and
        decide the far pairs here (:meth:`_undecided`; they count as
        skipped, here).  Then, for the stacked maintainers with a
        listed position: each names the positions it will refine
        (:meth:`~repro.queries.maintainers.StandingQuery.refinements`),
        all of those pairs are refined together — one call for the
        distances, one for the iPRQ probabilities — and each
        maintainer, in registration order, decides from its row and
        its positions, reading the refined values.  Last, every
        unstacked maintainer gets the whole block.  The kernel counters
        move once per batch; ``kernel_pruned`` is the ``pairs_skipped``
        delta across the stacked calls, so the counter partition
        (evaluated = skipped + refined + recomputed) is untouched."""
        if not moved:
            return
        stats = self.stats
        n = len(moved)
        stats.updates_seen += n
        if not self._queries:
            return
        space = self.index.space
        # ``update_objects`` / ``insert_object`` staged the rows: the
        # block is built from that staging, the table write still queued.
        block = self.index.columns.block(moved)
        stack = self._query_stack(block.layout)
        stats.pairs_evaluated += n * len(self._queries)
        if len(stack):
            bounds = block_object_bounds(stack, block, space.floor_height)
            undecided = self._undecided(bounds, moved)
            pairs = n * len(stack)
            stats.kernel_pairs += pairs
            skipped_before = stats.pairs_skipped
            stats.pairs_skipped += pairs - sum(map(len, undecided))
            listed = [(i, js) for i, js in enumerate(undecided) if js]
            self._refine(bounds, listed)
            for i, positions in listed:
                self._stacked[i].on_update_batch(
                    block, bounds.row(i), positions
                )
            stats.kernel_pruned += stats.pairs_skipped - skipped_before
        for sq in self._unstacked:
            sq.on_update_batch(block, None, range(n))

    def _refine(
        self, bounds: BlockBounds, listed: list[tuple[int, list[int]]]
    ) -> None:
        """Refine every pair the stacked maintainers with listed
        positions name, in one call for the expected distances and one
        for the qualifying probabilities (each with its query's ``r``),
        and keep the values in their rows."""
        distances: list[tuple[int, int]] = []
        probabilities: list[tuple[int, int]] = []
        radii: list[float] = []
        for i, positions in listed:
            named, r = self._stacked[i].refinements(
                bounds.block, bounds.row(i), positions
            )
            if r is None:
                distances += [(i, j) for j in named]
            else:
                probabilities += [(i, j) for j in named]
                radii += [r] * len(named)
        bounds.refine(distances)
        bounds.refine(probabilities, radii)

    def _undecided(
        self, bounds: BlockBounds, moved: list[UncertainObject]
    ) -> list[list[int]]:
        """Per stacked query, the ascending block positions its
        maintainer must see: the objects whose Eq. 7 envelope does not
        place them beyond its ``influence_radius()`` (one array compare
        for the whole block) and the moved objects among its
        ``members()`` (one set intersection each).  Every other pair is
        an outsider provably staying outside."""
        stacked = self._stacked
        reach = np.array([sq.influence_radius() for sq in stacked])
        listed: list[list[int]] = [[] for _ in stacked]
        near_query, near_at = np.nonzero(bounds.lo <= reach[:, None])
        for i, j in zip(near_query.tolist(), near_at.tolist()):
            listed[i].append(j)
        at = {obj.object_id: j for j, obj in enumerate(moved)}
        for i, sq in enumerate(stacked):
            held = sq.members() & at.keys()
            if held:
                listed[i] = sorted({*listed[i], *(at[oid] for oid in held)})
        return listed
