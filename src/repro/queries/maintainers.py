"""Pluggable standing-query maintainers.

A *maintainer* owns the incremental maintenance of one standing query's
result over streamed object updates.  :class:`~repro.queries.monitor.
QueryMonitor` dispatches every per-query decision through the
:class:`StandingQuery` protocol defined here, so adding a query kind is
one maintainer class in this file (plus a ``@register_maintainer``
line) — the monitor, serving layer and
:class:`repro.api.QueryService` pick it up through the same
``register(spec)`` path with no further plumbing.

The protocol
------------

A maintainer is constructed from ``(query_id, spec, host)`` where
``host`` is the owning monitor — the narrow surface a maintainer may
use is ``host.index`` / ``host.session`` / ``host.stats`` and
``host.touch(self)`` (record the pre-mutation result before the first
write in a mutation scope, so the monitor can diff it into a
:class:`~repro.queries.deltas.ResultDelta`).  It must implement:

* :meth:`~StandingQuery.influence_radius` — the indoor distance beyond
  which an object provably cannot change the result *right now*; the
  monitor compares it with the Eq. 7 envelope of every moved object
  (only a ``stacked`` maintainer is asked);
* :meth:`~StandingQuery.on_update_batch` — absorb the listed
  positions of one packed :class:`~repro.distances.batch.ObjectBlock`
  of moved/inserted objects (an insert is a block of one; the monitor
  already counted the pairs in ``stats.pairs_evaluated``) together
  with this query's :class:`~repro.distances.batch.BoundsRow` — see
  "The stack" below — after :meth:`~StandingQuery.refinements` named
  the positions it will refine (default: none);
* :meth:`~StandingQuery.members` — the ids the query holds right now
  (default: the result's keys), which the monitor intersects with a
  batch's moved ids and the delete path tests through
  :meth:`~StandingQuery.holds`;
* :meth:`~StandingQuery.on_delete` — absorb one deleted object (ditto);
* :meth:`~StandingQuery.recompute` — full re-execution (registration,
  topology resyncs, an ikNNQ guard band that ran dry);
* :meth:`~StandingQuery.snapshot` / :meth:`~StandingQuery.restore` —
  the round-trippable persistence contract: ``snapshot()`` captures the
  maintainer's complete mutable state as a JSON-serializable value and
  ``restore(state)`` reinstates it exactly (no recomputation), so that
  ``restore(snapshot())`` on a fresh instance leaves the maintainer
  bit-identical — same published result, same annotations, same
  bounds-accepted ``None`` markers, hence identical deltas from
  identical subsequent updates.  The default (state *is* the result
  mapping, ``member id -> annotation``: ``None`` marks a member
  accepted by bounds alone; otherwise the exact expected distance, or
  for ``iprq`` the exact qualifying probability) suits any maintainer
  whose only mutable state is ``result``; maintainers with extra state
  override both symmetrically (see :class:`CountMaintainer`).

One class attribute steers the delta model: ``annotates`` —
``"distance"`` or ``"probability"``: which
:class:`~repro.queries.deltas.ResultDelta` field re-annotations of
retained members land in (``distance_changed`` vs
``probability_changed``).

The stack
---------

No maintainer calls the bounds kernel for itself.  The monitor keeps
the session-cached searches of all its ``stacked`` maintainers as one
weight matrix, calls :func:`repro.distances.batch.block_object_bounds`
once per batch, and decides the far pairs itself, on the kernel's
arrays: a moved object whose Eq. 7 lower envelope exceeds a query's
:meth:`~StandingQuery.influence_radius` *and* which the query does not
hold (:meth:`~StandingQuery.members`) is an outsider staying outside.

**The positions contract: hook, one refinement, decide.**  The
positions left are the ascending block positions of every object
within a query's radius by the envelope and every object it holds,
near or far (a member beyond reach must be seen to leave); a query
with no such position is neither asked nor called.  For each query
that has some, in registration order, the monitor first asks
``refinements(block, row, positions)`` — a pure hook: it decides
nothing, writes nothing, counts nothing — which positions its
decisions will refine, and the radius of an iPRQ probability (``None``
for distances).  It then refines every named pair of the batch
through :meth:`~repro.distances.batch.BlockBounds.refine`: one
:func:`~repro.distances.batch.block_expected_distances` call for all
the distances and one for all the probabilities, each pair with its
query's ``r``.  Last, ``on_update_batch(block, row, positions)`` lets
each query decide, in registration order, as if it walked the whole
block: ``row.lo[j]`` is the Eq. 7 lower envelope of the object at
position ``j`` (decide "certainly farther than x" from it first),
``row.interval(j)`` / ``row.probability(j, r)`` build the exact
Table III interval (once per pair: the hook's is the decision's) /
iPRQ mass bounds for a pair the envelope cannot decide, and
``row.exact(j)`` / ``row.exact_probability(j, r)`` read the refined
value of a pair those leave undecided.  A pair's value is a function
of the pair, so who refined it, and with what company, changes no
float and no decision.

**Who counts a skipped pair.**  The monitor counts every pair it does
not list as ``pairs_skipped`` (and ``kernel_pruned``); a maintainer
counts each position it is handed exactly once, as skipped, refined or
recomputed — so the three still partition ``pairs_evaluated``.

**The refill rule.**  Positions are listed against the radius as the
batch finds it.  A maintainer that moves its own radius *mid-block* —
only :class:`KNNMaintainer` does, when an eviction drains its band
below ``k`` and a refill replaces it — owns every later position of
that block, listed or not: it walks them all against the new band and
takes the unlisted ones back out of ``pairs_skipped``.  Its hook named
the refinements of the band as it stood, so a later position the new
band refines and nobody named is refined on demand, as a block of one
(``row.exact`` computes what no pass kept).
``tests/properties/test_prop_monitor_decide.py`` holds all of this to
a monitor that lists every position of every query, and
``tests/properties/test_prop_block_refine.py`` to one that refines
every pair on demand.

A new kind opts in by default (``stacked = True``; its ``q`` is what
the monitor asks the session a search for) and may override
:meth:`~StandingQuery.unreached_floor` when its bounds treat an
unreached subregion as merely "beyond some radius" rather than
infinitely far, as the iPRQ does.  A kind that needs no distance
bounds sets ``stacked = False`` and receives ``row=None`` and every
position, after the batch's stacked calls — its pairs then count in
``pairs_evaluated`` but not in ``kernel_pairs``
(:class:`OccupancyMaintainer`).

The three built-in maintainers
------------------------------

:class:`RangeMaintainer` is the standing iRQ: each moved object is
re-decided in isolation against the Table III interval.
:class:`KNNMaintainer` is the standing ikNNQ behind a guard band: it
keeps the exact distances of somewhat more than ``k`` nearest objects,
so a member drifting outward is a re-rank among stored distances, and
a from-scratch ikNNQ runs only when the band runs dry (see the class
docstring for the invariant).  :class:`ProbRangeMaintainer` is the
probabilistic-threshold range query (standing iPRQ) — per update, the
subregion probability bounds of
:func:`repro.reference.bounds.probability_bounds` (from its row of
the stacked call: :meth:`repro.distances.batch.BoundsRow.probability`)
decide membership whenever the qualifying probability provably stays
on one side of ``p_min``, and only an update whose probability can
*cross* ``p_min`` pays one exact qualifying-probability
refinement.  Its influence radius is the query range ``r``: an object
whose instance box is Euclidean-farther than ``r`` has qualifying
probability exactly zero (indoor distance dominates Euclidean), so it
can neither hold membership nor acquire it.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence, Set
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    QuerySpec,
    RangeSpec,
)
from repro.distances.batch import BoundsRow, ObjectBlock
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.objects.uncertain import UncertainObject
from repro.queries.engine import Refiner
from repro.queries.knn import ikNNQ
from repro.queries.prob_range import iPRQ
from repro.queries.range_query import iRQ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.monitor import QueryMonitor

#: Ascending block positions, as :meth:`StandingQuery.on_update_batch`
#: receives them.
Positions = Sequence[int]

#: Distinguishes "not a member" from a stored ``None`` annotation (a
#: member accepted by bounds alone) in result-dict lookups.
_MISSING = object()


def _restored_result(
    state: Any, population: Any, bounds_marker: bool = True
) -> dict[str, Any]:
    """A restored result mapping — member id -> annotation — checked
    to be one a snapshot could have produced: a mapping from ids of
    live objects to finite non-negative numbers (or ``None``, the
    bounds-accepted marker, where ``bounds_marker``); otherwise
    :class:`~repro.errors.QueryError`."""
    if not isinstance(state, dict):
        raise QueryError(f"restored result is not a mapping: {state!r}")
    for oid, value in state.items():
        if not isinstance(oid, str) or oid not in population:
            raise QueryError(f"restored result holds unknown id {oid!r}")
        if value is None and bounds_marker:
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not 0.0 <= value < math.inf
        ):
            raise QueryError(f"restored annotation of {oid!r} is {value!r}")
    return dict(state)


#: Spec type -> maintainer class; fed by :func:`register_maintainer`.
_MAINTAINERS: dict[type[QuerySpec], type["StandingQuery"]] = {}


def register_maintainer(
    spec_cls: type[QuerySpec],
) -> Callable[[type["StandingQuery"]], type["StandingQuery"]]:
    """Class decorator binding a maintainer to the spec kind it
    maintains — the single registration point a new standing-query
    kind needs besides the maintainer class itself.

    The spec's ``watchable`` flag is what the wire-level gate
    (:func:`repro.api.specs.standing_spec`) checks before this
    registry is ever consulted; a maintainer for an unwatchable spec
    would be unreachable, so the mismatch fails loudly here at import
    time instead of silently at registration time."""

    def bind(cls: type["StandingQuery"]) -> type["StandingQuery"]:
        if not spec_cls.watchable:
            raise QueryError(
                f"{spec_cls.__name__} declares watchable=False; set "
                "watchable=True on the spec before registering a "
                "maintainer for it"
            )
        _MAINTAINERS[spec_cls] = cls
        return cls

    return bind


def maintainer_for(
    spec: QuerySpec, query_id: str, host: "QueryMonitor"
) -> "StandingQuery":
    """Instantiate the maintainer registered for ``spec``'s type."""
    cls = _MAINTAINERS.get(type(spec))
    if cls is None:
        raise QueryError(
            f"no standing-query maintainer registered for "
            f"{type(spec).__name__}"
        )
    return cls(query_id, spec, host)


class StandingQuery:
    """Base class / protocol of one registered standing query.

    Subclasses implement the per-kind maintenance (see the module
    docstring for the contract); the base class carries the common
    state.
    """

    #: Which delta field re-annotations land in (see module docstring).
    annotates: ClassVar[str] = "distance"
    #: Whether the monitor stacks this query's search into its one
    #: bounds-kernel call per batch (see module docstring).
    stacked: ClassVar[bool] = True

    def __init__(
        self, query_id: str, spec: QuerySpec, host: "QueryMonitor"
    ) -> None:
        self.query_id = query_id
        self.host = host
        self._spec = spec
        self.result: dict[str, Any] = {}

    @property
    def q(self) -> Point:
        return self._spec.q  # type: ignore[attr-defined]

    def spec(self) -> QuerySpec:
        """The declarative spec this maintainer was registered from (a
        real value object — serializable through :mod:`repro.api.wire`,
        re-registrable as-is)."""
        return self._spec

    def snapshot(self) -> Any:
        """This maintainer's complete mutable state, as a
        JSON-serializable value :meth:`restore` reinstates exactly.
        The default captures ``result`` (member id -> annotation) —
        sufficient whenever that is the only mutable state."""
        return dict(self.result)

    def restore(self, state: Any) -> None:
        """Reinstate a :meth:`snapshot` capture *exactly* — no
        recomputation.  Exact reinstatement (rather than a fresh
        :meth:`recompute`) is what makes a restored engine
        bit-identical: a recompute could legitimately differ in
        bounds-accepted ``None`` markers or incrementally-grown member
        sets, which would leak phantom deltas after restore.  A state
        no snapshot could have produced raises
        :class:`~repro.errors.QueryError`."""
        self.result = _restored_result(state, self.host.index.population)

    # -- the per-kind contract -----------------------------------------

    def influence_radius(self) -> float:  # pragma: no cover - abstract
        """Required of a :attr:`stacked` maintainer only."""
        raise NotImplementedError

    def unreached_floor(self) -> float | None:
        """The ``tmin`` this query's stacked row gives a subregion no
        reached door serves (see :class:`~repro.distances.batch.
        QueryStack`); ``None`` leaves it infinite."""
        return None

    def refinements(
        self, block: ObjectBlock, row: BoundsRow, positions: Positions
    ) -> tuple[list[int], float | None]:
        """The positions among ``positions`` that
        :meth:`on_update_batch` will refine — as the query stands,
        before it decides anything — and the ``r`` of a qualifying
        probability (``None``: expected distances).  Pure: it decides
        nothing, writes nothing and counts nothing; the monitor refines
        what it names in one pass with every other stacked query's
        (see "The positions contract").  The default names none: every
        refinement is then made on demand, as a block of one."""
        return [], None

    def on_update_batch(
        self, block: ObjectBlock, row: BoundsRow | None, positions: Positions
    ) -> None:  # pragma: no cover - abstract
        """Absorb the moved/inserted objects at ``positions`` of one
        packed batch (see "The stack" in the module docstring); ``row``
        is this query's row of the batch's one kernel call (``None``
        for a maintainer that is not :attr:`stacked`)."""
        raise NotImplementedError

    def recompute(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def members(self) -> Set[str]:
        """The ids this query currently holds in its result/candidate
        set, as a set or dict-keys view (the monitor intersects it with
        a batch's moved ids).  Maintainers whose membership lives
        outside ``result`` (a guard band, derived/aggregate results)
        override this."""
        return self.result.keys()

    def holds(self, object_id: str) -> bool:
        """Whether this query currently holds ``object_id`` — the
        monitor's delete path only routes (and counts) a deletion to
        queries that do."""
        return object_id in self.members()

    def on_delete(self, object_id: str) -> None:
        """Absorb one deletion.  An object the query does not hold is
        free for every kind; a held one hands off to the kind-specific
        :meth:`_delete_member`."""
        if not self.holds(object_id):
            self.host.stats.pairs_skipped += 1
            return
        self._delete_member(object_id)

    def _delete_member(
        self, object_id: str
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


@register_maintainer(RangeSpec)
class RangeMaintainer(StandingQuery):
    """Standing iRQ: ``result`` maps member id -> exact distance, or
    ``None`` for members accepted purely by bounds."""

    def __init__(
        self, query_id: str, spec: RangeSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.r = spec.r

    def influence_radius(self) -> float:
        """Only objects within this (indoor) distance of ``q`` can
        change the result: the query radius itself."""
        return self.r

    def refinements(
        self, block: ObjectBlock, row: BoundsRow, positions: Positions
    ) -> tuple[list[int], float | None]:
        """The pairs within the envelope whose interval decides neither
        way."""
        r, lo = self.r, row.lo
        named = []
        for j in positions:
            if lo[j] <= r:
                interval = row.interval(j)
                if not (
                    interval.entirely_within(r) or interval.entirely_beyond(r)
                ):
                    named.append(j)
        return named, None

    def on_update_batch(
        self, block: ObjectBlock, row: BoundsRow | None, positions: Positions
    ) -> None:
        """Each moved object's membership is re-decided in isolation —
        the cached full search makes the interval machinery of
        Table III sufficient, so no other pair is ever touched.  The
        Eq. 7 envelope settles the far pairs (a member among them
        leaves); the rest build their exact interval, and only
        undecided ones fall through to exact refinement."""
        stats = self.host.stats
        r, lo, objects = self.r, row.lo, block.objects
        for j in positions:
            if lo[j] > r:
                self._drop(objects[j].object_id)
                stats.pairs_skipped += 1
            else:
                self._decide(objects[j], row, j)

    def _drop(self, object_id: str) -> None:
        """The object is certainly beyond ``r``: a member leaves."""
        if object_id in self.result:
            self.host.touch(self)
            del self.result[object_id]

    def _decide(self, obj: UncertainObject, row: BoundsRow, j: int) -> None:
        host = self.host
        oid = obj.object_id
        interval = row.interval(j)
        if interval.entirely_within(self.r):
            # A moved member's stored exact distance is stale either
            # way, so the bounds-accepted marker always overwrites it.
            if self.result.get(oid, _MISSING) is not None:
                host.touch(self)
                self.result[oid] = None
            host.stats.pairs_skipped += 1
        elif interval.entirely_beyond(self.r):
            self._drop(oid)
            host.stats.pairs_skipped += 1
        else:
            d = row.exact(j)
            host.stats.pairs_refined += 1
            if d <= self.r:
                if self.result.get(oid, _MISSING) != d:
                    host.touch(self)
                    self.result[oid] = d
            else:
                self._drop(oid)

    def _delete_member(self, object_id: str) -> None:
        """An iRQ just drops the deleted member."""
        self.host.touch(self)
        del self.result[object_id]
        self.host.stats.pairs_skipped += 1

    def recompute(self) -> None:
        host = self.host
        host.touch(self)  # the whole result is about to be replaced
        dd = host.session.door_distances(self.q)
        res = iRQ(self.q, self.r, host.index, precomputed_dd=dd)
        self.result = dict(res.distances)


@register_maintainer(KNNSpec)
class KNNMaintainer(StandingQuery):
    """Standing ikNNQ behind a guard band: ``buffer`` maps every object
    known to lie within the band radius ``rho`` to its exact current
    distance, and ``result`` is the ``k`` nearest buffer entries by
    ``(distance, object_id)`` — ikNNQ's own refinement order, so the
    published result is a function of the population alone, whatever
    the buffer happens to hold beyond it.

    Soundness rests on one invariant: *every object outside the buffer
    has expected distance at least* ``rho`` (and every buffered
    distance is current and ``<= rho``).  The ``k`` nearest of the
    buffer are then the ``k`` nearest overall whenever the buffer holds
    ``k`` entries, or ``rho`` is infinite (the buffer is the whole
    reachable population and a short result is legitimate).  Each
    transition keeps it:

    * a buffered object that moves is refined: it stays with its new
      distance (``d <= rho``) or leaves (``d > rho``, an outsider at
      least ``rho`` away) — a member drifting inside the band is a
      re-rank, never a search;
    * an outsider is skipped while its Eq. 7/8 lower bound exceeds
      ``rho``, refined otherwise, and joins iff ``d < rho``;
    * a deleted buffered object is dropped;
    * a buffer grown past ``k + 2m`` is trimmed back to its ``k + m``
      nearest, *lowering* ``rho`` to the largest kept distance (the
      dropped entries are outsiders at least that far away);
    * only when fewer than ``k`` entries remain inside a finite ``rho``
      can an unseen outsider belong to the result, and
      :meth:`recompute` refills: one ``ikNNQ(q, k + m)``, ``rho`` its
      largest distance — or infinity when the reachable population is
      shorter than that, after which every reachable newcomer joins.

    The margin ``m`` is derived from ``k``.  A buffer that starts at
    ``k + m`` takes ``m + 1`` net departures to drain and ``m + 1`` net
    arrivals to trim, and under stationary movement arrivals and
    departures across ``rho`` balance, so refills are rare.

    The band is also kept ranked: ``ranked`` is the buffer as
    ``(distance, id)`` pairs in that order, edited by one bisect at
    each write to the buffer (at most ``k + 2m`` pairs), so a batch's
    publish trims it by a slice and rebuilds ``result`` only when an
    edit landed among its first ``k`` ranks; :meth:`recompute` and
    :meth:`restore` sort it once.

    The persisted state is the result mapping alone (the
    :class:`StandingQuery` default): :meth:`restore` reinstates the
    degenerate ``m = 0`` buffer — ``buffer = result``, ``rho`` the k-th
    distance — under which the invariant is exactly "no outsider beats
    the k-th member", true of any correct result; the first underflow
    widens it.
    """

    def __init__(
        self, query_id: str, spec: KNNSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.k = spec.k
        self.m = max(8, spec.k // 2)
        self.buffer: dict[str, float] = {}
        #: ``sorted(zip(buffer.values(), buffer))``, kept in step with
        #: every write to :attr:`buffer` (one bisect each).
        self.ranked: list[tuple[float, str]] = []
        #: The lowest rank an edit of :attr:`ranked` landed at since the
        #: last :meth:`_publish`; ``result`` is the first ``k`` ranks,
        #: so an edit at rank ``k`` or beyond leaves it as it is.
        self._edited = 0
        self.rho = math.inf

    def influence_radius(self) -> float:
        """Only objects within the band can change the buffer, hence
        the result (buffered objects always are; a band holding the
        whole reachable population reaches forever)."""
        return self.rho

    def members(self) -> Set[str]:
        """The whole band: a moved or deleted buffer entry must be
        seen even when it is no result member (the buffer may only hold
        live objects at their current distances)."""
        return self.buffer.keys()

    def restore(self, state: Any) -> None:
        """The degenerate band: the k-th distance when the result is
        full, else infinity (any reachable object could still enter).
        Every member carries its exact distance."""
        result = _restored_result(
            state, self.host.index.population, bounds_marker=False
        )
        if len(result) > self.k:
            raise QueryError(f"restored kNN result holds {len(result)} > k")
        self.result = result
        self.buffer = dict(result)
        self.ranked = sorted(zip(result.values(), result))
        self._edited = self.k  # ``result`` is the band: nothing to redo
        full = len(self.buffer) >= self.k
        self.rho = max(self.buffer.values()) if full else math.inf

    def refinements(
        self, block: ObjectBlock, row: BoundsRow, positions: Positions
    ) -> tuple[list[int], float | None]:
        """What the band as it stands will refine: every buffered
        mover, and every outsider neither the envelope nor the exact
        Eq. 7/8 lower bound places beyond ``rho``.  A refill mid-block
        makes some of them unnecessary (their distances go unread) and
        others necessary (refined on demand)."""
        buffer, rho = self.buffer, self.rho
        objects, lo = block.objects, row.lo
        named = [
            j
            for j in positions
            if objects[j].object_id in buffer
            or (lo[j] <= rho and row.interval(j).lower <= rho)
        ]
        return named, None

    def on_update_batch(
        self, block: ObjectBlock, row: BoundsRow | None, positions: Positions
    ) -> None:
        """Buffer decisions stay sequential per object (a refill
        mid-block moves ``rho``), and the result is republished once,
        from the block's end state.  ``positions`` were listed against
        the band as the batch found it: after a refill every later
        object of the block is open again, listed or not, and walked
        here (the module docstring's refill rule)."""
        objects = block.objects
        dirty = False
        at = 0
        while at < len(positions):
            j = positions[at]
            at += 1
            wrote, refilled = self._decide(objects[j], row, j)
            dirty |= wrote
            if refilled:
                rest = range(j + 1, len(objects))
                self.host.stats.pairs_skipped -= len(rest) - (
                    len(positions) - at
                )
                positions, at = rest, 0
        if dirty:
            self._publish()

    def _decide(
        self, obj: UncertainObject, row: BoundsRow, j: int
    ) -> tuple[bool, bool]:
        """Absorb the moved/inserted object at block position ``j``;
        whether the buffer was written, and whether by a refill."""
        stats = self.host.stats
        oid = obj.object_id
        if oid in self.buffer:
            # Its stored distance is stale: refine, then stay or leave.
            d = row.exact(j)
            if math.isfinite(d) and d <= self.rho:
                self._unrank(oid)
                self._rank(oid, d)
            elif self._evict(oid):
                return True, True  # counted as recomputed
            stats.pairs_refined += 1
            return True, False
        # The envelope first; the exact Eq. 7/8 lower bound only for an
        # object it cannot place beyond the band.
        if row.lo[j] > self.rho or row.interval(j).lower > self.rho:
            # Certainly beyond the band: still an outsider.
            stats.pairs_skipped += 1
            return False, False
        d = row.exact(j)
        stats.pairs_refined += 1
        if d < self.rho:
            self._rank(oid, d)
            return True, False
        return False, False

    def _rank(self, object_id: str, d: float) -> None:
        """Buffer ``object_id`` at distance ``d``."""
        self.buffer[object_id] = d
        at = bisect.bisect_left(self.ranked, (d, object_id))
        self.ranked.insert(at, (d, object_id))
        self._edited = min(self._edited, at)

    def _unrank(self, object_id: str) -> None:
        """Take a buffered object out of the band."""
        d = self.buffer.pop(object_id)
        at = bisect.bisect_left(self.ranked, (d, object_id))
        del self.ranked[at]
        self._edited = min(self._edited, at)

    def _evict(self, object_id: str) -> bool:
        """Drop a buffered object.  Returns whether that drained the
        buffer below ``k`` inside a finite band and so forced a refill
        — the pair then counts as recomputed, nothing else (the pair
        counters partition ``pairs_evaluated``)."""
        self._unrank(object_id)
        if len(self.buffer) >= self.k or math.isinf(self.rho):
            return False
        stats = self.host.stats
        stats.pairs_recomputed += 1
        stats.full_recomputes += 1
        self.recompute()
        return True

    def _delete_member(self, object_id: str) -> None:
        if not self._evict(object_id):
            self.host.stats.pairs_skipped += 1
            self._publish()

    def _publish(self) -> None:
        """Trim an overgrown buffer, then republish the ``k`` nearest
        (touched first: the monitor diffs the result against its
        pre-mutation value) — only when an edit since the last publish
        landed among them."""
        # Nearest first, ties by id: ikNNQ's refinement order.
        ranked = self.ranked
        if len(ranked) > self.k + 2 * self.m:
            del ranked[self.k + self.m :]
            self.buffer = {oid: d for d, oid in ranked}
            self.rho = ranked[-1][0]
        if self._edited >= self.k:
            return
        self._edited = self.k
        result = {oid: d for d, oid in ranked[: self.k]}
        if result != self.result:
            self.host.touch(self)
            self.result = result

    def recompute(self) -> None:
        """Refill the band from scratch: the exact ``k + m`` nearest."""
        host = self.host
        host.touch(self)
        dd = host.session.door_distances(self.q)
        size = self.k + self.m
        res = ikNNQ(self.q, size, host.index, precomputed_dd=dd)
        # Accepted by bounds: the band needs them exact.
        sure = [o for o in res.objects if res.distances[o.object_id] is None]
        res.distances.update(
            zip(
                (o.object_id for o in sure),
                Refiner(host.index, dd).exact_many(sure),
            )
        )
        buffer: dict[str, float] = {}
        for obj in res.objects:
            d = res.distances[obj.object_id]
            if math.isfinite(d):
                # An unreachable entry would poison rho forever; with
                # fewer than k reachable objects the result
                # legitimately shrinks.
                buffer[obj.object_id] = d
        self.buffer = buffer
        self.ranked = sorted(zip(buffer.values(), buffer))
        self._edited = 0
        self.rho = max(buffer.values()) if len(buffer) == size else math.inf
        self._publish()


@register_maintainer(ProbRangeSpec)
class ProbRangeMaintainer(StandingQuery):
    """Standing iPRQ: ``result`` maps member id -> exact qualifying
    probability, or ``None`` for members accepted purely by the
    subregion probability bounds.

    Maintenance mirrors the standing iRQ shape — one moved object is
    re-decided in isolation against the session-cached full search —
    with the probability bounds of
    :func:`~repro.reference.bounds.probability_bounds` in place of
    the Table III distance interval: a subregion whose ``tmax`` stays
    within ``r`` contributes all of its mass to the lower bound, one
    whose ``tmin`` exceeds ``r`` contributes nothing to the upper
    bound, and only when ``p_min`` falls strictly between the two (the
    probability could *cross* the threshold) is one exact
    qualifying-probability refinement paid.  Registration,
    fallback-free by construction, and topology
    resyncs run :meth:`recompute`, which applies the *same*
    bounds-then-refine decision per object — so the incremental and
    from-scratch paths agree on membership and annotation alike.
    """

    annotates: ClassVar[str] = "probability"

    def __init__(
        self, query_id: str, spec: ProbRangeSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.r = spec.r
        self.p_min = spec.p_min

    def influence_radius(self) -> float:
        """The query range ``r`` is a conservative reach: an object
        whose Eq. 7 lower envelope exceeds ``r`` has every instance at
        indoor distance > ``r``, hence qualifying probability exactly
        0 — it cannot enter, and a member (probability >= ``p_min`` >
        0) always has an instance within ``r``, so it cannot be missed
        when leaving."""
        return self.r

    def unreached_floor(self) -> float:
        """A subregion no reached door serves is beyond ``r`` — the
        scalar :func:`~repro.reference.bounds.probability_bounds`
        convention."""
        return self.r + 1.0

    def refinements(
        self, block: ObjectBlock, row: BoundsRow, positions: Positions
    ) -> tuple[list[int], float | None]:
        """The pairs whose probability bounds straddle ``p_min``, and
        ``r``."""
        r, p_min = self.r, self.p_min
        named = []
        for j in positions:
            lo, hi = row.probability(j, r)
            if not (lo >= p_min or hi < p_min):
                named.append(j)
        return named, r

    def on_update_batch(
        self, block: ObjectBlock, row: BoundsRow | None, positions: Positions
    ) -> None:
        """Per-pair probability bounds from the row's extrema, then
        threshold decisions; exact refinement only when ``p_min`` falls
        strictly between the bounds."""
        for j in positions:
            self._decide(block.objects[j], row, j)

    def _decide(self, obj: UncertainObject, row: BoundsRow, j: int) -> None:
        host = self.host
        oid = obj.object_id
        lo, hi = row.probability(j, self.r)
        if lo >= self.p_min:
            # Provably still (or newly) qualifying: the stored exact
            # probability is stale after a move, so the bounds-accepted
            # marker always overwrites it.
            if self.result.get(oid, _MISSING) is not None:
                host.touch(self)
                self.result[oid] = None
            host.stats.pairs_skipped += 1
        elif hi < self.p_min:
            if oid in self.result:
                host.touch(self)
                del self.result[oid]
            host.stats.pairs_skipped += 1
        else:
            # The probability can cross p_min: one exact refinement.
            prob = row.exact_probability(j, self.r)
            host.stats.pairs_refined += 1
            if prob >= self.p_min:
                if self.result.get(oid, _MISSING) != prob:
                    host.touch(self)
                    self.result[oid] = prob
            elif oid in self.result:
                host.touch(self)
                del self.result[oid]

    def _delete_member(self, object_id: str) -> None:
        """Like the iRQ: a departed member just drops out."""
        self.host.touch(self)
        del self.result[object_id]
        self.host.stats.pairs_skipped += 1

    def recompute(self) -> None:
        """One-shot iPRQ against the session-cached full search: the
        same bounds-then-refine decision per object that
        :meth:`on_update_batch` applies per pair (one convention for
        both paths keeps re-annotation deltas quiet)."""
        host = self.host
        host.touch(self)
        dd = host.session.door_distances(self.q)
        res = iPRQ(self.q, self.r, self.p_min, host.index, precomputed_dd=dd)
        self.result = dict(res.distances)


def partition_anchor(space: Any, partition_id: str) -> Point:
    """The spatial anchor of a partition: its bounds center when the
    footprint contains it, else the first attached door's midpoint.

    Anchored (point-free) specs like :class:`OccupancySpec` need a
    :class:`Point` for the surrounding machinery (session pinning), and
    this is the single derivation every surface shares."""
    partition = space.partition(partition_id)
    b = partition.bounds
    cx, cy = (b.minx + b.maxx) / 2.0, (b.miny + b.maxy) / 2.0
    if partition.contains_xy(cx, cy):
        return Point(cx, cy, partition.floor)
    for door_id in sorted(partition.door_ids):
        mid = space.doors[door_id].midpoint
        return Point(mid.x, mid.y, partition.floor)
    return Point(cx, cy, partition.floor)


#: The single synthetic member id a count watch publishes.
COUNT_KEY = "count"


class _CountHost:
    """Host proxy handed to a :class:`CountMaintainer`'s inner range
    maintainer: forwards the read-only surface (``index`` / ``session``
    / ``stats``) to the real monitor but redirects ``touch`` to the
    *outer* maintainer — the monitor must diff the published count
    result, never the private membership set, and the pre-mutation
    capture must happen before the inner result mutates (the outer
    result is republished from it afterwards)."""

    def __init__(self, outer: "CountMaintainer") -> None:
        self._outer = outer

    @property
    def index(self) -> Any:
        return self._outer.host.index

    @property
    def session(self) -> Any:
        return self._outer.host.session

    @property
    def stats(self) -> Any:
        return self._outer.host.stats

    def touch(self, _sq: StandingQuery) -> None:
        self._outer.host.touch(self._outer)


@register_maintainer(CountSpec)
class CountMaintainer(StandingQuery):
    """Aggregate count watch (standing ``icount``): alert while the
    number of objects within indoor distance ``r`` of ``q`` is at
    least ``threshold``.

    Composition over a private :class:`RangeMaintainer`: the inner
    maintainer tracks the qualifying membership set with the standing
    iRQ machinery verbatim, and this class publishes a *derived* result
    — ``{"count": float(n)}`` while ``n >= threshold``, empty otherwise
    — so the generic delta diff yields exactly the alert semantics:
    *entered* when occupancy crosses the threshold upward,
    *distance_changed* re-annotation while it varies above it, *left*
    when it crosses back down.  The inner host proxy routes ``touch``
    to this maintainer (capturing the pre-mutation published count),
    and every mutation hook delegates then republishes.

    ``snapshot()`` must therefore capture *both* layers — the private
    membership and the published count — and ``restore()`` reinstates
    both, which is precisely the round-trip contract the persistence
    subsystem exercises for a maintainer with state beyond ``result``.
    """

    def __init__(
        self, query_id: str, spec: CountSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.threshold = spec.threshold
        self._inner = RangeMaintainer(
            query_id, RangeSpec(spec.q, spec.r), _CountHost(self)
        )

    def influence_radius(self) -> float:
        """Same reach as the underlying range query: only objects
        within ``r`` can change the membership count."""
        return self._inner.r

    def refinements(
        self, block: ObjectBlock, row: BoundsRow, positions: Positions
    ) -> tuple[list[int], float | None]:
        """The inner range maintainer's."""
        return self._inner.refinements(block, row, positions)

    def _republish(self) -> None:
        # touch() already ran (via the inner host proxy) before the
        # membership mutated, so rewriting the published result here is
        # diffed against the true pre-mutation state.
        n = len(self._inner.result)
        if n >= self.threshold:
            self.result = {COUNT_KEY: float(n)}
        else:
            self.result = {}

    def on_update_batch(
        self, block: ObjectBlock, row: BoundsRow | None, positions: Positions
    ) -> None:
        """The inner range maintainer absorbs the block from this
        watch's row; republishing once at the end is equivalent to per
        object, because deltas diff the scope's end state."""
        self._inner.on_update_batch(block, row, positions)
        self._republish()

    def members(self) -> Set[str]:
        """Membership lives in the inner range maintainer, not in the
        published (derived) count result."""
        return self._inner.result.keys()

    def on_delete(self, object_id: str) -> None:
        self._inner.on_delete(object_id)
        self._republish()

    def _delete_member(
        self, object_id: str
    ) -> None:  # pragma: no cover - on_delete fully delegates
        raise AssertionError("unreachable: on_delete delegates")

    def recompute(self) -> None:
        self._inner.recompute()
        self._republish()

    def snapshot(self) -> dict[str, Any]:
        return {
            "members": dict(self._inner.result),
            "result": dict(self.result),
        }

    def restore(self, state: Any) -> None:
        """Both layers; the count must be the one ``members`` gives."""
        self._inner.restore(state["members"])
        self._republish()
        if self.result != state["result"]:
            raise QueryError("restored count disagrees with its members")


#: The single synthetic member id an occupancy watch publishes.
OCCUPANCY_KEY = "occupancy"


@register_maintainer(OccupancySpec)
class OccupancyMaintainer(StandingQuery):
    """Per-partition occupancy watch (standing ``iocc``): alert while
    the number of objects whose region center lies inside the watched
    partition is at least ``threshold``.

    Membership is purely geometric — an object is *in* the partition
    iff the partition grid locates its region center there — so every
    update is decided without any distance work (all pairs count as
    ``pairs_skipped``).  The published result is derived, like
    :class:`CountMaintainer`'s: ``{"occupancy": float(n)}`` while
    ``n >= threshold``, empty otherwise, so delta subscribers get
    *entered* when the room fills past the threshold, re-annotations
    while the population varies above it, and *left* when it drains
    back down — the evacuation-scenario alarm.

    The spec carries no query point, so the maintainer anchors itself
    at :func:`partition_anchor`; it is not ``stacked``, sees every
    moved object, and has no influence radius.

    Topology: door-closure churn is transparent (a resync just
    recomputes membership); removing the watched partition itself
    (split/merge) raises from the next recompute — deregister the
    watch before restructuring the room it watches."""

    #: Membership is geometric: no search, no row in the stack.
    stacked: ClassVar[bool] = False

    def __init__(
        self, query_id: str, spec: OccupancySpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.partition_id = spec.partition_id
        self.threshold = spec.threshold
        self._anchor = partition_anchor(host.index.space, spec.partition_id)
        self._members: set[str] = set()

    @property
    def q(self) -> Point:
        """The derived anchor (anchored specs have no query point)."""
        return self._anchor

    def _inside(self, obj: UncertainObject) -> bool:
        located = self.host.index.population.grid.locate(obj.region.center)
        return (
            located is not None
            and located.partition_id == self.partition_id
        )

    def _republish(self) -> None:
        n = len(self._members)
        if n >= self.threshold:
            self.result = {OCCUPANCY_KEY: float(n)}
        else:
            self.result = {}

    def on_update_batch(
        self, block: ObjectBlock, row: BoundsRow | None, positions: Positions
    ) -> None:
        """Membership needs no bounds, so the block is just its
        objects (``row`` is ``None``, ``positions`` all of them)."""
        host = self.host
        for j in positions:
            obj = block.objects[j]
            host.stats.pairs_skipped += 1  # decided without distance work
            was = obj.object_id in self._members
            now = self._inside(obj)
            if was == now:
                continue
            host.touch(self)
            if now:
                self._members.add(obj.object_id)
            else:
                self._members.discard(obj.object_id)
            self._republish()

    def members(self) -> Set[str]:
        """Membership is the private geometric set, not the published
        (derived) occupancy result."""
        return self._members

    def on_delete(self, object_id: str) -> None:
        self.host.stats.pairs_skipped += 1
        if object_id not in self._members:
            return
        self.host.touch(self)
        self._members.discard(object_id)
        self._republish()

    def _delete_member(
        self, object_id: str
    ) -> None:  # pragma: no cover - on_delete fully overridden
        raise AssertionError("unreachable: on_delete is overridden")

    def recompute(self) -> None:
        host = self.host
        host.touch(self)
        grid = host.index.population.grid
        members: set[str] = set()
        for obj in host.index.population:
            located = grid.locate(obj.region.center)
            if (
                located is not None
                and located.partition_id == self.partition_id
            ):
                members.add(obj.object_id)
        self._members = members
        self._republish()

    def snapshot(self) -> dict[str, Any]:
        return {
            "members": sorted(self._members),
            "result": dict(self.result),
        }

    def restore(self, state: Any) -> None:
        """Both layers; the occupancy must be the one ``members``
        gives."""
        members = state["members"]
        population = self.host.index.population
        if not isinstance(members, list) or not all(
            isinstance(oid, str) and oid in population for oid in members
        ):
            raise QueryError(f"restored occupancy members {members!r}")
        self._members = set(members)
        self._republish()
        if self.result != state["result"]:
            raise QueryError("restored occupancy disagrees with its members")
