"""Query sessions: the memoised single-source search shared by related
queries — and by continuous monitoring.

The paper's future work (Section VII) calls out "reusing computational
efforts on indoor distances when multiple, related queries are issued
within a short period".  A :class:`QuerySession` memoises the
single-source Dijkstra per query point, so a burst of queries from one
location (a kiosk issuing an iRQ, then an ikNNQ, then a widened iRQ)
pays for the door search once.

Two properties make the cache broadly reusable:

* the cached search is the full one every query runs as its phase 2
  (:func:`repro.queries.engine.search_phase`), so one entry serves any
  radius or ``k`` from that point;
* entries depend only on the space's *topology*, never on object
  positions: ``_cached_version`` tracks ``topology_version`` and the
  whole cache is dropped the moment a door closes or a partition
  changes, while arbitrarily many object moves leave it valid.

An entry is the search itself: a float64 weight vector and int32
predecessors, the operand the bounds kernel stacks.

The second property is what the continuous query monitor
(:mod:`repro.queries.monitor`) is built on: each *standing* query keeps
its session-cached search across a whole stream of position updates and
re-derives per-object distance intervals from it at update time, paying
a fresh Dijkstra only when the topology actually changes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.queries.engine import QueryResult, locate_source
from repro.queries.knn import ikNNQ
from repro.queries.prob_range import iPRQ
from repro.queries.range_query import iRQ
from repro.queries.stats import QueryStats
from repro.space.doors_graph import DoorDistances


@dataclass
class QuerySession:
    """A reuse context for queries issued from recurring locations."""

    index: CompositeIndex
    #: LRU capacity for *unpinned* entries (ad-hoc query points).
    #: Pinned entries — standing queries — are exempt and uncounted, so
    #: a long-running server with churning one-shot queries stays
    #: bounded while its standing queries keep their searches forever.
    max_unpinned: int = 256
    _cache: dict[tuple[float, float, int], DoorDistances] = field(
        default_factory=dict
    )
    _pins: dict[tuple[float, float, int], int] = field(default_factory=dict)
    _cached_version: int = -1
    hits: int = 0
    misses: int = 0
    #: Unpinned entries dropped by the LRU bound (topology
    #: invalidations and pin-lifecycle evictions are not counted here).
    evictions: int = 0
    # A monitor driven by a server loop and one-shot queries from
    # other threads share one session; the lock keeps the cache/pin
    # maps consistent.
    # The Dijkstra itself runs outside the lock, so concurrent searches
    # from *different* points never serialise each other.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def door_distances(self, q: Point) -> DoorDistances:
        """The (memoised) full single-source search from ``q``, over
        the current topology's door numbering.

        ``misses`` counts searches actually paid: two threads racing on
        one uncached point may both compute (the search is deterministic,
        so either result is the same), and each counts one miss.  A
        search the topology moved under is over a numbering that is
        gone: it is searched again, and counts again.
        """
        space = self.index.space
        key = (q.x, q.y, q.floor)
        while True:
            with self._lock:
                if self._cached_version != space.topology_version:
                    # Any topology change invalidates every cached
                    # search.
                    self._cache.clear()
                    self._cached_version = space.topology_version
                dd = self._cache.get(key)
                if dd is not None:
                    self.hits += 1
                    # Refresh LRU recency (dict order is the eviction
                    # order).
                    self._cache[key] = self._cache.pop(key)
                    return dd
                self.misses += 1
            source = locate_source(self.index, q)
            dd = self.index.doors_graph.dijkstra_from_point(q, source)
            with self._lock:
                version = dd.topology_version
                if version == self._cached_version == space.topology_version:
                    # First writer wins, so every caller shares one
                    # object.
                    cached = self._cache.setdefault(key, dd)
                    self._evict_overflow()
                    return cached

    def _evict_overflow(self) -> None:
        """Drop least-recently-used *unpinned* entries past the bound.
        Caller holds the lock.  Pinned entries are exempt and do not
        count toward the bound."""
        unpinned = [
            k for k in self._cache if self._pins.get(k, 0) == 0
        ]
        for key in unpinned[: max(0, len(unpinned) - self.max_unpinned)]:
            del self._cache[key]
            self.evictions += 1

    def evict(self, q: Point) -> bool:
        """Drop the cached search from ``q``, if any; returns whether an
        entry was evicted.  Respects pins: a point some standing query
        still holds (see :meth:`pin`) is never evicted."""
        key = (q.x, q.y, q.floor)
        with self._lock:
            if self._pins.get(key, 0) > 0:
                return False
            return self._cache.pop(key, None) is not None

    def pin(self, q: Point) -> None:
        """Declare a long-lived user of the search from ``q`` (a
        standing query).  Pins are reference-counted **on the session**,
        so monitors sharing one session cannot evict each other's
        searches; the entry is dropped when the last pin at the
        point is released."""
        key = (q.x, q.y, q.floor)
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, q: Point) -> bool:
        """Release one pin at ``q``; when it was the last one, the
        cached search is evicted (long-running monitors with churning
        query populations must not grow without bound).  Returns whether
        an entry was evicted."""
        key = (q.x, q.y, q.floor)
        with self._lock:
            count = self._pins.get(key)
            if count is None:
                # Never pinned (or already fully released): a stray
                # unpin must not evict a live entry ad-hoc queries
                # still reuse.
                return False
            if count > 1:
                self._pins[key] = count - 1
                return False
            del self._pins[key]
            return self._cache.pop(key, None) is not None

    @property
    def cache_size(self) -> int:
        """Number of memoised single-source searches currently held."""
        return len(self._cache)

    # ------------------------------------------------------------------

    def irq(
        self, q: Point, r: float, stats: QueryStats | None = None
    ) -> QueryResult:
        """iRQ with the door search served from the session cache."""
        dd = self.door_distances(q)
        return iRQ(q, r, self.index, stats=stats, precomputed_dd=dd)

    def iknnq(
        self, q: Point, k: int, stats: QueryStats | None = None
    ) -> QueryResult:
        """ikNNQ with the door search served from the session cache."""
        dd = self.door_distances(q)
        return ikNNQ(q, k, self.index, stats=stats, precomputed_dd=dd)

    def iprq(
        self,
        q: Point,
        r: float,
        p_min: float,
        stats: QueryStats | None = None,
    ) -> QueryResult:
        """iPRQ with the door search served from the session cache."""
        dd = self.door_distances(q)
        return iPRQ(q, r, p_min, self.index, stats=stats, precomputed_dd=dd)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
