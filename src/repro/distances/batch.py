"""Batched distance-bounds kernel: the prune phase of every query.

Both consumers of the paper's bounds (Lemmas 1-2/Eq. 7, Lemma 5/Eq. 8)
funnel into the same inner loop.  A standing query — single monitor
or thread shards — derives a pruning interval for each
moved object; a one-shot iRQ/ikNNQ/iPRQ (hence every maintainer
``recompute``) derives one for each candidate of its filter phase; and
only undecided pairs pay an exact refinement.  The per-pair (scalar)
implementation in :mod:`repro.distances.bounds` — the reference this
module is tested against — walks subregions and entry doors in Python,
and repeats the per-object geometry (instance-to-door Euclidean
extrema) once per *query*, even though it does not depend on the query
at all.

This module factors the pair bound into its two independent operands
and evaluates a whole ``(queries x objects)`` block in a handful of
numpy ops — one :func:`block_object_bounds` call per ingest batch for
all of a monitor's standing queries, one per candidate chunk for a
one-shot query:

* :class:`DoorLayout` — per topology version, a partition-indexed view
  of the space's entry doors: door index rows and midpoint arrays,
  shared by both operands below.
* a **query-side pack** (:class:`QueryPack`) — a single-source search
  flattened into one ``(n_doors + 1,)`` weight vector (the extra slot
  is the padding sentinel, pinned at ``+inf``).  A standing query's
  pack is built once per topology version and cached on the
  :class:`~repro.queries.session.QuerySession` with the same
  pin/unpin/evict lifecycle as the search itself; a one-shot query
  flattens the search it ran with, per call.  :class:`QueryStack`
  stacks packs into one ``(Q, n_doors + 1)`` matrix: a monitor's (or
  shard's) standing queries, rebuilt only on registration churn or a
  new layout, or the one pack of a one-shot prune.
* an **object-side pack** (:class:`ObjectBlock`) — every object's
  subregion stats (partition row, Euclidean min/max distances to that
  partition's entry-door midpoints, mass) in padded
  ``(n_subregions, max_doors)`` arrays.  The index's columnar table
  (:mod:`repro.index.columns`) computes the rows for a whole batch when
  objects are written and serves every later block — a moved batch, a
  candidate set — as a gather of those rows; :func:`pack_block` is the
  per-object reference that write is tested against (and what packs
  objects no index owns).

A pair's topological bounds then reduce to a gather + add + row-min
(``tmin(S) = min_d (w[d] + emin[S, d])``, broadcast over the query
axis), with the query's own partition patched by the scalar
direct-path term, exactly as
:func:`repro.distances.bounds.subregion_stats` computes it.

The kernel stops there.  Its result (:class:`BlockBounds`) carries the
per-subregion extrema and, per (query, object), the Eq. 7 envelope
``lo = min_S tmin(S)`` — which by itself proves most pairs "entirely
beyond" — and each query's :class:`BoundsRow` builds an exact Table III
interval (or iPRQ mass bounds) per pair, lazily, only for the pairs a
maintainer cannot decide from the envelope.  On world A 58% of the
objects span two partitions, and running the scalar Eq. 8 loop for
every such pair — to learn what ``lo > r`` already says for 99.9% of
them — used to be four fifths of the kernel's time.

Bit-identity with the scalar reference is a hard invariant, not an
aspiration — ``tests/distances/test_batch.py`` asserts exact float
equality function for function, so a standing result and a one-shot
run can never disagree on a pruning decision.  The arithmetic is
arranged so every float operation matches the scalar sequence:

* planar squared distance is ``dx*dx + dy*dy`` — the same single
  addition ``(xy - p) ** 2 .sum(axis=1)`` performs over two elements;
* the vertical leg adds ``dz * dz`` unconditionally: the scalar path
  skips the addition when ``dz == 0``, but ``x + 0.0`` is bitwise
  identity for the non-negative squared distances involved;
* an unreachable door carries weight ``+inf`` instead of being skipped:
  ``inf + finite`` never wins a ``min`` unless every door is
  unreachable, in which case both paths yield ``inf``;
* ``min``/``max`` reductions are order-insensitive for floats (no NaNs
  can arise), so numpy's reduction order is safe;
* multi-subregion objects hand their per-subregion extrema — packed in
  the same ``obj.subregions()`` order the scalar path iterates — to the
  *scalar* :func:`~repro.distances.bounds.probabilistic_bounds`, so the
  stable sort and the prefix/suffix float accumulation are literally
  the same code; likewise the probability-mass accumulation of the
  standing iPRQ runs as a sequential Python loop in subregion order;
* the envelope shortcut changes who computes a decision, never the
  decision: ``probabilistic_bounds`` initialises its lower bound to
  ``min tmin`` and only ever ``max``es it, so ``lower >= lo`` holds in
  floats and ``lo > r`` implies "entirely beyond"; ``tmax >= tmin``
  per subregion (float addition is monotone), so beyond the envelope
  the mass loop adds nothing.  The upper side has no such guarantee
  (``upper = max(best_lo, best_hi)``), so "entirely within" is never
  shortcut for a multi-partition object;
* the envelope's other end, ``hi = max_S tmax(S)`` (Lemma 2;
  :meth:`BlockBounds.hi_array`, reduced only when a caller asks), is
  used only as a *rank* bound — the one-shot ikNNQ takes the k-th
  smallest ``hi`` as a ceiling ``U`` on the k-th true distance and
  drops the candidates with ``lo > U`` — never as an acceptance test:
  whether an object is accepted without refinement is always read off
  its exact interval.
"""

from __future__ import annotations

import numpy as np

from repro.distances.bounds import (
    DistanceInterval,
    SubregionStats,
    probabilistic_bounds,
)
from repro.geometry.point import Point
from repro.objects.uncertain import Subregion, UncertainObject
from repro.space.doors_graph import DoorDistances
from repro.space.floorplan import IndoorSpace


def offsets_of(counts: np.ndarray) -> np.ndarray:
    """``(n + 1,)`` running offsets of ``n`` consecutive spans."""
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def span_index(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the spans ``starts[i] : starts[i] + counts[i]``
    laid end to end, and the ``(n + 1,)`` offsets of each span within
    that flat sequence — the row gather behind
    :meth:`ObjectBlock.subset` and the columnar table's blocks."""
    offsets = offsets_of(counts)
    flat = np.repeat(starts - offsets[:-1], counts) + np.arange(
        offsets[-1], dtype=np.intp
    )
    return flat, offsets


def point_distances(
    sets: list[np.ndarray], floors, q: Point, fh: float
) -> tuple[np.ndarray, np.ndarray]:
    """``|s, q|_E`` for every instance of every ``(n_i, 2)`` coordinate
    array in ``sets`` (set ``i`` lying on ``floors[i]``), flat, plus
    each set's start in that flat array — ready for
    ``np.minimum.reduceat`` / ``np.maximum.reduceat``.  Element for
    element the floats of
    :meth:`~repro.objects.instances.InstanceSet.distances_to`."""
    counts = [len(xy) for xy in sets]
    xy = np.concatenate(sets)
    xy -= (q.x, q.y)
    np.multiply(xy, xy, out=xy)
    d = xy[:, 0] + xy[:, 1]
    dz = (np.asarray(floors) - q.floor) * fh
    d += np.repeat(dz * dz, counts)
    np.sqrt(d, out=d)
    return d, np.cumsum([0] + counts[:-1])


def row_point_distances(
    block: "ObjectBlock", rows: np.ndarray, q: Point, fh: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`point_distances` from ``q`` to the instances of the
    block's subregion ``rows`` — the direct-path term of rows lying in
    the query's own partition."""
    insts = [block.subs[a].instances for a in rows.tolist()]
    return point_distances(
        [inst.xy for inst in insts], [inst.floor for inst in insts], q, fh
    )


class DoorLayout:
    """Partition-indexed entry-door arrays for one topology version.

    ``part_row[pid]`` names the row of partition ``pid``;
    ``entry_idx[row]`` holds the global door indices of its entry doors
    (in :meth:`~repro.space.floorplan.IndoorSpace.entry_doors` order —
    the order the scalar path iterates) and ``entry_mid[row]`` their
    midpoints as an ``(k, 3)`` array of ``x, y, floor`` columns.  Door
    index ``n_doors`` is the padding :attr:`sentinel`: every query-side
    weight vector pins it at ``+inf`` so padded slots never win a min.
    """

    __slots__ = (
        "topology_version",
        "door_index",
        "n_doors",
        "sentinel",
        "part_row",
        "entry_idx",
        "entry_mid",
    )

    def __init__(self, space: IndoorSpace) -> None:
        self.topology_version = space.topology_version
        self.door_index = {
            door_id: i for i, door_id in enumerate(space.doors)
        }
        self.n_doors = len(self.door_index)
        self.sentinel = self.n_doors
        self.part_row: dict[str, int] = {}
        self.entry_idx: list[np.ndarray] = []
        self.entry_mid: list[np.ndarray] = []
        for pid in space.partitions:
            doors = space.entry_doors(pid)
            self.part_row[pid] = len(self.entry_idx)
            self.entry_idx.append(
                np.array(
                    [self.door_index[d.door_id] for d in doors],
                    dtype=np.intp,
                )
            )
            self.entry_mid.append(
                np.array(
                    [
                        [d.midpoint.x, d.midpoint.y, float(d.midpoint.floor)]
                        for d in doors
                    ],
                    dtype=np.float64,
                ).reshape(len(doors), 3)
            )


class QueryPack:
    """The query side of the batched bound: one single-source search
    (a standing query's cached full Dijkstra, a one-shot query's
    subgraph search) as a flat door-weight vector over a
    :class:`DoorLayout`."""

    __slots__ = ("dd", "layout", "w", "source_row")

    def __init__(self, dd: DoorDistances, layout: DoorLayout) -> None:
        self.dd = dd
        self.layout = layout
        w = np.full(layout.n_doors + 1, np.inf)
        index = layout.door_index
        # A door the layout does not know (removed since the search)
        # lands on the sentinel slot, which is re-pinned below.
        rows = [index.get(door_id, layout.sentinel) for door_id in dd.dist]
        w[rows] = list(dd.dist.values())
        w[layout.sentinel] = np.inf
        self.w = w
        self.source_row = layout.part_row.get(dd.source_partition, -1)


class ObjectBlock:
    """The object side of the batched bound: one ingest batch's
    subregion stats packed into padded arrays, shared across queries.

    Rows are subregions in ``(object, subregion)`` order — objects in
    batch order, subregions in ``obj.subregions()`` order (the order
    the scalar path iterates, which the stable sort inside
    :func:`~repro.distances.bounds.probabilistic_bounds` depends on).
    ``obj_offsets[j] : obj_offsets[j + 1]`` is object ``j``'s row span.
    """

    __slots__ = (
        "objects",
        "layout",
        "sub_door",
        "sub_min",
        "sub_max",
        "sub_part",
        "sub_mass",
        "subs",
        "obj_offsets",
    )

    def __init__(
        self,
        objects: list[UncertainObject],
        layout: DoorLayout,
        sub_door: np.ndarray,
        sub_min: np.ndarray,
        sub_max: np.ndarray,
        sub_part: np.ndarray,
        sub_mass: list[float],
        subs: list[Subregion],
        obj_offsets: np.ndarray,
    ) -> None:
        self.objects = objects
        self.layout = layout
        self.sub_door = sub_door
        self.sub_min = sub_min
        self.sub_max = sub_max
        self.sub_part = sub_part
        self.sub_mass = sub_mass
        #: The rows' :class:`Subregion`s themselves — not their
        #: instance sets, which a multi-partition object only copies
        #: out when something reads them.
        self.subs = subs
        self.obj_offsets = obj_offsets

    def __len__(self) -> int:
        return len(self.objects)

    def subset(self, indices: list[int]) -> "ObjectBlock":
        """The block restricted to the objects at ``indices`` (batch
        positions) — what the sharded router hands each shard.  Rows
        are copied in order, so the subset is value-identical to
        packing the routed objects directly (padding columns beyond a
        subset's own widest partition stay at the sentinel, which the
        weight vector maps to ``+inf`` — they never win a min)."""
        keep = np.asarray(indices, dtype=np.intp)
        off = self.obj_offsets
        rows, offsets = span_index(off[keep], off[keep + 1] - off[keep])
        row_list = rows.tolist()
        return ObjectBlock(
            [self.objects[j] for j in indices],
            self.layout,
            self.sub_door[rows],
            self.sub_min[rows],
            self.sub_max[rows],
            self.sub_part[rows],
            [self.sub_mass[i] for i in row_list],
            [self.subs[i] for i in row_list],
            offsets,
        )


def pack_block(
    objects: list[UncertainObject],
    space: IndoorSpace,
    grid,
    layout: DoorLayout,
) -> ObjectBlock:
    """Pack one batch's subregion stats — the per-object work the
    scalar path repeats per query, paid once here.

    Per subregion, the instance-to-door Euclidean extrema come from a
    single ``(n_instances, n_doors)`` distance matrix whose per-door
    columns are bit-identical to the scalar per-door
    :meth:`~repro.objects.instances.InstanceSet.min_distance_to` /
    ``max_distance_to`` calls (see the module docstring for the float
    argument).
    """
    fh = space.floor_height
    rows_door: list[np.ndarray] = []
    rows_min: list[np.ndarray] = []
    rows_max: list[np.ndarray] = []
    sub_part: list[int] = []
    sub_mass: list[float] = []
    subs: list[Subregion] = []
    offsets = [0]
    for obj in objects:
        mine = obj.subregions(space, grid)
        for s in mine:
            row = layout.part_row[s.partition_id]
            idx = layout.entry_idx[row]
            inst = s.instances
            if idx.size:
                mids = layout.entry_mid[row]
                dx = inst.xy[:, 0][:, None] - mids[:, 0][None, :]
                dy = inst.xy[:, 1][:, None] - mids[:, 1][None, :]
                d2 = dx * dx + dy * dy
                dz = (float(inst.floor) - mids[:, 2]) * fh
                d = np.sqrt(d2 + (dz * dz)[None, :])
                rows_min.append(d.min(axis=0))
                rows_max.append(d.max(axis=0))
            else:
                empty = np.empty(0, dtype=np.float64)
                rows_min.append(empty)
                rows_max.append(empty)
            rows_door.append(idx)
            sub_part.append(row)
            sub_mass.append(s.mass)
            subs.append(s)
        offsets.append(offsets[-1] + len(mine))
    n_sub = len(rows_door)
    dmax = max((r.size for r in rows_door), default=0)
    dmax = max(dmax, 1)
    sub_door = np.full((n_sub, dmax), layout.sentinel, dtype=np.intp)
    sub_min = np.zeros((n_sub, dmax), dtype=np.float64)
    sub_max = np.zeros((n_sub, dmax), dtype=np.float64)
    for i, idx in enumerate(rows_door):
        k = idx.size
        if k:
            sub_door[i, :k] = idx
            sub_min[i, :k] = rows_min[i]
            sub_max[i, :k] = rows_max[i]
    return ObjectBlock(
        list(objects),
        layout,
        sub_door,
        sub_min,
        sub_max,
        np.array(sub_part, dtype=np.intp),
        sub_mass,
        subs,
        np.array(offsets, dtype=np.intp),
    )


def mass_within(
    tmin: list[float],
    tmax: list[float],
    mass: list[float],
    rows: range,
    r: float,
) -> tuple[float, float]:
    """Bounds on the probability mass within ``r`` over the subregion
    ``rows``: a subregion with ``tmax <= r`` counts on both sides, one
    with ``tmin <= r`` on the upper side only.  Sequential in subregion
    order, so float sums match the scalar loop of
    :func:`repro.queries.prob_range.probability_bounds` exactly."""
    lo = hi = 0.0
    for i in rows:
        if tmax[i] <= r:
            lo += mass[i]
            hi += mass[i]
        elif tmin[i] <= r:
            hi += mass[i]
    return lo, hi


class QueryStack:
    """The query side of a whole ``(queries x objects)`` block: the
    weight vectors of ``packs`` stacked into one ``(Q, n_doors + 1)``
    matrix, so one gather + add + row-min serves every query at once.

    ``floors[i]`` is query ``i``'s ``unreached_floor`` — the bound of
    the cutoff or subgraph-restricted search its pack was flattened
    from (see :func:`~repro.distances.bounds.subregion_stats`), or the
    standing iPRQ's ``r + 1.0``; ``None`` leaves an infinite ``tmin``
    infinite.  A monitor keeps one stack for its standing queries and
    rebuilds it when they or the layout change; a one-shot prune
    stacks the one search it ran with.
    """

    __slots__ = ("packs", "layout", "w", "source_row", "floor")

    def __init__(
        self,
        layout: DoorLayout,
        packs: list[QueryPack],
        floors: list[float | None],
    ) -> None:
        self.packs = packs
        self.layout = layout
        self.w = np.array([p.w for p in packs]).reshape(
            len(packs), layout.n_doors + 1
        )
        self.source_row = np.array(
            [p.source_row for p in packs], dtype=np.intp
        )
        #: ``(Q, 1)`` floor column (``+inf`` = none), or ``None`` when
        #: no query has one.
        self.floor = None
        if any(f is not None for f in floors):
            self.floor = np.array(
                [[np.inf if f is None else f] for f in floors]
            )

    def __len__(self) -> int:
        return len(self.packs)


class BoundsRow:
    """One query's row of a :class:`BlockBounds` — what a maintainer's
    ``on_update_batch`` (or the one-shot prune) decides from.

    ``lo[j]`` is object ``j``'s topological lower envelope
    ``min_S tmin(S)`` (Lemma 1).  It never exceeds the lower end of the
    exact pruning interval — :func:`~repro.distances.bounds.
    probabilistic_bounds` starts from this very value and only ever
    ``max``es it — so ``lo[j] > r`` proves "entirely beyond ``r``"
    with the decision the exact interval would give, and the exact
    interval (:meth:`interval`, :meth:`probability`) is built per pair,
    only on demand.  ``dd`` is the query's search, to refine against.
    """

    __slots__ = ("dd", "lo", "_tmin", "_tmax", "_subs", "_mass", "_offsets")

    def __init__(self, bounds: "BlockBounds", i: int) -> None:
        self.dd = bounds.stack.packs[i].dd
        self.lo = bounds.lo[i]
        self._tmin = bounds.tmin[i]
        self._tmax = bounds.tmax[i]
        # Not the block itself: a row may outlive the kernel call (the
        # one-shot prune keeps every chunk's), and the block's padded
        # arrays are what chunking exists to keep transient.
        self._subs = bounds.block.subs
        self._mass = bounds.block.sub_mass
        self._offsets = bounds.offsets

    def intervals(
        self, start: int = 0, stop: int | None = None
    ) -> list[DistanceInterval]:
        """The pruning intervals of objects ``start : stop`` (default:
        all) — the batched twin of
        :func:`repro.distances.bounds.object_bounds`.  A
        single-partition object takes its row directly (Eq. 7); a
        multi-partition object hands its rows, in ``obj.subregions()``
        order, to the scalar :func:`~repro.distances.bounds.
        probabilistic_bounds` (Eq. 8), so sort stability and float
        accumulation match the scalar path by construction."""
        tmin, tmax, subs, mass = self._tmin, self._tmax, self._subs, self._mass
        off = self._offsets[start : None if stop is None else stop + 1]
        out = []
        for a, b in zip(off, off[1:]):
            if b - a == 1:
                out.append(DistanceInterval(tmin[a], tmax[a]))
            else:
                stats = [
                    SubregionStats(
                        subs[i].partition_id, tmin[i], tmax[i], mass[i]
                    )
                    for i in range(a, b)
                ]
                out.append(probabilistic_bounds(stats))
        return out

    def interval(self, j: int) -> DistanceInterval:
        """Object ``j``'s pruning interval (see :meth:`intervals`)."""
        return self.intervals(j, j + 1)[0]

    def probability(self, j: int, r: float) -> tuple[float, float]:
        """Bounds on object ``j``'s probability of lying within ``r`` —
        the batched twin of :func:`repro.queries.prob_range.
        probability_bounds` (the query must have been stacked with
        ``unreached_floor = r + 1.0``).  Beyond the envelope every
        subregion has ``tmax >= tmin > r`` and :func:`mass_within`
        would add nothing."""
        if self.lo[j] > r:
            return 0.0, 0.0
        rows = range(self._offsets[j], self._offsets[j + 1])
        return mass_within(self._tmin, self._tmax, self._mass, rows, r)


class BlockBounds:
    """What :func:`block_object_bounds` returns, as Python floats (the
    consumers are per-pair decisions): ``tmin[i][a]`` / ``tmax[i][a]``
    for query ``i`` and subregion row ``a`` — the floats of
    :func:`repro.distances.bounds.subregion_stats` — and ``lo[i][j]``,
    object ``j``'s lower envelope, the min of ``tmin[i]`` over its
    rows ``offsets[j] : offsets[j + 1]``.  ``lo_array`` is ``lo`` as
    the ``(Q, objects)`` array it was reduced into, for a caller that
    decides a whole candidate set at once."""

    __slots__ = (
        "stack",
        "block",
        "tmin",
        "tmax",
        "lo",
        "offsets",
        "lo_array",
        "_tmax_array",
    )

    def __init__(
        self,
        stack: QueryStack,
        block: ObjectBlock,
        tmin: np.ndarray,
        tmax: np.ndarray,
    ) -> None:
        self.stack = stack
        self.block = block
        self.tmin: list[list[float]] = tmin.tolist()
        self.tmax: list[list[float]] = tmax.tolist()
        self._tmax_array = tmax
        self.lo_array = np.minimum.reduceat(
            tmin, block.obj_offsets[:-1], axis=1
        )
        self.lo: list[list[float]] = self.lo_array.tolist()
        self.offsets: list[int] = block.obj_offsets.tolist()

    def row(self, i: int) -> BoundsRow:
        """The view of query ``i`` (its position in the stack)."""
        return BoundsRow(self, i)

    def hi_array(self, i: int) -> np.ndarray:
        """``hi[j] = max_S tmax(S)`` for query ``i``: the upper end of
        object ``j``'s topological envelope (Lemma 2), reduced here,
        when asked — the ingest path decides from ``lo`` alone and
        never pays for it.  A true upper bound on the expected
        distance, hence a valid *rank* bound; the exact interval's
        upper end is not guaranteed below it float for float, so it is
        no acceptance test (see the module docstring)."""
        return np.maximum.reduceat(
            self._tmax_array[i], self.block.obj_offsets[:-1]
        )


def block_object_bounds(
    stack: QueryStack, block: ObjectBlock, fh: float
) -> BlockBounds:
    """The bounds kernel: Lemmas 1-2 for every ``(query, subregion)``
    pair of the block in one broadcast — the whole-block twin of
    :func:`repro.distances.bounds.subregion_stats`, own-partition
    direct path and ``unreached_floor`` patch included.  Padded and
    unreachable door slots carry ``+inf`` weights and therefore never
    win the row min.  ``fh`` is the space's floor height.

    The one extrema routine: a monitor calls it once per ingest batch
    with its standing queries stacked, the one-shot prune once per
    candidate chunk with a stack of one.
    """
    wrow = stack.w[:, block.sub_door]  # (Q, rows, dmax), a fresh copy
    tmin = (wrow + block.sub_min).min(axis=2)
    wrow += block.sub_max
    tmax = wrow.min(axis=2)
    # The query's own partition: the direct Euclidean path joins the
    # entry doors.  All such rows of one query in one pass.
    own_rows = block.sub_part == stack.source_row[:, None]
    for i in np.flatnonzero(own_rows.any(axis=1)).tolist():
        own = np.flatnonzero(own_rows[i])
        d, starts = row_point_distances(
            block, own, stack.packs[i].dd.source, fh
        )
        tmin[i, own] = np.minimum(tmin[i, own], np.minimum.reduceat(d, starts))
        tmax[i, own] = np.minimum(tmax[i, own], np.maximum.reduceat(d, starts))
    if stack.floor is not None:
        np.copyto(tmin, stack.floor, where=np.isinf(tmin))
    return BlockBounds(stack, block, tmin, tmax)
