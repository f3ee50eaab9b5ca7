"""Batched distance kernels: the prune and refine phases of every query.

Both consumers of the paper's bounds (Lemmas 1-2/Eq. 7, Lemma 5/Eq. 8)
funnel into the same inner loop.  A standing query derives a pruning
interval for each moved object; a one-shot iRQ/ikNNQ/iPRQ (hence
every maintainer ``recompute``) derives one for each candidate of its
filter phase; and only undecided pairs pay an exact refinement.  The
per-pair (scalar) implementation in :mod:`repro.reference.bounds` —
the reference this module is tested against — walks subregions and
entry doors in Python,
and repeats the per-object geometry (instance-to-door Euclidean
extrema) once per *query*, even though it does not depend on the query
at all.

This module factors the pair bound into its two independent operands
and evaluates a whole ``(queries x objects)`` block in a handful of
numpy ops — one :func:`block_object_bounds` call per ingest batch for
all of a monitor's standing queries, one per candidate chunk for a
one-shot query:

* :class:`DoorLayout` — per topology version, a partition-indexed view
  of the space's entry doors in the doors graph's numbering: door
  index rows and midpoint arrays, shared by both operands below.
* the **query side** is the search itself: a
  :class:`~repro.space.doors_graph.DoorDistances` is one ``(n_doors,)``
  weight vector (``+inf`` for a door it did not reach).
  :class:`QueryStack` stacks searches into one ``(Q, n_doors)`` matrix:
  a monitor's standing queries (their session-cached searches), rebuilt
  only on registration churn or a new layout, or the one search of a
  one-shot prune.
* an **object-side pack** (:class:`ObjectBlock`) — every object's
  subregion rows (:class:`SubregionRows`: partition row, mass, the
  row's instances) and, ragged beneath them, one entry per entry door
  of each row's partition: the door's index and the Euclidean min/max
  distances of the row's instances to its midpoint (padded to a
  world-A batch's widest partition, three quarters of the operand would
  be padding).  The index's columnar table
  (:mod:`repro.index.columns`) stores the same entries, computes them
  for a whole batch when objects are written — and each instance's
  position in its object's own set, in row order — and serves every
  later block — a moved batch, a candidate set — as a gather of them;
  :func:`repro.reference.pack.pack_block` is the per-object reference
  that write is tested against.

A pair's topological bounds then reduce to a gather + add + ragged
row-min (``tmin(S) = min_d (w[d] + emin[S, d])``: ``w[:, ent_door]``
for the whole query axis, ``np.minimum.reduceat`` over each row's
entries), in slices of the query axis sized by :data:`BOUNDS_BUDGET`,
with every (query, row in its own partition) pair of the block patched
in one pass by the direct-path term (:func:`own_row_extrema`), exactly
as :func:`repro.reference.bounds.subregion_stats` computes it.

The kernel stops there.  Its result (:class:`BlockBounds`) carries the
per-subregion extrema and, per (query, object), the Eq. 7 envelope
``lo = min_S tmin(S)`` as arrays — the envelope by itself proves most
pairs "entirely beyond", and the monitor decides those for all its
queries with one array compare — and each query's :class:`BoundsRow`
builds an exact Table III interval (or iPRQ mass bounds) per pair,
lazily, only for the pairs a maintainer cannot decide from the
envelope (on world A 58% of the objects span two partitions, and the
scalar Eq. 8 loop would tell what ``lo > r`` says for 99.9% of them).

The pairs the interval cannot decide either are refined by the module's
other routine, over the same two operands:

* **exact refinement** (:func:`block_expected_distances`) — the
  expected indoor distance ``|q, O|_I`` (Definition 1), or the iPRQ
  qualifying probability, of a list of (query, object) pairs in one
  array pass: the pairs' instances in subregion-row order, each one's
  distance to each entry door of its subregion's partition
  (:func:`door_distances`, the routine the index write's door extrema
  come from; the block of the batch a write just staged carries the
  write's, other rows gather their instances through their
  :class:`SubregionRows`), reduced with the query's door weights to the
  best door per instance, the own-partition direct path, one contiguous
  sum per subregion.
  The monitor refines every standing query's named pairs of an ingest
  batch together, before any maintainer decides
  (:meth:`BlockBounds.refine`: one call for the distances, one for the
  iPRQ probabilities, each pair with its query's ``r``), and a
  maintainer reads them through its :class:`BoundsRow`
  (:meth:`~BoundsRow.exact` / :meth:`~BoundsRow.exact_probability`,
  which refine a pair nobody named as a block of one); a one-shot
  query refines through :class:`repro.queries.engine.Refiner`; the
  scalar
  :func:`repro.reference.expected.expected_indoor_distance` is the
  oracle's path and the reference it is held to, by ``==``, in
  ``tests/distances/test_block_expected.py``.

Bit-identity with the scalar reference is a hard invariant, not an
aspiration — ``tests/distances/test_batch.py`` and
``tests/distances/test_ragged_kernel.py`` assert exact float equality
function for function, so a standing result and a one-shot run can
never disagree on a pruning decision.  The arithmetic is
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
  can arise), so numpy's reduction order is safe, ``reduceat`` over a
  row's entries included (a row with none is left out of it and reads
  ``+inf``, the scalar loop's initial value);
* multi-subregion objects hand their per-subregion extrema — float
  lists in the same ``obj.pieces()`` order the scalar path iterates —
  to :func:`~repro.distances.bounds.probabilistic_pair`, the list body
  the scalar ``probabilistic_bounds`` runs too, so the stable sort and
  the prefix/suffix float accumulation are literally the same code;
  likewise the probability-mass accumulation of the standing iPRQ runs
  as a sequential Python loop in subregion order;
* the envelope shortcut changes who computes a decision, never the
  decision: ``probabilistic_pair`` initialises its lower bound to
  ``min tmin`` and only ever ``max``es it, so ``lower >= lo`` holds in
  floats and ``lo > r`` implies "entirely beyond"; ``tmax >= tmin``
  per subregion (float addition is monotone), so beyond the envelope
  the mass loop adds nothing.  The upper side has no such guarantee
  (``upper = max(best_lo, best_hi)``), so "entirely within" is never
  shortcut for a multi-partition object;
* exact refinement repeats the scalar per-instance sequence
  (``sqrt(dx*dx + dy*dy + dz*dz) + w``, then the ``min`` over doors —
  ``np.minimum.at``, order-insensitive — and with the direct path)
  elementwise; its distance term is the index write's
  (:func:`door_distances`, one routine), so the distances a write
  carries to its batch's block are the ones refinement would compute.
  It sums each subregion's
  ``d_i * p_i`` as one contiguous slice — numpy's pairwise summation
  depends on the elements and their order, both the scalar path's —
  never with ``np.add.reduceat``, whose accumulation order is another;
  a pair's subregion shares are then added in ``obj.pieces()``
  order, in Python, from ``0.0`` as the scalar loop does.  An
  unreachable instance turns its subregion's share into ``inf`` by
  assignment, not by ``inf * p`` (the scalar path overwrites the
  product's ``nan`` the same way);
* the envelope's other end, ``hi = max_S tmax(S)`` (Lemma 2;
  :meth:`BlockBounds.hi_array`, reduced only when a caller asks), is
  used only as a *rank* bound — the one-shot ikNNQ takes the k-th
  smallest ``hi`` as a ceiling ``U`` on the k-th true distance and
  drops the candidates with ``lo > U`` — never as an acceptance test:
  whether an object is accepted without refinement is always read off
  its exact interval.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.distances.bounds import DistanceInterval, probabilistic_pair
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.objects.instances import InstanceSet
from repro.objects.uncertain import UncertainObject
from repro.space.doors_graph import DoorDistances, DoorsCsr
from repro.space.floorplan import IndoorSpace


def offsets_of(counts: np.ndarray) -> np.ndarray:
    """``(n + 1,)`` running offsets of ``n`` consecutive spans
    (``counts`` an integer array)."""
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.add.accumulate(counts, out=offsets[1:])
    return offsets


def span_index(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the spans ``starts[i] : starts[i] + counts[i]``
    laid end to end, and the ``(n + 1,)`` offsets of each span within
    that flat sequence — the row gather behind the columnar table's
    blocks."""
    offsets = offsets_of(counts)
    flat = (starts - offsets[:-1]).repeat(counts)
    flat += np.arange(offsets[-1], dtype=np.intp)
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


def own_row_extrema(
    rows: SubregionRows, idx: np.ndarray, src: np.ndarray, fh: float
) -> tuple[np.ndarray, np.ndarray]:
    """``min`` and ``max`` of ``|s, q|_E`` over the instances of
    subregion row ``idx[i]`` of ``rows`` from the query point ``src[i]``
    (``x, y, floor`` columns), for every ``i`` in one ragged pass — the
    direct-path term of rows lying in a query's own partition.  Element
    for element the floats of :meth:`~repro.objects.instances.
    InstanceSet.distances_to`."""
    d, dy, cuts = rows.coordinates(idx)
    counts = np.diff(cuts)
    d -= src[:, 0].repeat(counts)
    d *= d
    dy -= src[:, 1].repeat(counts)
    dy *= dy
    d += dy
    dz = (rows.floor[idx] - src[:, 2]) * fh
    d += (dz * dz).repeat(counts)
    np.sqrt(d, out=d)
    starts = cuts[:-1]
    return np.minimum.reduceat(d, starts), np.maximum.reduceat(d, starts)


def door_distances(
    xy: np.ndarray,
    row_start: np.ndarray,
    row_len: np.ndarray,
    row_floor: np.ndarray,
    lrow: np.ndarray,
    layout: DoorLayout,
    fh: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``|s, door|_E`` of every instance ``s`` of a run of subregion
    rows to each entry door of its row's partition, in one ragged pass —
    the one routine behind the index write's door extrema and exact
    refinement's per-instance door term.

    Row ``a``'s instances are ``xy[row_start[a] : row_start[a] +
    row_len[a]]``, on floor ``row_floor[a]``, its partition at layout
    row ``lrow[a]``.  Returns ``(d, cuts, inst, entry)``, door-major:
    the rows' entry doors laid end to end (row ``a``'s in layout
    order) each own a run ``d[cuts[e] : cuts[e + 1]]`` of distances,
    one per instance of the row; distance ``c`` is from instance
    ``inst[c]`` to the door at flat layout position ``entry[c]``.
    Element for element the floats of ``sqrt((dx*dx + dy*dy) + dz*dz)``
    with ``dz = (floor - door floor) * fh``, the vertical term left out
    where every row's partition is level (adding ``0.0`` is the
    identity; see the module docstring)."""
    nd = layout.n_entry[lrow]
    doors, _ = span_index(layout.entry_start[lrow], nd)
    per = row_len.repeat(nd)
    inst, cuts = span_index(row_start.repeat(nd), per)
    entry = doors.repeat(per)
    planar = xy.take(inst, axis=0)
    planar -= layout.mid_xy.take(entry, axis=0)
    planar *= planar
    d = planar[:, 0] + planar[:, 1]
    if not layout.level[lrow].all():
        dz = row_floor.repeat(nd) - layout.mid_z[doors]
        dz *= fh
        dz *= dz
        d += dz.repeat(per)
    np.sqrt(d, out=d)
    return d, cuts, inst, entry


class DoorLayout:
    """Partition-indexed entry-door arrays for one topology version.

    The numbering (``door_index``, ``part_row``) is the doors graph's
    :class:`~repro.space.doors_graph.DoorsCsr`, never re-derived.
    ``part_row[pid]`` names the row of partition ``pid`` (and
    ``part_ids[row]`` the partition of a row);
    ``entry_idx[row]`` holds the global door indices of its entry doors
    (in :meth:`~repro.space.floorplan.IndoorSpace.entry_doors` order —
    the order the scalar path iterates) and ``entry_mid[row]`` their
    midpoints as an ``(k, 3)`` array of ``x, y, floor`` columns.

    The same rows laid end to end serve the ragged gathers (the index
    write's door extrema, a block's door entries, exact refinement):
    row ``p``'s doors are
    ``flat_idx`` / ``flat_mid`` at ``entry_start[p] : entry_start[p] +
    n_entry[p]`` (and ``flat_mid``'s columns, contiguous, are
    ``mid_xy`` — ``x, y`` — and ``mid_z``).
    ``level[p]`` says that partition ``p`` spans one floor and each of
    its entry doors lies on it: an instance of it is on that floor too,
    so its vertical leg to every entry door is ``0.0``.
    """

    __slots__ = (
        "topology_version",
        "door_index",
        "n_doors",
        "part_row",
        "part_ids",
        "entry_idx",
        "entry_mid",
        "n_entry",
        "entry_start",
        "level",
        "flat_idx",
        "flat_mid",
        "mid_xy",
        "mid_z",
    )

    def __init__(self, space: IndoorSpace, numbering: DoorsCsr) -> None:
        self.topology_version = numbering.topology_version
        self.door_index = numbering.door_index
        self.n_doors = len(numbering.door_ids)
        self.part_row = numbering.part_row
        self.part_ids = list(self.part_row)  # in row order
        self.entry_idx: list[np.ndarray] = []
        self.entry_mid: list[np.ndarray] = []
        level = []
        for pid in self.part_row:  # in row order
            doors = space.entry_doors(pid)
            part = space.partitions[pid]
            level.append(
                part.floor == part.upper_floor
                and all(d.midpoint.floor == part.floor for d in doors)
            )
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
        self.n_entry = np.array(
            [idx.size for idx in self.entry_idx], dtype=np.intp
        )
        self.entry_start = offsets_of(self.n_entry)
        self.level = np.array(level, dtype=bool)
        self.flat_idx = np.concatenate(
            self.entry_idx + [np.zeros(0, dtype=np.intp)]
        )
        self.flat_mid = np.concatenate(self.entry_mid + [np.zeros((0, 3))])
        self.mid_xy = np.ascontiguousarray(self.flat_mid[:, :2])
        self.mid_z = np.ascontiguousarray(self.flat_mid[:, 2])


@dataclass(slots=True, eq=False)
class RowGeometry:
    """What the index write computed for the rows of the one batch it
    staged, kept by that batch's block so that exact refinement reads
    it instead of computing it again: the rows' instances in row order
    (``xy`` / ``probs``, the batch's run of the instance axis) and their
    :func:`door_distances` (``dist``, ``cuts``, ``inst`` and ``entry``
    as it returns them), with each object's number of entry doors
    (``n_ents``).  One batch's worth, never queued with the table's
    pending writes."""

    xy: np.ndarray
    probs: np.ndarray
    dist: np.ndarray
    cuts: np.ndarray
    inst: np.ndarray
    entry: np.ndarray
    n_ents: np.ndarray

    def take(
        self, objects: list[int], set_start: list[int]
    ) -> tuple[np.ndarray, ...]:
        """``xy``, ``probs`` and the distances of the objects
        ``objects`` (positions, repeats allowed; object ``k``'s
        instances are ``set_start[k] : set_start[k + 1]``), laid end to
        end in that order — fresh arrays, a reader may write them — with
        each distance's door (its flat layout position) and its
        instance's position in the returned ``xy``."""
        # Object ``k``'s entry doors, and so its run of the distances.
        ents = list(itertools.accumulate(self.n_ents.tolist(), initial=0))
        cuts = self.cuts
        cells = [(cuts[ents[k]], cuts[ents[k + 1]]) for k in objects]
        spans = [(set_start[k], set_start[k + 1]) for k in objects]
        # A distance's instance, moved from its object's run of the
        # batch's instances to that object's place in the return.
        shift = itertools.accumulate(
            (b - a for a, b in spans[:-1]), initial=0
        )
        return (
            np.concatenate([self.xy[a:b] for a, b in spans]),
            np.concatenate([self.probs[a:b] for a, b in spans]),
            np.concatenate([self.dist[a:b] for a, b in cells]),
            np.concatenate([self.entry[a:b] for a, b in cells]),
            np.concatenate(
                [
                    self.inst[c:e] + (at - a)
                    for (c, e), (a, _), at in zip(cells, spans, shift)
                ]
            ),
        )


@dataclass(slots=True, eq=False)
class SubregionRows:
    """Subregions as arrays: the operand of exact refinement and of the
    own-partition direct path.

    Row ``a`` is one subregion ``S[j]``: its partition's layout row
    ``part[a]``, its mass ``mass[a]``, the floor its instances lie on
    ``floor[a]``, and its instances at ``start[a] : start[a + 1]`` of
    the instance axis.  Rows come in ``(object, subregion)`` order, an
    object's subregions in ``obj.pieces()`` order, so each object's
    instances are one run of that axis.

    The instances themselves are not copied: ``sets[k]`` is the
    instance set of the ``k``-th object, whose instances are the run
    ``set_start[k] : set_start[k + 1]`` of the instance axis, and
    ``idx[i]`` is the position of instance ``i`` in its object's set
    (``int32``, exact for any object of fewer than 2**31 instances).
    :meth:`instances` gathers the coordinates and probabilities of the
    rows a caller reads, and only those; :meth:`coordinates` the
    coordinates alone.  The arrays are the holder's
    own and the sets are read-only (an object that moves gets a new
    set), so a later index write — compaction included — changes
    nothing a holder reads.

    The rows of the batch an index write just staged also carry what
    that write computed (``geometry``, a :class:`RowGeometry` over the
    whole instance axis): exact refinement reads their instances and
    door distances from it, and :meth:`coordinates` their coordinates.
    Rows gathered from the table, or built by the reference, carry
    none and compute the same floats.
    """

    part: np.ndarray
    mass: list[float]
    floor: np.ndarray
    start: np.ndarray
    sets: list[InstanceSet]
    set_start: np.ndarray
    idx: np.ndarray
    geometry: RowGeometry | None = None

    def _gather(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, list[InstanceSet], np.ndarray]:
        """Where the instances of ``rows`` lie, laid end to end: their
        positions in the read sets placed end to end, those sets (each
        once, in first-read order), and the ``(len(rows) + 1,)``
        offsets of each row's run."""
        first = self.start[rows]
        count = self.start[rows + 1] - first
        inst, cuts = span_index(first, count)
        at = self.idx[inst]
        owner = self.set_start.searchsorted(first, side="right") - 1
        read = dict.fromkeys(owner.tolist())
        if len(read) > 1:
            # Set ``k``'s instances start at ``base[k]`` of the read
            # sets placed end to end.
            which = np.fromiter(read, dtype=np.intp, count=len(read))
            size = self.set_start[which + 1] - self.set_start[which]
            base = np.zeros(len(self.sets), dtype=np.intp)
            base[which] = size.cumsum() - size
            at = at + base[owner].repeat(count)
        return at, [self.sets[k] for k in read], cuts

    def coordinates(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``x`` and ``y`` of the instances of ``rows``, laid end to end
        in that order (one fresh 1-D column each), and the
        ``(len(rows) + 1,)`` offsets of each row's run in them — what a
        reader of positions alone takes, no probability gathered (rows
        that carry their write's :class:`RowGeometry` read its
        row-ordered copy)."""
        if self.geometry is not None:
            first = self.start[rows]
            at, cuts = span_index(first, self.start[rows + 1] - first)
            xy = self.geometry.xy.take(at, axis=0)
            return xy[:, 0], xy[:, 1], cuts
        at, sets, cuts = self._gather(rows)
        if len(sets) == 1:
            xy = sets[0].xy
        else:
            xy = np.concatenate([s.xy for s in sets])
        return xy[:, 0][at], xy[:, 1][at], cuts

    def instances(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`coordinates` plus the instances' ``probs``, gathered
        alike."""
        at, sets, cuts = self._gather(rows)
        if len(sets) == 1:
            xy, probs = sets[0].xy, sets[0].probs
        else:
            xy = np.concatenate([s.xy for s in sets])
            probs = np.concatenate([s.probs for s in sets])
        return xy[:, 0][at], xy[:, 1][at], probs[at], cuts

    def object_instances(
        self, objects: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``xy`` (``(n, 2)``) and ``probs`` of every instance of the
        objects ``objects`` (positions, repeats allowed), laid end to end
        in that order, each object's in its rows' order — the instances
        of all its rows, so no row lookup: object ``k``'s run of
        :attr:`idx` is ``set_start[k] : set_start[k + 1]``."""
        cut = self.set_start
        picked = [
            (self.sets[k], self.idx[cut[k] : cut[k + 1]]) for k in objects
        ]
        if len(picked) == 1:
            ((s, at),) = picked
            return s.xy[at], s.probs[at]
        xy = np.concatenate([s.xy[at] for s, at in picked])
        probs = np.concatenate([s.probs[at] for s, at in picked])
        return xy, probs


@dataclass(slots=True, eq=False)
class ObjectBlock:
    """The object side of the batched bound: one ingest batch's (or one
    chunk of a one-shot query's candidates') subregion stats, ragged as
    the index's table stores them, shared across queries.

    ``rows`` are the subregions in ``(object, subregion)`` order —
    objects in batch order, subregions in ``obj.pieces()`` order (the
    order the scalar path iterates, which the stable sort inside
    :func:`~repro.distances.bounds.probabilistic_pair` depends on).
    ``obj_offsets[j] : obj_offsets[j + 1]`` is object ``j``'s row span.
    Beneath the rows, flat, one entry per entry door of each row's
    partition (in :class:`DoorLayout` order): row ``a`` owns entries
    ``ent_start[a] : ent_start[a] + row_n[a]`` — none, for a door-less
    partition — of ``ent_door`` (global door index), ``ent_min`` and
    ``ent_max`` (its instances' Euclidean extrema to that door).
    The rows read the instances of :attr:`objects` themselves (their
    read-only sets, through a copied index): a block built from the
    index's table still refines to the values it was built with after
    its objects move or the table compacts.
    """

    objects: list[UncertainObject]
    layout: DoorLayout
    ent_door: np.ndarray
    ent_min: np.ndarray
    ent_max: np.ndarray
    row_n: np.ndarray
    rows: SubregionRows
    obj_offsets: np.ndarray
    ent_start: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.ent_start = offsets_of(self.row_n)

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def sub_part(self) -> np.ndarray:
        """Each row's partition, as its layout row."""
        return self.rows.part

    @property
    def sub_mass(self) -> list[float]:
        return self.rows.mass


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
    :func:`repro.reference.bounds.probability_bounds` exactly."""
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
    weight vectors of ``searches`` stacked into one ``(Q, n_doors)``
    matrix, so one gather + add + row-min serves every query at once.

    A search of another topology version than the layout's is over
    another numbering: it raises :class:`~repro.errors.QueryError`.
    ``floors[i]`` is query ``i``'s ``unreached_floor`` (see
    :func:`~repro.reference.bounds.subregion_stats`): an iPRQ's
    ``r + 1.0``, one-shot or standing; ``None`` leaves an infinite
    ``tmin`` infinite.
    """

    __slots__ = (
        "searches", "layout", "w", "source_row", "source_xyz", "floor"
    )

    def __init__(
        self,
        layout: DoorLayout,
        searches: list[DoorDistances],
        floors: list[float | None],
    ) -> None:
        version = layout.topology_version
        if any(dd.topology_version != version for dd in searches):
            raise QueryError(f"a search not of topology version {version}")
        self.searches = searches
        self.layout = layout
        self.w = np.array([dd.w for dd in searches]).reshape(
            len(searches), layout.n_doors
        )
        self.source_row = np.array(
            [dd.source_row for dd in searches], dtype=np.intp
        )
        #: ``(Q, 3)`` query points, as ``x, y, floor`` columns.
        self.source_xyz = np.array(
            [
                (dd.source.x, dd.source.y, float(dd.source.floor))
                for dd in searches
            ]
        ).reshape(len(searches), 3)
        #: ``(Q, 1)`` floor column (``+inf`` = none), or ``None`` when
        #: no query has one.
        self.floor = None
        if any(f is not None for f in floors):
            self.floor = np.array(
                [[np.inf if f is None else f] for f in floors]
            )

    def __len__(self) -> int:
        return len(self.searches)


class BoundsRow:
    """One query's row of a :class:`BlockBounds` — what a maintainer's
    ``on_update_batch`` (or the one-shot prune) decides from.

    ``lo[j]`` is object ``j``'s topological lower envelope
    ``min_S tmin(S)`` (Lemma 1).  It never exceeds the lower end of the
    exact pruning interval — :func:`~repro.distances.bounds.
    probabilistic_pair` starts from this very value and only ever
    ``max``es it — so ``lo[j] > r`` proves "entirely beyond ``r``"
    with the decision the exact interval would give, and the exact
    bounds are computed per pair, only on demand: :meth:`pair` as
    plain floats (the one-shot prune), :meth:`interval` as a
    :class:`~repro.distances.bounds.DistanceInterval` built once per
    pair and kept for the next asker (the maintainers), and
    :meth:`probability`.  ``dd`` is the query's search.

    A pair the interval leaves undecided is refined by :meth:`exact` /
    :meth:`exact_probability`: the value :meth:`BlockBounds.refine`
    kept for it — the monitor refines every stacked query's pairs of a
    batch in one pass before any maintainer decides — or, for a pair
    nobody named up front, a block of one computed on the spot.  Either
    way the float is the one a block of one computes.

    The row holds views of the kernel's arrays and makes the Python
    floats its per-pair decisions run on when the first one is asked
    for: a row nobody decides from costs nothing.  A row made with
    ``refine=False`` decides but cannot refine: it keeps neither the
    block's instance index nor its objects' instance sets alive.
    """

    __slots__ = (
        "dd",
        "_arrays",
        "_floats",
        "_mass",
        "_rows",
        "_offsets",
        "_stack",
        "_i",
        "_fh",
        "_intervals",
        "_exact",
        "_probability",
    )

    def __init__(
        self, bounds: "BlockBounds", i: int, refine: bool = True
    ) -> None:
        self.dd = bounds.stack.searches[i]
        rows = bounds.block.rows
        self._arrays = (bounds.lo[i], bounds.tmin[i], bounds.tmax[i])
        self._floats: list[list] | None = None
        self._stack = bounds.stack
        self._i = i
        self._fh = bounds.fh
        self._intervals: dict[int, DistanceInterval] = {}
        self._exact: dict[int, float] = {}
        self._probability: dict[tuple[int, float], float] = {}
        # Not the block itself: a row may outlive the kernel call (the
        # one-shot prune keeps every chunk's), and the block's door
        # entries — like its instance index and the instance sets it
        # holds, for a row that does not refine — are what chunking
        # exists to keep transient.
        self._mass = rows.mass
        self._rows = rows if refine else None
        self._offsets = bounds.offsets

    def _lists(self) -> list[list]:
        """``lo`` per object; ``tmin`` and ``tmax`` per subregion
        row."""
        floats = self._floats
        if floats is None:
            floats = self._floats = [a.tolist() for a in self._arrays]
        return floats

    @property
    def lo(self) -> list[float]:
        return self._lists()[0]

    def pair(self, j: int) -> tuple[float, float]:
        """Object ``j``'s pruning interval as ``(lower, upper)`` — the
        batched twin of :func:`repro.reference.bounds.object_bounds`.
        A single-partition object takes its row directly (Eq. 7); a
        multi-partition object's rows, in ``obj.pieces()`` order, go
        to :func:`~repro.distances.bounds.probabilistic_pair` (Eq. 8),
        the very body the reference runs, so sort stability and float
        accumulation match it by construction."""
        _, tmin, tmax = self._lists()
        a, b = self._offsets[j], self._offsets[j + 1]
        if b - a == 1:
            return tmin[a], tmax[a]
        return probabilistic_pair(tmin, tmax, self._mass, a, b)

    def interval(self, j: int) -> DistanceInterval:
        """:meth:`pair` as a :class:`~repro.distances.bounds.
        DistanceInterval`, built once per pair and kept for the next
        asker (the maintainers')."""
        interval = self._intervals.get(j)
        if interval is None:
            interval = self._intervals[j] = DistanceInterval(*self.pair(j))
        return interval

    def probability(self, j: int, r: float) -> tuple[float, float]:
        """Bounds on object ``j``'s probability of lying within ``r`` —
        the batched twin of :func:`repro.reference.bounds.
        probability_bounds` (the query must have been stacked with
        ``unreached_floor = r + 1.0``).  Beyond the envelope every
        subregion has ``tmax >= tmin > r`` and :func:`mass_within`
        would add nothing."""
        lo, tmin, tmax = self._lists()
        if lo[j] > r:
            return 0.0, 0.0
        rows = range(self._offsets[j], self._offsets[j + 1])
        return mass_within(tmin, tmax, self._mass, rows, r)

    def _refine(self, j: int, r: float | None = None) -> float:
        """Object ``j`` refined alone: the pair no batch pass named."""
        if self._rows is None:
            raise QueryError("a row made with refine=False cannot refine")
        return block_expected_distances(
            self._stack, self._rows, self._offsets, [(self._i, j)], self._fh, r
        )[0]

    def exact(self, j: int) -> float:
        """Object ``j``'s exact expected indoor distance ``|q, O|_I`` —
        float for float :func:`repro.reference.expected.
        expected_indoor_distance` against the query's search."""
        d = self._exact.get(j)
        if d is None:
            d = self._exact[j] = self._refine(j)
        return d

    def exact_probability(self, j: int, r: float) -> float:
        """Object ``j``'s exact probability of lying within ``r`` —
        float for float :func:`repro.reference.expected.
        qualifying_probability`."""
        p = self._probability.get((j, r))
        if p is None:
            p = self._probability[j, r] = self._refine(j, r)
        return p


@dataclass(slots=True, eq=False)
class BlockBounds:
    """What :func:`block_object_bounds` returns, as arrays:
    ``tmin[i, a]`` / ``tmax[i, a]`` for query ``i`` and subregion row
    ``a`` — the floats of :func:`repro.reference.bounds.
    subregion_stats` — and ``lo[i, j]``, object ``j``'s lower envelope,
    the min of ``tmin[i]`` over its rows ``offsets[j] : offsets[j +
    1]``.  A caller that decides a whole block at once (the monitor's
    near mask, the one-shot prune) reads the arrays; per-pair decisions
    go through a :meth:`row`, which makes Python floats of its own row
    only, and :meth:`refine` refines the pairs of many rows in one
    pass."""

    stack: QueryStack
    block: ObjectBlock
    tmin: np.ndarray
    tmax: np.ndarray
    fh: float
    lo: np.ndarray = field(init=False)
    offsets: list[int] = field(init=False)
    _rows: dict[int, BoundsRow] = field(init=False)

    def __post_init__(self) -> None:
        starts = self.block.obj_offsets
        self.lo = np.minimum.reduceat(self.tmin, starts[:-1], axis=1)
        self.offsets = starts.tolist()
        self._rows = {}

    def row(self, i: int, refine: bool = True) -> BoundsRow:
        """The view of query ``i`` (its position in the stack) — one
        per query, so what :meth:`refine` keeps and the intervals
        already built are there for every later asker; with
        ``refine=False`` a fresh one that keeps no instance index
        alive."""
        if not refine:
            return BoundsRow(self, i, refine=False)
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = BoundsRow(self, i)
        return row

    def refine(
        self, pairs: list[tuple[int, int]], r: list[float] | None = None
    ) -> None:
        """Refine the (stack position, block position) ``pairs`` in one
        :func:`block_expected_distances` call and keep each value in
        its query's :meth:`row`: distances for :meth:`BoundsRow.exact`,
        or — given one radius per pair — probabilities for
        :meth:`BoundsRow.exact_probability`.  A pair's value does not
        depend on the others in the call, so a kept value is the one
        the row would compute alone."""
        if not pairs:
            return
        values = block_expected_distances(
            self.stack, self.block.rows, self.offsets, pairs, self.fh, r
        )
        if r is None:
            for (i, j), d in zip(pairs, values):
                self.row(i)._exact[j] = d
        else:
            for (i, j), radius, p in zip(pairs, r, values):
                self.row(i)._probability[j, radius] = p

    def hi_array(self, i: int) -> np.ndarray:
        """``hi[j] = max_S tmax(S)`` for query ``i``: the upper end of
        object ``j``'s topological envelope (Lemma 2), reduced here,
        when asked — the ingest path decides from ``lo`` alone and
        never pays for it.  A true upper bound on the expected
        distance, hence a valid *rank* bound; the exact interval's
        upper end is not guaranteed below it float for float, so it is
        no acceptance test (see the module docstring)."""
        return np.maximum.reduceat(self.tmax[i], self.block.obj_offsets[:-1])


#: Elements one temporary of :func:`block_object_bounds` may hold (2 MB
#: of float64): its ``(queries x door entries)`` operand is evaluated in
#: slices of as many queries as fit.  The entry axis is the caller's to
#: bound (an ingest batch, a ``PRUNE_CHUNK`` of candidates); a monitor's
#: usual call — tens of queries x hundreds of entries — is one slice.
BOUNDS_BUDGET = 1 << 18


def block_object_bounds(
    stack: QueryStack, block: ObjectBlock, fh: float
) -> BlockBounds:
    """The bounds kernel: Lemmas 1-2 for every ``(query, subregion)``
    pair of the block — the whole-block twin of
    :func:`repro.reference.bounds.subregion_stats`, own-partition
    direct path and ``unreached_floor`` patch included.  One gather of
    the queries' weights at the block's door entries, one add per
    extremum, one ragged row-min.  An unreachable door carries a
    ``+inf`` weight and never wins; a door-less row stays ``+inf``.
    ``fh`` is the space's floor height.

    The one extrema routine: a monitor calls it once per ingest batch
    with its standing queries stacked, the one-shot prune once per
    candidate chunk with a stack of one.
    """
    n_queries = len(stack)
    # Rows that own no entry are left out of the ``reduceat`` (it cannot
    # express an empty span) and keep ``+inf``.
    served = block.row_n > 0
    starts = block.ent_start[:-1][served]
    cols = slice(None) if len(starts) == len(served) else served
    tmin = np.full((n_queries, len(served)), np.inf)
    tmax = np.full((n_queries, len(served)), np.inf)
    if len(starts):
        step = max(1, BOUNDS_BUDGET // len(block.ent_door))
        for at in range(0, n_queries, step):
            via = stack.w[at : at + step, block.ent_door]  # a fresh copy
            tmin[at : at + step, cols] = np.minimum.reduceat(
                via + block.ent_min, starts, axis=1
            )
            via += block.ent_max
            tmax[at : at + step, cols] = np.minimum.reduceat(
                via, starts, axis=1
            )
    # The queries' own partitions: the direct Euclidean path joins the
    # entry doors.  Every such (query, row) pair in one pass.
    own_query, own_row = np.nonzero(
        block.sub_part == stack.source_row[:, None]
    )
    if len(own_row):
        near, far = own_row_extrema(
            block.rows, own_row, stack.source_xyz[own_query], fh
        )
        own = (own_query, own_row)
        tmin[own] = np.minimum(tmin[own], near)
        tmax[own] = np.minimum(tmax[own], far)
    if stack.floor is not None:
        np.copyto(tmin, stack.floor, where=np.isinf(tmin))
    return BlockBounds(stack, block, tmin, tmax, fh)


#: (query, object) pairs refined per array pass of
#: :func:`block_expected_distances` — bounds its transient ragged
#: ``(instance x entry door)`` vectors (a world-A pair is ~800 such
#: elements, a pass a handful of vectors of them); the per-call
#: overhead is amortised long before this size.
REFINE_CHUNK = 32


def block_expected_distances(
    stack: QueryStack,
    rows: SubregionRows,
    offsets: Sequence[int] | np.ndarray,
    pairs: list[tuple[int, int]],
    fh: float,
    r: float | Sequence[float] | None = None,
) -> list[float]:
    """Exact refinement for a list of (query, object) pairs: the
    expected indoor distance ``|q, O|_I`` of each (Definition 1,
    Eqs. 2-6), or — given ``r`` — its iPRQ qualifying probability
    ``sum_i p_i [|q, s_i|_I <= r]``, ``r`` one radius for every pair
    or one per pair.

    A pair is ``(stack position, block position)``: query ``i`` of
    ``stack`` against the object whose subregions are rows
    ``offsets[j] : offsets[j + 1]`` of ``rows`` — a block's ``rows`` /
    ``obj_offsets``, the index table's
    (:meth:`~repro.index.columns.ObjectColumns.rows`), or
    :func:`repro.reference.pack.subregion_rows` of bare objects.  The
    rows of the batch a write just staged carry that write's instances
    and :func:`door_distances` (:class:`RowGeometry`) and are refined
    from them; any other rows gather their pairs' instances and compute
    the distances with the same routine, so the floats are the same
    either way.  Float for float the scalar
    :func:`repro.reference.expected.expected_indoor_distance` ``.value``
    / :func:`~repro.reference.expected.qualifying_probability`, and a
    pair's value does not depend on what else is in the list: every
    per-instance distance is elementwise arithmetic and an
    order-insensitive ``min`` (the module docstring's argument), and
    the one order-sensitive step — the sum over a subregion's
    instances — is one contiguous pairwise ``sum`` per subregion over
    the very elements, in the very order, the scalar path sums (which
    ``np.add.reduceat`` would not give), accumulated per pair in
    ``obj.pieces()`` order.
    """
    out: list[float] = []
    for at in range(0, len(pairs), REFINE_CHUNK):
        end = at + REFINE_CHUNK
        radius = r if r is None or np.isscalar(r) else r[at:end]
        out += _refine_pass(stack, rows, offsets, pairs[at:end], fh, radius)
    return out


def _refine_pass(
    stack: QueryStack,
    rows: SubregionRows,
    offsets: Sequence[int] | np.ndarray,
    pairs: list[tuple[int, int]],
    fh: float,
    r: float | Sequence[float] | None,
) -> list[float]:
    """One array pass of :func:`block_expected_distances`.  A pair's
    rows are one whole object, so its instances are one run of the
    instance axis, and its door distances one run of the door-major
    vector.  Rows that carry their write's :class:`RowGeometry` hand
    over those runs as the write computed them; others gather the
    instances through their index and compute the vector here, with
    the same routine.  Each distance plus its query's weight is then
    reduced to the best door per instance (a door-less partition's
    instances keep ``inf``), the own-partition direct path joins, and
    each subregion's terms are summed in one contiguous sum."""
    layout = stack.layout
    # -- the pairs' rows laid end to end -------------------------------
    objs = [j for _, j in pairs]
    spans = [range(offsets[j], offsets[j + 1]) for j in objs]
    n_rows = [len(span) for span in spans]
    mine = np.array([a for span in spans for a in span], dtype=np.intp)
    lrow = rows.part[mine]
    row_query = np.array(
        [i for (i, _), n in zip(pairs, n_rows) for _ in range(n)],
        dtype=np.intp,
    )
    row_floor = rows.floor[mine]
    row_len = rows.start[mine + 1] - rows.start[mine]
    row_of = np.arange(len(mine)).repeat(row_len)
    row_ends = np.add.accumulate(row_len)

    # -- ragged (instance x entry door): the door distance plus the
    # query's weight, reduced to the best door per instance (a door-less
    # partition's instances, reached by the direct path only, keep
    # ``inf``) -----------------------------------------------------------
    geometry = rows.geometry
    if geometry is None:
        xy, probs = rows.object_instances(objs)
        path, _, inst, entry = door_distances(
            xy, row_ends - row_len, row_len, row_floor, lrow, layout, fh
        )
    else:
        xy, probs, path, entry, inst = geometry.take(
            objs, rows.set_start.tolist()
        )
    path += stack.w[row_query[row_of][inst], layout.flat_idx[entry]]
    d = np.full(len(row_of), np.inf)
    np.minimum.at(d, inst, path)

    # -- rows in the query's own partition: the direct path joins -----
    own_row = lrow == stack.source_row[row_query]
    if own_row.any():
        at = np.flatnonzero(own_row[row_of])
        src = stack.source_xyz.take(row_query[row_of[at]], axis=0)
        dx = xy[at, 0] - src[:, 0]
        dy = xy[at, 1] - src[:, 1]
        dz = (row_floor[row_of[at]] - src[:, 2]) * fh
        d[at] = np.minimum(d[at], np.sqrt(dx * dx + dy * dy + dz * dz))

    # -- one contiguous sum per subregion row, then a pair's rows in
    # order ------------------------------------------------------------
    lost_rows: list[int] = []
    if r is None:
        lost = np.isinf(d)
        if lost.any():
            # An unreachable instance makes its subregion's share
            # infinite whatever its probability (never ``inf * 0``).
            lost_rows = row_of[lost].tolist()
            d[lost] = 0.0
        terms = d * probs
    else:
        if not np.isscalar(r):
            # One radius per pair: each instance meets its pair's.
            r = np.asarray(r, dtype=np.float64).repeat(n_rows)[row_of]
        within = d <= r
        terms = probs[within]
        row_ends = np.concatenate(([0], within.cumsum()))[row_ends]
    ends = row_ends.tolist()
    add = np.add.reduce  # ``terms[a:b].sum()``, without its wrapper
    shares = [float(add(terms[a:b])) for a, b in zip([0] + ends, ends)]
    for row in lost_rows:
        shares[row] = np.inf
    out = []
    for a, b in itertools.pairwise(itertools.accumulate(n_rows, initial=0)):
        total = 0.0
        for share in shares[a:b]:
            total += share
        out.append(total)
    return out
