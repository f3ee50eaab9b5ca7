"""The columnar object table: per-object packed state behind the
filter and prune phases.

The paper's RangeSearch (Algorithm 4) and the Table III bounds both
consume per-object geometry that does not depend on the query: an
object's subregion rows (the :class:`~repro.distances.batch.ObjectBlock`
operand of the bounds kernel) and its instances' distance to the
staircase entrances on its floor.  This module keeps that state in
slot-addressed numpy columns, written when an object moves instead of
recomputed by every query that looks at it, next to the leaf level of
the indR-tree flattened into arrays.  One table then serves

* :meth:`ObjectColumns.search` — Algorithm 4's leaf criterion for the
  units, floor by floor, then for the bucketed objects, in a handful
  of array ops;
* :meth:`ObjectColumns.block` — the candidate set (or a moved batch)
  as an :class:`~repro.distances.batch.ObjectBlock`, by gather.

**What it owns.**  Per topology version (:class:`_Topology`; no
object is read to build it): the
:class:`~repro.distances.batch.DoorLayout`, the partition table in
``partition_id`` order (bounds, floor span, layout row, its units as
one span) and the same partition rows listed per floor (a staircase
under every floor it spans), the unit arrays (rect, floor,
partition), the same unit rows grouped per floor with each floor's
rect-MINDIST to its entrances, and the per-floor entrance index.  Per
object slot (:class:`_State`): floor, instance bounding box, entrance
legs (and whether they are stale: see the write), the rows of
the index units the object overlaps — the paper's o-table (object ->
units), and the only place the index stores it — a span of subregion
rows (partition row, mass, instance count), ragged beneath the rows
one ``(emin, emax)`` entry per entry door of each row's partition,
and an index into the object itself: each instance's position in the
object's own :class:`~repro.objects.instances.InstanceSet` (``int32``,
4 B each), laid out in subregion-row order, so that the subregion
``S[j]`` of Section II-B is a contiguous slice of positions.  The
object's set is the only store of its instance values — read-only, and
replaced, never written, when the object moves.  All three span
columns are bump-allocated: a slot whose count grows gets a fresh span at the
top (one whose count shrinks keeps the head of its own), and once the
dead entries exceed :data:`_DEAD_SHARE` of the live ones the live
spans are packed down, :data:`_BUILD_CHUNK` slots a pass.  The reverse
lookup, unit -> objects (each leaf's bucket), is not maintained: it is
a CSR over the unit rows (:meth:`_State.buckets`: offsets per unit,
slots ascending within each), derived on the first bucket read after a
write — O(memberships), about 60 KB on world A.  The search does not
read it (it gathers the passing units straight from the rows); the
ikNNQ seed expansion, the reference tree walk and
:meth:`ObjectColumns.validate` do.  Rows are stored ragged because a
hallway has tens of doors and a room one: padded to the widest
partition the table is several times larger, and the resident set is
a gated metric; a block is the same ragged entries gathered, and the
bounds kernel reduces them as they lie.  A block also gathers — copies
— its objects' instance index and keeps the objects it was built from
(:class:`~repro.distances.batch.SubregionRows`); exact refinement and
the own-partition direct path gather the coordinates of only the rows
they read through it: a later write, compaction or a move of the
block's own objects included, changes nothing a block has handed out.
The filter's one instance test (min instance distance to a same-floor
query point) decides from the instance box (32 B a slot) whenever the
box lies wholly within or wholly beyond ``r``, and reads the instances
only for those it straddles, a bounded number at a time.  No instance
x door matrix outlives the write that computed it.

**The write.**  One routine, :meth:`_Topology.stage`, resolves a list
of objects in a fixed number of array operations and is the only body
behind the index's ``update_objects`` / ``move_object`` /
``insert_object`` and the table's own rebuild (in chunks of
:data:`_BUILD_CHUNK`): instance bounds by ``reduceat``; candidate
partitions as a rect-overlap test over the partitions of each object's
floor; index units as same-floor rect overlap over the candidates'
unit spans; subregions as one containment test per (instance,
candidate of its object) pair whose first hit per instance is the
scalar first-wins rule; rows as runs of one stable sort of the
instances by (object, subregion), which gives the order the table
indexes them in; door extrema as one ragged ``(row, door)
x instances-of-row`` gather reduced straight into the ragged entries.
Per row it sums the mass (one contiguous sum each: the floats of
``probs[mask].sum()``); per object only the slot lookup runs — no
:class:`~repro.reference.subregions.Subregion` is built, no piece
vector is kept.  :meth:`_State.commit` allocates every changed span
and writes the rows, entries and instance index.  Nothing is written
until the whole batch has resolved, so a batch the index cannot hold
leaves it untouched.  A write does not compute what no reader of the
batch reads: entrance legs, read only by a search that reaches the
object from another floor, are marked stale and refilled by that
search (:data:`_BUILD_CHUNK` objects a pass; a build fills them all).  Each
step repeats the floats or the set of a scalar reference in
:mod:`repro.reference` — :func:`~repro.reference.tree.resolve_units`
(an indR-tree search),
:func:`~repro.reference.subregions.subregions` (the split of
:meth:`~repro.objects.uncertain.UncertainObject.pieces`, which the
rare object with a wall-clipped instance or a non-rectangular
candidate footprint takes directly, without building subregions),
:func:`~repro.reference.pack.pack_block` (called by
:meth:`ObjectColumns.validate` and the tests only) — and
``tests/index/test_columns_write.py`` holds it to them by ``==``.

**Invalidation.**  Both parts are stamped with
``space.topology_version``.  A read under a newer version rebuilds the
whole state from the population (door indices, unit rows, subregion
rows and the instances' order all move with the topology), resolving
every object afresh through the same batched write,
:data:`_BUILD_CHUNK` objects a pass;
an object that overlaps no unit any more — its partition was deleted —
is left out until it moves back onto the map.  The index's structural
paths (``apply_event``, ``insert_partition``, ``delete_partition``)
additionally drop it outright and edit no object's units.  Object
writes against a dropped or stale state are resolved (a write the
index cannot hold still raises) but not stored: the population is the
truth, and the rebuild reads the object from it.  Only the index's own
build is strict: an object off the map raises there.

**Threading.**  One writer: the index mutation the service already
serialises.  Readers (one-shot queries on other threads) must not run
concurrently with a writer; a rebuild is built privately and published
by single assignment under a lock, so a reader sees either the old
state or the complete new one.  A search writes too — it refills stale
entrance legs — and two concurrent readers may refill one slot at
once: both compute and store the same floats, so either order leaves
the same row.  Likewise two readers may both derive the bucket CSR
after a write; each publishes the same arrays by one assignment.

Bit-identity with the tree walk
(:func:`~repro.reference.tree.range_search_tree`) and
with the per-pair bounds is by construction: every distance repeats
the scalar operation sequence (see the float notes in
:mod:`repro.distances.batch`), and Eq. 10's ``min`` over the query's
first-hop entrances (those on its floor, plus every entrance of a
staircase it stands in) is hoisted out of the per-entity loop —
``min_sq((dq + M[sq, e]) + leg) == min_sq(dq + M[sq, e]) + leg``
because float addition is monotone.  The same monotonicity makes the
search's two shortcuts exact: a floor none of whose entrances ``q``
reaches within ``r`` holds no passing unit (``fl(reach + leg) >=
reach`` for ``leg >= 0``), and an instance box bounds every instance
distance float for float (rounding is monotone, so per axis ``fl(lo -
qx) <= fl(x - qx) <= fl(hi - qx)``; squares, the same-order sum and
``sqrt`` are monotone too — see :func:`_within`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.distances.batch import (
    DoorLayout,
    ObjectBlock,
    SubregionRows,
    offsets_of,
    point_distances,
    span_index,
)
from repro.errors import IndexError_
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.indr import IndexUnit
from repro.index.skeleton import SkeletonTier
from repro.objects.instances import check_mass
from repro.objects.population import ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.space.doors_graph import DoorsGraph
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid
from repro.space.partition import PartitionKind

#: Objects resolved per array pass during a build or rebuild — bounds
#: the transient arrays (and so the resident-set peak) of a full build:
#: at 256 the ``(row, door) x instances`` gather and the entrance-leg
#: matrices of one pass stood 6 MB above the finished table on world A
#: (2 000 objects x 50 instances), at 64 they vanish in its noise, and
#: the build is no slower.
_BUILD_CHUNK = 64
#: Objects whose instances one pass of the search's Euclidean test
#: gathers — bounds the transient arrays of a whole-venue search.
_SEARCH_CHUNK = 512
#: Row, entry and instance spans are bump-allocated: a slot whose count
#: grows gets a new span at the top and its old one is dead (one whose
#: count shrinks keeps the head of its own).  Once the dead entries of a
#: column group exceed this share of the live ones, the group is
#: compacted.  At a quarter, world A's table (1.46 MB built,
#: 0.40 MB of it the instance index) reads 2.06 MB after
#: 1 000, 5 000 and 20 000 twenty-move batches; with no instance
#: column it read 1.58 MB from 1.01 MB, as much as exact-size free
#: lists did, and compacting only once dead exceeded live read 0.45 MB
#: more.
_DEAD_SHARE = 0.25


def _grown(array: np.ndarray, rows: int, fill) -> np.ndarray:
    """``array`` with at least ``rows`` first-axis entries (new entries
    hold ``fill``); the same object when it is already large enough."""
    have = array.shape[0]
    if rows <= have:
        return array
    out = np.full(
        (max(rows, have + have // 4 + 16),) + array.shape[1:],
        fill,
        dtype=array.dtype,
    )
    out[:have] = array
    return out


@dataclass(slots=True)
class _Frame:
    """A batch's instances laid end to end, their bounds, and the
    partitions each object may overlap."""

    objects: list[UncertainObject]
    starts: np.ndarray  #: ``(B + 1,)`` instance offsets per object
    xy: np.ndarray
    floors: np.ndarray
    floor_idx: np.ndarray  #: row of each object's floor, -1 if unknown
    lo: np.ndarray  #: ``(B, 2)`` instance bounds, as ``obj.bounds()``
    hi: np.ndarray
    c_obj: np.ndarray  #: candidate (object, partition) pairs, sorted
    c_part: np.ndarray


@dataclass(slots=True)
class _Staged:
    """Everything the table stores for a batch, resolved against one
    topology with nothing written yet (see :meth:`_Topology.stage`)."""

    objects: list[UncertainObject]
    unit_rows: np.ndarray  #: flat, object-major, ascending per object
    n_units: np.ndarray
    floor_idx: np.ndarray
    lo: np.ndarray  #: ``(B, 2)`` instance bounds, as ``obj.bounds()``
    hi: np.ndarray
    n_rows: np.ndarray
    sub_part: np.ndarray
    sub_mass: list[float]
    sub_len: np.ndarray  #: instances per row
    n_inst: np.ndarray
    #: Row order, object-major: each instance's position in its own
    #: object's set.
    inst_idx: np.ndarray
    n_ents: np.ndarray
    ent_min: np.ndarray
    ent_max: np.ndarray


class _Topology:
    """One topology version's static arrays, and the batched resolution
    of objects against them (see the module docstring)."""

    def __init__(self, columns: ObjectColumns) -> None:
        space, skeleton = columns.space, columns.skeleton
        self.version = space.topology_version
        # The doors graph numbers the layout's doors and partitions.
        numbering = columns.doors_graph.ensure_fresh()
        self.layout = layout = DoorLayout(space, numbering)
        self.fh = fh = space.floor_height

        # -- the partition table, in partition_id order (the order
        # ``UncertainObject.pieces`` lets overlapping footprints claim
        # instances in); one empty rect past the end pads candidate
        # lists -------------------------------------------------------
        self.part_ids = pids = sorted(space.partitions)
        self.part_row = part_row = {pid: i for i, pid in enumerate(pids)}
        parts = [space.partitions[pid] for pid in pids]
        rects = np.array(
            [
                (p.bounds.minx, p.bounds.miny, p.bounds.maxx, p.bounds.maxy)
                for p in parts
            ]
            + [(np.inf, np.inf, -np.inf, -np.inf)],
            dtype=np.float64,
        )
        self.p_minx, self.p_miny, self.p_maxx, self.p_maxy = (
            np.ascontiguousarray(rects.T)
        )
        self.p_lo = np.array([p.floor for p in parts], dtype=np.intp)
        self.p_hi = np.array([p.upper_floor for p in parts], dtype=np.intp)
        self.p_is_rect = np.array(
            [isinstance(p.footprint, Rect) for p in parts], dtype=bool
        )
        self.p_layout = np.array(
            [layout.part_row[pid] for pid in pids], dtype=np.intp
        )
        # Partition rows per floor, floor ``pf_base + f`` at ``pf_part[
        # pf_start[f] : pf_start[f + 1]]``: a staircase under every floor
        # it spans, each floor's rows ascending — the order ``pieces``
        # lets overlapping footprints claim instances in.
        self.pf_base = base = int(self.p_lo.min(initial=0))
        span = self.p_hi - self.p_lo + 1
        floor_of, _ = span_index(self.p_lo - base, span)
        part_of = np.repeat(np.arange(len(pids), dtype=np.intp), span)
        order = np.argsort(floor_of, kind="stable")
        self.pf_part = part_of[order]
        self.pf_count = np.bincount(floor_of)
        self.pf_start = offsets_of(self.pf_count)

        # Units grouped by partition row, so a partition's units are one
        # span and an object's resolved rows come out ascending.
        units = sorted(
            columns.units.values(), key=lambda u: part_row[u.partition_id]
        )

        # -- staircase entrances, grouped per floor -------------------
        skeleton.ensure_fresh()
        floors = sorted(
            {u.floor for u in units} | set(skeleton.by_floor)
        )
        self.floor_row = {floor: i for i, floor in enumerate(floors)}
        self.floors = np.array(floors, dtype=np.intp)
        n_entrances = skeleton.num_entrances
        width = max(
            (len(es) for es in skeleton.by_floor.values()), default=0
        )
        width = max(width, 1)
        #: ``floor_ent[f]`` — entrance indices on floor row ``f``,
        #: padded with the sentinel ``n_entrances`` (reach ``+inf``).
        self.floor_ent = np.full(
            (len(floors), width), n_entrances, dtype=np.intp
        )
        self.floor_ent_xy = np.zeros((len(floors), width, 2))
        self.floor_has_ent = np.zeros(len(floors), dtype=bool)
        for floor, entrances in skeleton.by_floor.items():
            f = self.floor_row[floor]
            k = len(entrances)
            self.floor_has_ent[f] = k > 0
            self.floor_ent[f, :k] = [e.index for e in entrances]
            self.floor_ent_xy[f, :k] = [
                (e.midpoint.x, e.midpoint.y) for e in entrances
            ]

        # -- the indR-tree's leaf level -------------------------------
        self.unit_ids = [u.unit_id for u in units]
        self.unit_row = {uid: i for i, uid in enumerate(self.unit_ids)}
        self.n_units = n = len(units)
        rects = np.array(
            [
                (u.rect.minx, u.rect.miny, u.rect.maxx, u.rect.maxy)
                for u in units
            ],
            dtype=np.float64,
        ).reshape(n, 4)
        self.u_minx, self.u_miny, self.u_maxx, self.u_maxy = (
            np.ascontiguousarray(rects.T)
        )
        self.u_floor = np.array(
            [self.floor_row[u.floor] for u in units], dtype=np.intp
        )
        self.u_z = np.array(
            [u.floor * fh for u in units], dtype=np.float64
        )
        self.u_part = np.array(
            [part_row[u.partition_id] for u in units], dtype=np.intp
        )
        self.p_unit_count = np.bincount(self.u_part, minlength=len(pids))
        self.p_unit_start = offsets_of(self.p_unit_count)[:-1]

        # -- the same units grouped per floor (a permutation: the rows
        # stay in partition order, since a staircase's units span
        # floors and a partition's units must stay one span) ---------
        self.f_units = np.argsort(self.u_floor, kind="stable")
        self.f_unit_start = offsets_of(
            np.bincount(self.u_floor, minlength=len(floors))
        )
        # Rect-MINDIST of each unit to each entrance on its floor (the
        # ``leg`` of Eq. 10; same floor, so no vertical term), one flat
        # block per floor with entrances, entrance-major: block ``f``
        # viewed as ``(k_f, n_f)`` has one row of floor ``f``'s units
        # per entrance, so a search folds the entrances a row at a
        # time.  ``ent_floors`` lists ``(floor row, k_f, block start)``.
        blocks = []
        self.ent_floors: list[tuple[int, int, int]] = []
        at = 0
        for f in np.flatnonzero(self.floor_has_ent).tolist():
            a, b = self.f_unit_start[f], self.f_unit_start[f + 1]
            rows = self.f_units[a:b]
            k = int((self.floor_ent[f] < n_entrances).sum())
            ex = self.floor_ent_xy[f, :k, :1]
            ey = self.floor_ent_xy[f, :k, 1:]
            dx = np.maximum(
                np.maximum(self.u_minx[rows] - ex, 0.0), ex - self.u_maxx[rows]
            )
            dy = np.maximum(
                np.maximum(self.u_miny[rows] - ey, 0.0), ey - self.u_maxy[rows]
            )
            blocks.append(np.sqrt(dx * dx + dy * dy).ravel())
            self.ent_floors.append((f, k, at))
            at += blocks[-1].size
        self.f_legs = np.concatenate(blocks) if blocks else np.zeros(0)

    # -- batched resolution (no per-object geometry calls) ------------

    def _frame(self, objects: list[UncertainObject]) -> _Frame:
        """Instance bounds by ``reduceat``; candidate partitions as a
        rect-overlap test over the partitions of each object's floor —
        as a set exactly ``grid.candidates_for_rect(obj.bounds(),
        obj.floor)``, each object's listed in ``pieces``' order."""
        sets = [obj.instances for obj in objects]
        starts = offsets_of(
            np.array([s.xy.shape[0] for s in sets], dtype=np.intp)
        )
        xy = np.concatenate([s.xy for s in sets])
        floors = np.array([s.floor for s in sets], dtype=np.intp)
        lo = np.minimum.reduceat(xy, starts[:-1], axis=0)
        hi = np.maximum.reduceat(xy, starts[:-1], axis=0)
        f = floors - self.pf_base
        on_map = (f >= 0) & (f < len(self.pf_count))
        f[~on_map] = 0
        count = np.where(on_map, self.pf_count[f], 0)
        at, _ = span_index(self.pf_start[f], count)
        c_part = self.pf_part[at]
        keep = (
            (np.repeat(lo[:, 0], count) <= self.p_maxx[c_part])
            & (np.repeat(hi[:, 0], count) >= self.p_minx[c_part])
            & (np.repeat(lo[:, 1], count) <= self.p_maxy[c_part])
            & (np.repeat(hi[:, 1], count) >= self.p_miny[c_part])
        )
        c_obj = np.repeat(np.arange(len(objects), dtype=np.intp), count)
        # ``floor_row.get(floor, -1)``, as one sorted lookup.
        row = np.searchsorted(self.floors, floors)
        known = row < len(self.floors)
        known[known] = self.floors[row[known]] == floors[known]
        floor_idx = np.where(known, row, -1)
        return _Frame(
            objects,
            starts,
            xy,
            floors,
            floor_idx,
            lo,
            hi,
            c_obj[keep],
            c_part[keep],
        )

    def _units(self, frame: _Frame) -> tuple[np.ndarray, np.ndarray]:
        """``(unit rows, rows per object)``: same-floor rect overlap
        over the candidate partitions' unit spans — exactly
        :func:`~repro.reference.tree.resolve_units`, since
        a unit lies inside its partition's bounds and floor span."""
        per = self.p_unit_count[frame.c_part]
        rows, _ = span_index(self.p_unit_start[frame.c_part], per)
        obj = np.repeat(frame.c_obj, per)
        lo, hi = frame.lo, frame.hi
        keep = (
            (self.u_floor[rows] == frame.floor_idx[obj])
            & (lo[:, 0][obj] <= self.u_maxx[rows])
            & (hi[:, 0][obj] >= self.u_minx[rows])
            & (lo[:, 1][obj] <= self.u_maxy[rows])
            & (hi[:, 1][obj] >= self.u_miny[rows])
        )
        n_units = np.bincount(obj[keep], minlength=len(frame.objects))
        return rows[keep], n_units

    def legs(
        self, objects: list[UncertainObject], floor_idx: np.ndarray
    ) -> np.ndarray:
        """Each object's min instance distance to each entrance on its
        floor (row ``floor_idx[j]`` of the entrance index; padding
        columns hold junk a ``+inf`` reach hides): column-wise
        ``instances.min_distance_to(midpoint)``, as one ``(instances x
        entrances)`` pass — callers bound it to :data:`_BUILD_CHUNK`
        objects.  In place, so a refill after the window of a stream
        holds two such matrices besides the gather, not five: the
        out-of-place form raised ``knn_stream``'s ``peak_rss_mb`` by
        0.7 MB."""
        sets = [obj.instances.xy for obj in objects]
        starts = offsets_of(
            np.array([len(xy) for xy in sets], dtype=np.intp)
        )
        xy = np.concatenate(sets)
        ent = self.floor_ent_xy[np.repeat(floor_idx, np.diff(starts))]
        d = xy[:, :1] - ent[:, :, 0]
        d *= d
        dy = xy[:, 1:] - ent[:, :, 1]
        dy *= dy
        d += dy
        np.sqrt(d, out=d)
        return np.minimum.reduceat(d, starts[:-1], axis=0)

    def stage(
        self,
        objects: list[UncertainObject],
        space: IndoorSpace,
        grid: PartitionGrid,
        strict: bool = True,
    ) -> _Staged | None:
        """Resolve ``objects`` against this topology: their index units
        and the table rows of each — subregion rows with their
        instance index, door entries — column for column the floats of
        :func:`~repro.reference.pack.pack_block`.
        Raises, having written nothing, when an object has a non-finite
        instance, overlaps no index unit or has a subregion without
        probability mass — except that a
        rebuild (``strict=False``) leaves an object on no unit out, and
        gets ``None`` when that is every object."""
        frame = self._frame(objects)
        # ``InstanceSet`` refuses a non-finite coordinate; one written
        # into its array afterwards still fails closed here (a NaN or
        # infinity reaches the bounds).
        lost = ~(np.isfinite(frame.lo) & np.isfinite(frame.hi)).all(axis=1)
        if lost.any():
            stray = objects[int(np.flatnonzero(lost)[0])]
            raise IndexError_(
                f"object {stray.object_id!r} has a non-finite instance"
            )
        unit_rows, n_units = self._units(frame)
        if not n_units.all():
            if strict:
                stray = objects[int(np.flatnonzero(n_units == 0)[0])]
                raise IndexError_(
                    f"object {stray.object_id!r} overlaps no index unit"
                )
            # Stranded by a partition deletion (rare: only such a
            # chunk is framed twice).
            objects = [o for o, n in zip(objects, n_units.tolist()) if n]
            if not objects:
                return None
            frame = self._frame(objects)
            unit_rows, n_units = self._units(frame)
        n_obj = len(objects)
        starts, xy = frame.starts, frame.xy
        owner = np.repeat(np.arange(n_obj, dtype=np.intp), np.diff(starts))

        # -- subregions: each instance goes to the first candidate, in
        # partition_id order, whose footprint contains it — tested as
        # one (instance, candidate of its object) pair each ----------
        c_obj, c_part = frame.c_obj, frame.c_part
        n_cand = np.bincount(c_obj, minlength=n_obj)
        width = max(int(n_cand.max(initial=0)), 1)
        per = n_cand[owner]
        pair, cuts = span_index(offsets_of(n_cand)[owner], per)
        cand = c_part[pair]
        x, y = np.repeat(xy[:, 0], per), np.repeat(xy[:, 1], per)
        hits = np.flatnonzero(
            (x >= self.p_minx[cand])
            & (x <= self.p_maxx[cand])
            & (y >= self.p_miny[cand])
            & (y <= self.p_maxy[cand])
        )
        # Each instance's first hit at or past its first pair; past its
        # last one (or the sentinel ``len(pair)``) means none.
        hit = np.append(hits, len(pair))[np.searchsorted(hits, cuts[:-1])]
        found = hit < cuts[1:]
        rank = np.where(found, hit - cuts[:-1], 0)
        part = np.append(cand, 0)[hit]
        # A wall-clipped straggler (the centre-partition attachment
        # rule) or a non-rectangular footprint: that object goes through
        # the scalar assignment, whose pieces are read back.
        scalar = n_cand == 0
        scalar[owner[~found]] = True
        scalar[c_obj[~self.p_is_rect[c_part]]] = True
        for j in np.flatnonzero(scalar).tolist():
            ids, pieces = objects[j].pieces(space, grid)
            span = slice(starts[j], starts[j + 1])
            rank[span] = 0 if pieces is None else pieces
            part[span] = np.array(
                [self.part_row[pid] for pid in ids], dtype=np.intp
            )[rank[span]]

        # Rows = runs of a stable sort on (object, piece): within a row
        # the instances keep their order, as ``xy[mask]`` does.
        key = owner * width + rank
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        row_len = np.diff(np.append(first, len(key)))
        row_obj = owner[order[first]]
        row_part = part[order[first]]
        n_rows = np.bincount(row_obj, minlength=n_obj)
        r_start = offsets_of(n_rows)
        # Row-ordered temporaries for the masses and the door extrema;
        # the table keeps only each instance's position in its set.
        sx, sy = xy[:, 0][order], xy[:, 1][order]
        ps = np.concatenate([obj.instances.probs for obj in objects])[order]
        inst_idx = (order - starts[:-1][owner[order]]).astype(np.int32)
        # One contiguous pairwise sum per row: the values and order of
        # ``probs[mask].sum()``, which ``reduceat`` would not give.
        add = np.add.reduce
        masses = [
            float(add(ps[a:b]))
            for a, b in zip(first.tolist(), (first + row_len).tolist())
        ]
        mass = np.array(masses)
        bad = np.flatnonzero(~((mass > 0.0) & (mass <= 1.0 + 1e-6)))
        if bad.size:
            check_mass(masses[bad[0]])  # raises InstanceSet's error

        # -- door extrema: one ragged (row, entry door) x instances-of-
        # row gather, reduced straight into the ragged entries --------
        lrow = self.p_layout[row_part]
        nd = self.layout.n_entry[lrow]
        pair_door, _ = span_index(self.layout.entry_start[lrow], nd)
        pair_row = np.repeat(np.arange(len(first)), nd)
        per = row_len[pair_row]
        inst, cuts = span_index(first[pair_row], per)
        d = sx[inst]
        d -= np.repeat(self.layout.mid_x[pair_door], per)
        d *= d
        dy = sy[inst]
        dy -= np.repeat(self.layout.mid_y[pair_door], per)
        dy *= dy
        d += dy
        dz = frame.floors[row_obj][pair_row] - self.layout.mid_z[pair_door]
        dz *= self.fh
        d += np.repeat(dz * dz, per)
        np.sqrt(d, out=d)
        ent_min = np.minimum.reduceat(d, cuts[:-1])
        ent_max = np.maximum.reduceat(d, cuts[:-1])
        return _Staged(
            objects,
            unit_rows,
            n_units,
            frame.floor_idx,
            frame.lo,
            frame.hi,
            n_rows,
            lrow,
            masses,
            row_len,
            np.diff(starts),
            inst_idx,
            np.add.reduceat(nd, r_start[:-1]),
            ent_min,
            ent_max,
        )


class _State:
    """One topology version's per-object columns (see the module
    docstring)."""

    def __init__(self, topo: _Topology) -> None:
        self.topo = topo
        self.version = topo.version
        self.slot_of: dict[str, int] = {}
        self.objects: list[UncertainObject | None] = []
        self.free_slots: list[int] = []
        self.floor_idx = np.zeros(0, dtype=np.intp)  # row of its floor
        #: Instance bounding box, ``(x, y)`` min and max per slot.
        self.box_lo = np.zeros((0, 2))
        self.box_hi = np.zeros((0, 2))
        self.row_start = np.zeros(0, dtype=np.intp)
        self.row_count = np.zeros(0, dtype=np.intp)
        self.ent_start = np.zeros(0, dtype=np.intp)
        self.ent_count = np.zeros(0, dtype=np.intp)
        self.legs = np.zeros((0, topo.floor_ent.shape[1]))
        #: Legs not recomputed since the object last moved.
        self.legs_stale = np.zeros(0, dtype=bool)
        self.units = np.full((0, 1), topo.n_units, dtype=np.intp)
        #: Bumped by every write; :meth:`buckets` is derived per value.
        self.writes = 0
        self._buckets: tuple[int, np.ndarray, np.ndarray] | None = None

        # -- subregion rows, and ragged beneath them one (emin, emax)
        # entry per entry door of the row's partition; the positions
        # of the object's instances in its own set, in row order, each
        # row ``sub_len`` of them; all bump-allocated up to ``*_top``,
        # ``*_live`` of it in use -------------------------------------
        self.row_top = self.row_live = 0
        self.sub_part = np.zeros(0, dtype=np.intp)
        self.sub_mass = np.zeros(0)
        self.sub_len = np.zeros(0, dtype=np.intp)
        self.inst_start = np.zeros(0, dtype=np.intp)
        self.inst_count = np.zeros(0, dtype=np.intp)
        self.inst_top = self.inst_live = 0
        self.inst_idx = np.zeros(0, dtype=np.int32)
        self.ent_top = self.ent_live = 0
        self.ent_min = np.zeros(0)
        self.ent_max = np.zeros(0)

    # -- writes -------------------------------------------------------

    def reserve_slots(self, slots: int) -> None:
        """Make room for ``slots`` objects."""
        self.floor_idx = _grown(self.floor_idx, slots, 0)
        self.box_lo = _grown(self.box_lo, slots, 0.0)
        self.box_hi = _grown(self.box_hi, slots, 0.0)
        self.row_start = _grown(self.row_start, slots, 0)
        self.row_count = _grown(self.row_count, slots, 0)
        self.inst_start = _grown(self.inst_start, slots, 0)
        self.inst_count = _grown(self.inst_count, slots, 0)
        self.ent_start = _grown(self.ent_start, slots, 0)
        self.ent_count = _grown(self.ent_count, slots, 0)
        self.legs = _grown(self.legs, slots, 0.0)
        self.legs_stale = _grown(self.legs_stale, slots, True)
        self.units = _grown(self.units, slots, self.topo.n_units)

    def reserve_spans(self, rows: int, ents: int, insts: int) -> None:
        """Make room for ``rows`` subregion rows, ``ents`` door entries
        and ``insts`` instances."""
        self.sub_part = _grown(self.sub_part, rows, 0)
        self.sub_mass = _grown(self.sub_mass, rows, 0.0)
        self.sub_len = _grown(self.sub_len, rows, 0)
        self.inst_idx = _grown(self.inst_idx, insts, 0)
        self.ent_min = _grown(self.ent_min, ents, 0.0)
        self.ent_max = _grown(self.ent_max, ents, 0.0)

    def _slot_for(self, object_id: str) -> int:
        slot = self.slot_of.get(object_id)
        if slot is not None:
            return slot
        if self.free_slots:
            slot = self.free_slots.pop()
        else:
            slot = len(self.objects)
            self.objects.append(None)
        self.slot_of[object_id] = slot
        return slot

    def commit(
        self, staged: _Staged, legs: np.ndarray | None = None
    ) -> None:
        """(Over)write the rows of a staged batch of live objects.  Their
        entrance legs are ``legs`` or, when none are given, marked stale
        for the next search that reads them to refill."""
        objects = staged.objects
        self.writes += 1
        slot_list = [self._slot_for(obj.object_id) for obj in objects]
        slots = np.array(slot_list, dtype=np.intp)
        n_rows, n_ents, n_units = staged.n_rows, staged.n_ents, staged.n_units
        self.reserve_slots(len(self.objects))
        for slot, obj in zip(slot_list, objects):
            self.objects[slot] = obj
        self.row_top, grew = _bump(
            self.row_start, self.row_count, slots, n_rows, self.row_top
        )
        self.row_live += grew
        self.ent_top, grew = _bump(
            self.ent_start, self.ent_count, slots, n_ents, self.ent_top
        )
        self.ent_live += grew
        self.inst_top, grew = _bump(
            self.inst_start,
            self.inst_count,
            slots,
            staged.n_inst,
            self.inst_top,
        )
        self.inst_live += grew
        # A slot whose count is unchanged kept its span: only the new
        # spans above the old tops need room.
        self.reserve_spans(self.row_top, self.ent_top, self.inst_top)
        self.floor_idx[slots] = staged.floor_idx
        self.box_lo[slots] = staged.lo
        self.box_hi[slots] = staged.hi
        if legs is None:
            self.legs_stale[slots] = True
        else:
            self.legs[slots] = legs
            self.legs_stale[slots] = False
        widest = int(n_units.max())
        if widest > self.units.shape[1]:
            wider = np.full(
                (self.units.shape[0], widest),
                self.topo.n_units,
                dtype=np.intp,
            )
            wider[:, : self.units.shape[1]] = self.units
            self.units = wider
        self.units[slots] = self.topo.n_units
        col, _ = span_index(np.zeros(len(slots), dtype=np.intp), n_units)
        self.units[np.repeat(slots, n_units), col] = staged.unit_rows
        dst, _ = span_index(self.row_start[slots], n_rows)
        self.sub_part[dst] = staged.sub_part
        self.sub_mass[dst] = staged.sub_mass
        self.sub_len[dst] = staged.sub_len
        dst, _ = span_index(self.ent_start[slots], n_ents)
        self.ent_min[dst] = staged.ent_min
        self.ent_max[dst] = staged.ent_max
        dst, _ = span_index(self.inst_start[slots], staged.n_inst)
        self.inst_idx[dst] = staged.inst_idx
        if self.row_top - self.row_live > _DEAD_SHARE * self.row_live:
            self.row_top = self._pack(
                self.row_start,
                self.row_count,
                ("sub_part", "sub_mass", "sub_len"),
            )
        if self.ent_top - self.ent_live > _DEAD_SHARE * self.ent_live:
            self.ent_top = self._pack(
                self.ent_start, self.ent_count, ("ent_min", "ent_max")
            )
        if self.inst_top - self.inst_live > _DEAD_SHARE * self.inst_live:
            self.inst_top = self._pack(
                self.inst_start, self.inst_count, ("inst_idx",)
            )

    def _pack(
        self, start: np.ndarray, count: np.ndarray, columns: tuple[str, ...]
    ) -> int:
        """Move every live span of a column group down into a dense
        prefix and return its end.  Spans move in the order they lie,
        :data:`_BUILD_CHUNK` slots a pass (one gather per column): a
        span only moves down, past spans already moved, and no pass
        holds more than its own spans — one gather of every live entry
        raised the resident-set peak by its size."""
        live = np.flatnonzero(count)
        live = live[np.argsort(start[live])]
        offsets = offsets_of(count[live])
        for i in range(0, live.size, _BUILD_CHUNK):
            mine = live[i : i + _BUILD_CHUNK]
            src, _ = span_index(start[mine], count[mine])
            dst = slice(offsets[i], offsets[i] + len(src))
            for name in columns:
                column = getattr(self, name)
                column[dst] = column[src]
        start[live] = offsets[:-1]
        return int(offsets[-1])

    def refill_legs(self, slots: np.ndarray) -> None:
        """Recompute the stale legs among ``slots``, at most
        :data:`_BUILD_CHUNK` objects per pass (a pass's temporaries are
        bounded like a build's).  Two readers may refill one slot at
        once; both write the same floats."""
        stale = slots[self.legs_stale[slots]]
        for i in range(0, stale.size, _BUILD_CHUNK):
            chunk = stale[i : i + _BUILD_CHUNK]
            self.legs[chunk] = self.topo.legs(
                [self.objects[s] for s in chunk.tolist()],
                self.floor_idx[chunk],
            )
            self.legs_stale[chunk] = False

    def drop(self, object_id: str) -> None:
        slot = self.slot_of.pop(object_id, None)
        if slot is None:
            return
        self.writes += 1
        # Its spans are dead; the next compaction reclaims them.
        self.row_live -= int(self.row_count[slot])
        self.ent_live -= int(self.ent_count[slot])
        self.inst_live -= int(self.inst_count[slot])
        self.row_count[slot] = self.ent_count[slot] = 0
        self.inst_count[slot] = 0
        # In no bucket: never a candidate.
        self.units[slot] = self.topo.n_units
        self.objects[slot] = None
        self.free_slots.append(slot)

    # -- reads --------------------------------------------------------

    def buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit -> objects, the inverse of :attr:`units`, as a CSR:
        ``slots[offsets[u] : offsets[u + 1]]`` are the slots bucketed in
        unit row ``u``, ascending.  Derived on the first read after a
        write — one stable sort of the live entries by unit — and kept
        until the next; two readers may both derive it, and each
        publishes the same arrays by one assignment."""
        cached = self._buckets
        if cached is not None and cached[0] == self.writes:
            return cached[1], cached[2]
        n_units = self.topo.n_units
        flat = self.units[: len(self.objects)].ravel()
        held = np.flatnonzero(flat < n_units)
        unit = flat[held].astype(np.int32)
        order = np.argsort(unit, kind="stable")
        slots = (held[order] // self.units.shape[1]).astype(np.int32)
        offsets = offsets_of(np.bincount(unit, minlength=n_units))
        self._buckets = (self.writes, offsets, slots)
        return offsets, slots


def _bump(
    start: np.ndarray,
    count: np.ndarray,
    slots: np.ndarray,
    n: np.ndarray,
    top: int,
) -> tuple[int, int]:
    """Give every slot of ``slots`` whose count grows to ``n`` a new
    span of that size, laid end to end from ``top``; one whose count
    shrinks keeps the head of its span (its tail is dead).  Returns the
    new top and the change in live entries."""
    old = count[slots]
    changed = np.flatnonzero(old != n)
    if not changed.size:
        return top, 0
    mine = slots[changed]
    size = n[changed]
    grew = int(size.sum() - old[changed].sum())
    count[mine] = size
    moved = size > old[changed]
    if moved.any():
        offsets = offsets_of(size[moved])
        start[mine[moved]] = top + offsets[:-1]
        top += int(offsets[-1])
    return top, grew


def _within(
    state: _State, slots: np.ndarray, q: Point, r: float, fh: float
) -> np.ndarray:
    """Whether each object's min instance distance to ``q`` (planar
    offset plus the floor gap, as :func:`point_distances`) is within
    ``r`` — decided from the stored instance box where the box can, and
    from the instances only for the objects whose box straddles ``r``.

    The box decides exactly what the instances would: per axis,
    ``fl(lo - qx) <= fl(x - qx) <= fl(hi - qx)`` for every instance
    ``x`` in ``[lo, hi]`` because rounding is monotone, and
    ``fl(qx - hi) == -fl(hi - qx)``; the squares of non-negative
    numbers, the sum taken in :func:`point_distances`' order
    ``(dx*dx + dy*dy) + dz*dz`` and ``sqrt`` are monotone too.  So
    ``box_min`` (per axis ``max(lo - q, 0, q - hi)``) is at most, and
    ``box_max`` (per axis ``max(|lo - q|, |hi - q|)``) at least, every
    instance's distance, float for float."""
    topo = state.topo
    dz = (topo.floors[state.floor_idx[slots]] - q.floor) * fh
    dz *= dz
    lo = state.box_lo[slots] - (q.x, q.y)
    hi = state.box_hi[slots] - (q.x, q.y)
    gap = np.maximum(np.maximum(lo, 0.0), -hi)
    gap *= gap
    np.abs(lo, out=lo)
    np.abs(hi, out=hi)
    span = np.maximum(lo, hi)
    span *= span
    hit = np.sqrt(span[:, 0] + span[:, 1] + dz) <= r
    open_ = np.flatnonzero(~hit & (np.sqrt(gap[:, 0] + gap[:, 1] + dz) <= r))
    for i in range(0, open_.size, _SEARCH_CHUNK):
        # Min instance distance to q, a bounded number of objects at a
        # time (an unbounded radius can leave the whole venue open).
        part = open_[i : i + _SEARCH_CHUNK]
        mine = slots[part]
        d, starts = point_distances(
            [state.objects[s].instances.xy for s in mine.tolist()],
            topo.floors[state.floor_idx[mine]],
            q,
            fh,
        )
        hit[part] = np.minimum.reduceat(d, starts) <= r
    return hit


def _passing_units(
    topo: _Topology,
    q: Point,
    r: float,
    reach: np.ndarray | None,
    q_floor: int,
) -> np.ndarray:
    """Algorithm 4's leaf criterion, one flag per unit row: the
    Euclidean MINDIST to the flattened rect on q's floor — on every
    floor when ``reach`` is ``None`` — and the skeleton bound on
    the others, floor by floor."""
    # Euclidean MINDIST to the flattened rect: every unit without
    # the skeleton, else the units of q's floor.
    start = topo.f_unit_start
    rows = (
        slice(None)
        if reach is None
        else topo.f_units[start[q_floor] : start[q_floor + 1]]
    )
    qx, qy, qz = q.x, q.y, q.z(topo.fh)
    dx = np.maximum(
        np.maximum(topo.u_minx[rows] - qx, 0.0), qx - topo.u_maxx[rows]
    )
    dy = np.maximum(
        np.maximum(topo.u_miny[rows] - qy, 0.0), qy - topo.u_maxy[rows]
    )
    z = topo.u_z[rows]
    dz = np.maximum(np.maximum(z - qz, 0.0), qz - z)
    euclid = np.sqrt(dx * dx + dy * dy + dz * dz) <= r
    if reach is None:
        return euclid
    passing = np.zeros(topo.n_units, dtype=bool)
    passing[rows] = euclid
    # Every other floor with entrances: min over its entrances k of
    # reach[f, k] + leg[k], folded one entrance row at a time.  A
    # floor none of whose entrances q reaches within r is skipped
    # whole: ``reach + leg >= reach`` for ``leg >= 0``.  A floor
    # without entrances passes nothing (the skeleton reaches none).
    for f, k, at in topo.ent_floors:
        reach_f = reach[f, :k]
        if f == q_floor or reach_f.min() > r:
            continue
        n = start[f + 1] - start[f]
        legs = topo.f_legs[at : at + k * n].reshape(k, n)
        via = legs[0] + reach_f[0]
        leg = np.empty(n)
        for legs_k, reach_k in zip(legs[1:], reach_f[1:].tolist()):
            np.add(legs_k, reach_k, out=leg)
            np.minimum(via, leg, out=via)
        passing[topo.f_units[start[f] : start[f + 1]]] = via <= r
    return passing


class ObjectColumns:
    """The index's columnar object table (see the module docstring)."""

    def __init__(
        self,
        space: IndoorSpace,
        population: ObjectPopulation,
        units: dict[str, IndexUnit],
        skeleton: SkeletonTier,
        doors_graph: DoorsGraph,
    ) -> None:
        # The layers the table mirrors — not the index that owns both,
        # which would make every discarded index wait for the cycle
        # collector.
        self.space = space
        self.population = population
        self.units = units
        self.skeleton = skeleton
        self.doors_graph = doors_graph
        self._topo: _Topology | None = None
        self._state: _State | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every column; the next read rebuilds."""
        self._topo = self._state = None

    def _topology(self) -> _Topology:
        """The current topology's static arrays (cheap: no object is
        read), built on demand — by the writer, or under the lock on
        the way to a rebuild."""
        topo = self._topo
        if topo is None or topo.version != self.space.topology_version:
            topo = self._topo = _Topology(self)
        return topo

    def _current(self) -> _State | None:
        """The state, when it is built for the current topology."""
        state = self._state
        if (
            state is not None
            and state.version == self.space.topology_version
        ):
            return state
        return None

    def _fresh(self) -> _State:
        state = self._current()
        if state is None:
            with self._lock:
                state = self._current()
                if state is None:
                    state = self._state = self._build()
        return state

    def build(self) -> None:
        """Build the table now, strictly: the index's own build, where
        an object the index cannot hold raises (a rebuild leaves an
        object on no unit out)."""
        with self._lock:
            self._state = self._build(strict=True)

    def _build(self, strict: bool = False) -> _State:
        topo = self._topology()
        state = _State(topo)
        # Population order = slot order, so a restored engine and a
        # freshly rebuilt one number their objects alike.
        live = list(self.population)
        space, grid = self.space, self.population.grid
        state.reserve_slots(len(live))
        state.reserve_spans(len(live), 0, sum(map(len, live)))
        for i in range(0, len(live), _BUILD_CHUNK):
            staged = topo.stage(
                live[i : i + _BUILD_CHUNK], space, grid, strict
            )
            if staged is not None:
                # A build fills every leg: the first searches after it
                # refill nothing.
                state.commit(
                    staged, topo.legs(staged.objects, staged.floor_idx)
                )
        return state

    def layout(self) -> DoorLayout:
        """The door layout every row and search of the current
        topology is expressed in."""
        return self._fresh().topo.layout

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (0 until first use)."""
        return sum(
            v.nbytes
            for part in (self._topo, self._state)
            if part is not None
            for v in vars(part).values()
            if isinstance(v, np.ndarray)
        )

    # ------------------------------------------------------------------
    # writes (the index's object mutation paths)
    # ------------------------------------------------------------------

    def stage(self, objects: list[UncertainObject]) -> _Staged:
        """Resolve a non-empty batch of objects about to be inserted or
        moved — units, subregion rows, instance index, door entries —
        touching nothing.  Raises where the index could not hold one of
        them."""
        return self._topology().stage(
            objects, self.space, self.population.grid
        )

    def commit(self, staged: _Staged) -> None:
        """Write a staged batch, now live objects of the population.  A
        table not built for the current topology is left alone — its
        rebuild reads the objects from the population."""
        state = self._current()
        if state is not None:
            state.commit(staged)

    def drop(self, object_id: str) -> None:
        """Forget a deleted object."""
        state = self._current()
        if state is not None:
            state.drop(object_id)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def units_of(self, object_id: str) -> set[str]:
        """The o-table's object -> units lookup: the index units the
        object's region overlaps; empty for one the table does not
        hold."""
        state = self._fresh()
        slot = state.slot_of.get(object_id)
        if slot is None:
            return set()
        topo = state.topo
        return {
            topo.unit_ids[row]
            for row in state.units[slot].tolist()
            if row < topo.n_units
        }

    def objects_in(self, unit_id: str) -> set[str]:
        """The o-table's unit -> objects lookup: one leaf's bucket."""
        self._fresh()
        return self.held_in([unit_id])

    def held_in(self, unit_ids: list[str]) -> set[str]:
        """Ids of the objects the table as it stands — current or built
        for an older topology — buckets in any of ``unit_ids``; empty
        when none is built.  Never builds: a structural change reads
        the table it is about to drop."""
        state = self._state
        if state is None:
            return set()
        offsets, slots = state.buckets()
        rows = [state.topo.unit_row.get(u) for u in unit_ids]
        return {
            state.objects[s].object_id
            for row in rows
            if row is not None
            for s in slots[offsets[row] : offsets[row + 1]].tolist()
        }

    def partition_objects(self, partition_id: str) -> list[UncertainObject]:
        """The objects bucketed in any unit of one partition, ascending
        by slot: one slice of the bucket CSR, since a partition's units
        are one run of unit rows."""
        state = self._fresh()
        topo = state.topo
        p = topo.part_row.get(partition_id)
        if p is None:
            return []
        offsets, slots = state.buckets()
        first = topo.p_unit_start[p]
        mine = slots[offsets[first] : offsets[first + topo.p_unit_count[p]]]
        return [state.objects[s] for s in sorted(set(mine.tolist()))]

    def _slots(
        self, objects: list[UncertainObject]
    ) -> tuple[_State, np.ndarray]:
        """The state and the slots of ``objects``, which must be live
        objects of the index."""
        state = self._fresh()
        slots = np.empty(len(objects), dtype=np.intp)
        for j, obj in enumerate(objects):
            slot = state.slot_of.get(obj.object_id, -1)
            if slot < 0 or state.objects[slot] is not obj:
                raise IndexError_(
                    f"object {obj.object_id!r} is not a live object of "
                    "this index"
                )
            slots[j] = slot
        return state, slots

    @staticmethod
    def _rows(
        state: _State, slots: np.ndarray, objects: list[UncertainObject]
    ) -> tuple[SubregionRows, np.ndarray]:
        """The subregion rows of ``slots`` (holding ``objects``),
        gathered (copied) with their instance index, and each slot's
        row span.  No coordinate is copied: the rows read the objects'
        own instance sets."""
        count = state.row_count[slots]
        rows, offsets = span_index(state.row_start[slots], count)
        inst, _ = span_index(state.inst_start[slots], state.inst_count[slots])
        floor = state.topo.floors[state.floor_idx[slots]].astype(np.float64)
        return (
            SubregionRows(
                state.sub_part[rows],
                state.sub_mass[rows].tolist(),
                floor.repeat(count),
                offsets_of(state.sub_len[rows]),
                [obj.instances for obj in objects],
                offsets_of(state.inst_count[slots]),
                state.inst_idx[inst],
            ),
            offsets,
        )

    def rows(
        self, objects: list[UncertainObject]
    ) -> tuple[SubregionRows, np.ndarray]:
        """``objects`` — live objects of the index — as exact
        refinement's operand: their subregion rows and each object's
        row span, the rows :func:`~repro.reference.pack.subregion_rows`
        would compute, gathered instead."""
        state, slots = self._slots(objects)
        return self._rows(state, slots, objects)

    def block(self, objects: list[UncertainObject]) -> ObjectBlock:
        """``objects`` — live objects of the index — as the bounds
        kernel's object-side operand: the rows
        :func:`~repro.reference.pack.pack_block` would compute, gathered
        instead."""
        state, slots = self._slots(objects)
        layout = state.topo.layout
        rows, offsets = self._rows(state, slots, objects)
        ents, _ = span_index(state.ent_start[slots], state.ent_count[slots])
        part = rows.part
        row_n = layout.n_entry[part]
        doors, _ = span_index(layout.entry_start[part], row_n)
        return ObjectBlock(
            list(objects),
            layout,
            layout.flat_idx[doors],
            state.ent_min[ents],
            state.ent_max[ents],
            row_n,
            rows,
            offsets,
        )

    def search(
        self, q: Point, r: float, use_skeleton: bool
    ) -> tuple[list[UncertainObject], set[str], int]:
        """Algorithm 4 over the columns: candidate objects (ascending
        slot order), candidate partitions, and the number of units
        tested (every unit: a skipped floor's units count as tested).

        Units pass on q's floor by Euclidean MINDIST, on every other
        floor by the skeleton bound, and a floor whose nearest
        entrance is beyond ``r`` is not folded at all.  An object on
        another floor is tested by its entrance legs; one on q's floor
        (or any, without the skeleton) by its stored instance box,
        and by its instances only when the box straddles ``r``."""
        state = self._fresh()
        topo = state.topo
        fh = self.space.floor_height
        q_floor = topo.floor_row.get(q.floor, -1)

        # Reach of every entrance from q through the skeleton:
        # reach[e] = min_sq(|q, sq|_E + M_s2s[sq, e]); None when the
        # Euclidean bound applies everywhere (ablation, or no staircase
        # on q's floor).  A path leaves q's floor by an entrance on it
        # or, from inside a staircase, by any entrance of that
        # staircase straight away: those are first hops too.
        reach = None
        if use_skeleton and q_floor >= 0 and topo.floor_has_ent[q_floor]:
            skeleton = self.skeleton
            sqs = skeleton.entrances_on_floor(q.floor)
            inside = {
                p.partition_id
                for p in self.population.grid.candidates_for_point(q)
                if p.kind is PartitionKind.STAIRCASE
            }
            if inside:
                sqs = sqs + [
                    e
                    for e in skeleton.entrances
                    if e.staircase_id in inside and e.floor != q.floor
                ]
            dq = np.array([q.distance(s.midpoint, fh) for s in sqs])
            via = dq[:, None] + skeleton.ms2s[[s.index for s in sqs], :]
            reach = np.append(via.min(axis=0), np.inf)[topo.floor_ent]

        passing = _passing_units(topo, q, r, reach, q_floor)
        partitions = {
            topo.part_ids[row]
            for row in set(topo.u_part[passing].tolist())
        }

        # Objects bucketed in a passing unit, then the instance bound.
        n_slots = len(state.objects)
        in_bucket = np.append(passing, False)[state.units[:n_slots]]
        slots = np.nonzero(in_bucket.any(axis=1))[0]
        if slots.size == 0:
            return [], partitions, topo.n_units
        floor = state.floor_idx[slots]
        if reach is None:
            hit = _within(state, slots, q, r, fh)
        else:
            hit = np.empty(slots.size, dtype=bool)
            direct = (floor == q_floor) | ~topo.floor_has_ent[floor]
            far = ~direct
            # Legs are computed on first read after a move, not by the
            # write (most moved objects move again before any search).
            far_slots = slots[far]
            state.refill_legs(far_slots)
            hit[far] = (
                reach[floor[far]] + state.legs[far_slots]
            ).min(axis=1) <= r
            hit[direct] = _within(state, slots[direct], q, r, fh)
        found = slots[hit].tolist()
        return [state.objects[s] for s in found], partitions, topo.n_units

    # ------------------------------------------------------------------
    # consistency (tests + debugging)
    # ------------------------------------------------------------------

    def validate(self) -> list[str]:
        """The table (built first if need be) against structures it
        does not share: unit rows that differ from an indR-tree search
        (the reference tree, packed over :attr:`units`), a bucket CSR
        that is not the inverse of the rows, a population object
        missing although the tree finds units for it, rows that differ
        from a fresh
        :func:`pack_block` of a copy of the object (its subregions the
        scalar split's: partition order, each row's instances in
        order, each mass ``checked_mass(probs[mask])``), an instance
        index span that is not a permutation of the object's instance
        positions, an instance box that is not the instances' min /
        max, entrance legs (refilled first where stale) that differ
        from the scalar distances, and overlapping spans."""
        from repro.reference.pack import pack_block
        from repro.reference.tree import IndRTree

        state = self._fresh()
        topo = state.topo
        space, grid = self.space, self.population.grid
        fh = space.floor_height
        indr = IndRTree(self.units.values(), fh)
        unit_ids, n_units = topo.unit_ids, topo.n_units
        problems = [
            f"columns hold a row for unknown object {object_id}"
            for object_id in state.slot_of
            if object_id not in self.population
        ]
        live = np.fromiter(state.slot_of.values(), dtype=np.intp)
        rows = state.units[live]
        in_unit = rows < n_units
        inverse = sorted(
            zip(
                rows[in_unit].tolist(),
                np.repeat(live, in_unit.sum(axis=1)).tolist(),
            )
        )
        offsets, slots = state.buckets()
        csr = zip(
            np.repeat(np.arange(n_units), np.diff(offsets)).tolist(),
            slots.tolist(),
        )
        if list(csr) != inverse:
            problems.append("bucket CSR is not the inverse of the unit rows")
        for what, start, count, top in (
            ("row", state.row_start, state.row_count, state.row_top),
            ("entry", state.ent_start, state.ent_count, state.ent_top),
            ("instance", state.inst_start, state.inst_count, state.inst_top),
        ):
            held = live[count[live] > 0]
            order = np.argsort(start[held])
            lo = start[held][order]
            hi = lo + count[held][order]
            if (lo[1:] < hi[:-1]).any() or (hi > top).any():
                problems.append(f"live {what} spans overlap or pass the top")
        state.refill_legs(live)
        for obj in self.population:
            oid = obj.object_id
            tree = {
                unit.unit_id
                for unit in indr.units_overlapping_rect(
                    obj.bounds(), obj.floor
                )
            }
            slot = state.slot_of.get(oid)
            if slot is None:
                if tree:  # else stranded: on no unit, in no bucket
                    problems.append(f"object {oid} missing from the table")
                continue
            if state.objects[slot] is not obj:
                problems.append(f"object {oid} has no current column row")
                continue
            # A copy no index owns: its subregions come from the scalar
            # assignment, not from the batched write under test.
            twin = UncertainObject(oid, obj.region, obj.instances)
            fresh = pack_block([twin], space, grid, topo.layout)
            a = state.row_start[slot]
            b = a + state.row_count[slot]
            ea = state.ent_start[slot]
            eb = ea + state.ent_count[slot]
            ia = state.inst_start[slot]
            index = state.inst_idx[ia : ia + state.inst_count[slot]]
            permuted = np.array_equal(np.sort(index), np.arange(len(obj)))
            mine, _ = self._rows(state, np.array([slot]), [obj])
            every = np.arange(len(fresh.rows.part))
            entrances = self.skeleton.entrances_on_floor(obj.floor)
            checks = {
                "subregion rows": np.array_equal(
                    state.sub_part[a:b], fresh.sub_part
                )
                and state.sub_mass[a:b].tolist() == fresh.sub_mass,
                "instance index": permuted,
                # Gathered through the index (only a permutation can be).
                "instance rows": permuted
                and np.array_equal(
                    offsets_of(state.sub_len[a:b]), fresh.rows.start
                )
                and all(
                    np.array_equal(got, want)
                    for got, want in zip(
                        mine.instances(every), fresh.rows.instances(every)
                    )
                ),
                "door entries": np.array_equal(
                    state.ent_min[ea:eb], fresh.ent_min
                )
                and np.array_equal(state.ent_max[ea:eb], fresh.ent_max),
                "floor": state.floor_idx[slot] == topo.floor_row[obj.floor],
                "instance box": np.array_equal(
                    state.box_lo[slot], obj.instances.xy.min(axis=0)
                )
                and np.array_equal(
                    state.box_hi[slot], obj.instances.xy.max(axis=0)
                ),
                "entrance legs": state.legs[slot, : len(entrances)].tolist()
                == [
                    obj.instances.min_distance_to(e.midpoint, fh)
                    for e in entrances
                ],
                "unit rows": {
                    unit_ids[row]
                    for row in state.units[slot].tolist()
                    if row < n_units
                }
                == tree,
            }
            problems.extend(
                f"object {oid}: columns disagree on {what}"
                for what, ok in checks.items()
                if not ok
            )
        return problems
