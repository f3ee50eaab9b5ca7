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
* :meth:`ObjectColumns.block` — the candidate set as an
  :class:`~repro.distances.batch.ObjectBlock`, by gather; the batch a
  write just staged (the monitor's moved batch) from that staging.

**What it owns.**  Per topology version (:class:`_Topology`; no
object is read to build it): the
:class:`~repro.distances.batch.DoorLayout`, the partition table in
``partition_id`` order (bounds, floor span, layout row, its units as
one span) and the same partition rows listed per floor (a staircase
under every floor it spans, with its units on that floor as one span),
a per-floor lookup of those lists, the unit arrays (rect, floor,
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
only for those it straddles, a bounded number at a time.  The instance
x door distances a write computes are kept by the block of that one
batch (below) and never queued: no table column and no gathered block
holds one.

**The write.**  One routine, :meth:`_Topology.stage`, resolves a list
of objects in a fixed number of array operations and is the only body
behind the index's ``update_objects`` / ``move_object`` /
``insert_object`` and the table's own rebuild (in chunks of
:data:`_BUILD_CHUNK`), the small per-object lookups in Python:
instance bounds by one
``reduceat``; candidate partitions as a rect-overlap test over the
partitions of each object's floor; subregions as one containment test
per (instance, candidate of its object, padded to the widest) pair
whose first hit per instance is the scalar first-wins rule; rows as the
(object, subregion) keys present, and one stable sort of the instances
by key, which gives the order the table indexes them in; door extrema
as :func:`~repro.distances.batch.door_distances` — each entry door of
a row against the row's instances — reduced per door.  Per row it sums
the mass (one contiguous sum each: the floats of
``probs[mask].sum()``); per object only the slot lookup runs — no
:class:`~repro.reference.subregions.Subregion` is built, no piece
vector is kept.  The index units (same-floor rect overlap over the
candidates' unit spans) are the write's: the stage only makes sure that
every object overlaps one — Algorithm 3 cuts a rectangular partition,
on every floor it spans, into units that tile it, so a box overlapping
its bounds overlaps a unit, and only an object with no such candidate
is tested unit by unit.  :meth:`_State.write` resolves the units,
allocates every changed span and writes the rows, entries, units and
instance index.  Nothing is written until the whole batch has
resolved, so a batch the index cannot hold leaves it untouched.  Nor is
a batch written when it is committed:
:meth:`ObjectColumns.commit` claims its slots and queues its staged
rows, and the queue is written as one batch — the same
:meth:`_State.write` over the batches' columns laid end to end, every
column being object-major — by the first reader of the table, a drop,
:meth:`ObjectColumns.held_in`, a batch that repeats a queued object (so
the queue never holds one object twice) or one that would take it past
:data:`_BUILD_CHUNK` objects (a batch above that is written at once).
A stream batch is read back only as its own block, and
:meth:`ObjectColumns.block` of exactly the batch the last commit
staged is built from that staging — field for field the gathered
block — so a stream window writes its batches a few at a time and
gathers nothing back.  That block alone carries what the stage
computed on the way (:class:`~repro.distances.batch.RowGeometry`: the
rows' instances in row order and their door distances), for exact
refinement and the own-partition direct path to read instead of
gathering and computing them again; the commit takes it off the
staging before the rows are queued.  A rebuild reads the population
and discards the queue.  A write does not compute what no reader of the
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
state or the complete new one.  A reader that finds queued writes
writes them under the same lock and checks the queue again there; the
queue is emptied only once the write has landed, so a second reader
arriving meanwhile waits for the lock instead of reading a
half-written table.  A search writes too — it refills stale
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
staircase it stands in; on that staircase's other floors the
Euclidean bound counts too, a path staying inside the shaft) is
hoisted out of the per-entity loop —
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

import itertools
import operator
import threading
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from repro.distances.batch import (
    DoorLayout,
    ObjectBlock,
    RowGeometry,
    SubregionRows,
    door_distances,
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
    n_inst: np.ndarray  #: instances per object
    starts: np.ndarray  #: ``(B + 1,)`` instance offsets per object
    floor_idx: np.ndarray  #: row of each object's floor, -1 if unknown
    xy: np.ndarray  #: ``(n, 2)`` instances
    xy4: np.ndarray  #: ``(4, n)``: rows ``x, y, -x, -y``
    #: ``(4, B)``: rows ``min x, min y, -max x, -max y`` of each
    #: object's instances
    box: np.ndarray
    c_obj: np.ndarray  #: candidate (object, partition) pairs, sorted
    c_pf: np.ndarray  #: each candidate's position in ``pf_part``
    c_part: np.ndarray


@dataclass(slots=True)
class _Staged:
    """Everything the table stores for a batch, resolved against one
    topology with nothing written yet (see :meth:`_Topology.stage`) —
    and, until the batch is committed, what only its own block reads
    (``carry``)."""

    objects: list[UncertainObject]
    #: Candidate (object, partition) pairs, sorted, each partition named
    #: by its position in ``_Topology.pf_part``: what the write's unit
    #: test (``_Topology.unit_rows``) reads.
    c_obj: np.ndarray
    c_pf: np.ndarray
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
    carry: _Carry | None = None


@dataclass(slots=True)
class _Carry:
    """What :meth:`_Topology.stage` computed on the way that only the
    batch's own block reads (:meth:`ObjectColumns.block`): the rows'
    instances and door distances, each row's floor and instance span,
    its partition's entry-door count, and each object's row span."""

    geometry: RowGeometry
    row_floor: np.ndarray
    row_start: np.ndarray  #: ``(rows + 1,)``
    set_start: np.ndarray  #: ``(B + 1,)``
    row_n: np.ndarray
    obj_rows: np.ndarray  #: ``(B + 1,)``



def _joined(batches: list[_Staged]) -> _Staged:
    """Staged batches of distinct objects as one, in order: every
    column is object-major, so each is the batches' laid end to end."""
    if len(batches) == 1:
        return batches[0]
    joined = _Staged(
        *(
            [v for b in batches for v in getattr(b, name)]
            if name in ("objects", "sub_mass")
            else np.concatenate([getattr(b, name) for b in batches])
            # A queued batch carries nothing for its block.
            for name in (f.name for f in fields(_Staged) if f.name != "carry")
        )
    )
    # A batch's candidate pairs name its objects from 0.
    at = itertools.accumulate((len(b.objects) for b in batches), initial=0)
    joined.c_obj = np.concatenate([b.c_obj + a for b, a in zip(batches, at)])
    return joined


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
            ],
            dtype=np.float64,
        ).reshape(len(parts), 4)
        # Rect tests compare whole columns at once: negation is exact,
        # so a box ``(lo, -hi)`` overlaps a rect where it is ``<=`` the
        # rect's ``(max, -min)`` on every row of these tables, and an
        # instance ``(x, y, -x, -y)`` lies in one where it is ``>=`` its
        # ``(min, -max)``.  One column past the end of ``p_in``,
        # containing nothing, pads the candidate lists.
        lo, hi = rects[:, :2].T, rects[:, 2:].T
        self.p_in = np.full((4, len(parts) + 1), np.inf)
        self.p_in[:, :-1] = np.concatenate((lo, -hi))
        p_lo = np.array([p.floor for p in parts], dtype=np.intp)
        p_hi = np.array([p.upper_floor for p in parts], dtype=np.intp)
        self.p_is_rect = np.array(
            [isinstance(p.footprint, Rect) for p in parts], dtype=bool
        )
        self.all_rect = bool(self.p_is_rect.all())
        self.p_layout = np.array(
            [layout.part_row[pid] for pid in pids], dtype=np.intp
        )
        # Partition rows per floor: a staircase under every floor it
        # spans, floor by floor, each floor's rows ascending — the order
        # ``pieces`` lets overlapping footprints claim instances in —
        # and each one's rect test (see ``p_in``).
        span = p_hi - p_lo + 1
        floor_of, _ = span_index(p_lo, span)
        part_of = np.repeat(np.arange(len(pids), dtype=np.intp), span)
        order = np.argsort(floor_of, kind="stable")
        self.pf_part = pf = part_of[order]
        self.pf_box = np.concatenate((hi[:, pf], -lo[:, pf]))
        floor_of = floor_of[order]
        pf_floors = np.unique(floor_of).tolist()
        pf_start = np.searchsorted(floor_of, pf_floors).tolist()
        pf_end = np.searchsorted(floor_of, pf_floors, side="right").tolist()

        # Units grouped by partition row, so a partition's units are one
        # span and an object's resolved rows come out ascending, and
        # within it by floor, so its units on one floor are one span:
        # ``pf_unit_start[k]``, ``pf_unit_count[k]`` for ``pf_part[k]``
        # on its floor.
        units = sorted(
            columns.units.values(),
            key=lambda u: (part_row[u.partition_id], u.floor),
        )
        first: dict[tuple[int, int], int] = {}
        for i, u in enumerate(units):
            first.setdefault((part_row[u.partition_id], u.floor), i)
        counts = Counter((part_row[u.partition_id], u.floor) for u in units)
        pf_keys = list(zip(pf.tolist(), floor_of.tolist()))
        self.pf_unit_start = np.array(
            [first.get(k, 0) for k in pf_keys], dtype=np.intp
        )
        self.pf_unit_count = np.array(
            [counts[k] for k in pf_keys], dtype=np.intp
        )

        # -- staircase entrances, grouped per floor -------------------
        skeleton.ensure_fresh()
        floors = sorted(
            {u.floor for u in units} | set(skeleton.by_floor)
        )
        self.floor_row = {floor: i for i, floor in enumerate(floors)}
        # Per floor, what an object on it reads (see :meth:`_frame`):
        # ``floor_key[floor]`` is its row of ``floor_info`` — the
        # floor's row and its number of partitions — and
        # of ``floor_at``, their positions in ``pf_part``.  The last
        # row is every other floor's: no row, no partition.
        spans = {floor: (0, 0) for floor in floors}
        spans.update(
            (floor, (a, b))
            for floor, a, b in zip(pf_floors, pf_start, pf_end)
        )
        self.floor_key = {floor: k for k, floor in enumerate(spans)}
        rows = [self.floor_row.get(floor, -1) for floor in spans]
        self.floor_info = np.array(
            [(row, b - a) for row, (a, b) in zip(rows, spans.values())]
            + [(-1, 0)],
            dtype=np.intp,
        )
        self.floor_at = [np.arange(a, b) for a, b in spans.values()]
        self.floor_at.append(np.zeros(0, dtype=np.intp))
        self.floors = np.array(floors, dtype=np.intp)
        self.floors_f = self.floors.astype(np.float64)
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
        # Rect overlap with a frame's box (see ``p_in``).
        self.u_box = np.array(
            [self.u_maxx, self.u_maxy, -self.u_minx, -self.u_miny]
        ).reshape(4, n)
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

        # -- staircase shafts: each one's entrances on every floor (a
        # CSR of entrance indices), its footprint and floor span, and
        # the unit rows whose rect overlaps its footprint's interior on
        # a floor it spans (its own units; a unit that only touches its
        # wall holds no point the shaft does not share with a
        # neighbour): an instance inside a shaft is reached from any of
        # its entrances, not only from those on its own floor -------
        stairs = [p for p in parts if p.kind is PartitionKind.STAIRCASE]
        by_stair: dict[str, list[int]] = {p.partition_id: [] for p in stairs}
        for e in skeleton.entrances:
            by_stair.get(e.staircase_id, []).append(e.index)
        counts = np.array([len(v) for v in by_stair.values()], dtype=np.intp)
        self.st_ent = np.array(
            [i for v in by_stair.values() for i in v], dtype=np.intp
        )
        self.st_has = counts > 0
        self.st_start = offsets_of(counts)[:-1][self.st_has]
        self.st_rect = np.array(
            [
                (p.bounds.minx, p.bounds.miny, p.bounds.maxx, p.bounds.maxy)
                for p in stairs
            ],
            dtype=np.float64,
        ).reshape(len(stairs), 4)
        self.st_lo = np.array([p.floor for p in stairs], dtype=np.intp)
        self.st_hi = np.array([p.upper_floor for p in stairs], dtype=np.intp)
        u_floor = self.floors[self.u_floor]
        touched = [
            np.flatnonzero(
                (self.u_minx < b[2])
                & (self.u_maxx > b[0])
                & (self.u_miny < b[3])
                & (self.u_maxy > b[1])
                & (u_floor >= lo)
                & (u_floor <= hi)
            )
            for b, lo, hi in zip(
                self.st_rect.tolist(), self.st_lo.tolist(), self.st_hi.tolist()
            )
        ]
        self.us_unit = np.concatenate(
            touched + [np.zeros(0, dtype=np.intp)]
        )
        self.us_stair = np.repeat(
            np.arange(len(stairs), dtype=np.intp), [len(t) for t in touched]
        )

    def stair_reach(self, ent_reach: np.ndarray) -> np.ndarray:
        """Each shaft's nearest entrance by ``ent_reach`` (one reach per
        entrance index): ``+inf`` for one without entrances."""
        out = np.full(len(self.st_has), np.inf)
        if self.st_ent.size:
            out[self.st_has] = np.minimum.reduceat(
                ent_reach[self.st_ent], self.st_start
            )
        return out

    # -- batched resolution (no per-object geometry calls) ------------

    def _frame(self, objects: list[UncertainObject]) -> _Frame:
        """Instance bounds by one ``reduceat``; candidate partitions as a
        rect-overlap test over the partitions of each object's floor —
        as a set exactly ``grid.candidates_for_rect(obj.bounds(),
        obj.floor)``, each object's listed in ``pieces``' order."""
        sets = [obj.instances for obj in objects]
        key, off_map = self.floor_key, len(self.floor_at) - 1
        keys = [key.get(s.floor, off_map) for s in sets]
        info = self.floor_info.take(keys, axis=0)
        n_inst = np.array([len(s.xy) for s in sets])
        starts = offsets_of(n_inst)
        xy = np.concatenate([s.xy for s in sets])
        xy2 = np.ascontiguousarray(xy.T)
        xy4 = np.concatenate((xy2, -xy2))
        # ``min`` of ``-x`` is ``-max x``, float for float.
        box = np.minimum.reduceat(xy4, starts[:-1], axis=1)
        at = np.concatenate([self.floor_at[k] for k in keys])
        c_obj = np.arange(len(sets)).repeat(info[:, 1])
        keep = (
            box.take(c_obj, axis=1) <= self.pf_box.take(at, axis=1)
        ).all(axis=0)
        at = at[keep]
        return _Frame(
            objects,
            n_inst,
            starts,
            info[:, 0],
            xy,
            xy4,
            box,
            c_obj[keep],
            at,
            self.pf_part[at],
        )

    def unit_rows(
        self, box: np.ndarray, c_obj: np.ndarray, c_pf: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(unit rows, rows per object)`` of ``n`` objects with
        instance boxes ``box`` (``(4, n)``, as :meth:`_frame`'s) and
        candidate pairs ``c_obj`` / ``c_pf``: rect overlap over the
        candidates' unit spans on the object's floor — flat,
        object-major, ascending per object, and exactly
        :func:`~repro.reference.tree.resolve_units`, since a unit lies
        inside its partition's bounds and floor span."""
        per = self.pf_unit_count[c_pf]
        rows, _ = span_index(self.pf_unit_start[c_pf], per)
        obj = c_obj.repeat(per)
        keep = (
            box.take(obj, axis=1) <= self.u_box.take(rows, axis=1)
        ).all(axis=0)
        return rows[keep], np.bincount(obj[keep], minlength=n)

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
        """Resolve ``objects`` against this topology: the table rows of
        each — subregion rows with their instance index, door entries —
        column for column the floats of
        :func:`~repro.reference.pack.pack_block`, and its candidate
        partitions, from which the write resolves its index units
        (:meth:`unit_rows`) — and, on the way, what only the batch's own
        block reads (``carry``: the rows' instances and their door
        distances).
        Raises, having written nothing, when an object has a non-finite
        instance, overlaps no index unit or has a subregion without
        probability mass — except that a
        rebuild (``strict=False``) leaves an object on no unit out, and
        gets ``None`` when that is every object."""
        frame = self._frame(objects)
        # ``InstanceSet`` refuses a non-finite coordinate; one written
        # into its array afterwards still fails closed here (a NaN or
        # infinity reaches the bounds).
        if not np.isfinite(frame.box).all():
            lost = ~np.isfinite(frame.box).all(axis=0)
            stray = objects[int(np.flatnonzero(lost)[0])]
            raise IndexError_(
                f"object {stray.object_id!r} has a non-finite instance"
            )
        # The unit rows are the write's (:meth:`unit_rows`): here only
        # whether each object overlaps one.  Algorithm 3 cuts a
        # rectangular partition, on every floor it spans, into units
        # that tile it, so a box overlapping its bounds overlaps one of
        # them; only an object with no such candidate is tested.
        n_cand = np.bincount(frame.c_obj, minlength=len(objects))
        if self.all_rect:
            held = n_cand
        else:
            rect = self.p_is_rect[frame.c_part]
            held = np.bincount(frame.c_obj[rect], minlength=len(objects))
        if not held.all():
            n_units = self.unit_rows(
                frame.box, frame.c_obj, frame.c_pf, len(objects)
            )[1]
            if not n_units.all():
                if strict:
                    stray = objects[int(np.flatnonzero(n_units == 0)[0])]
                    raise IndexError_(
                        f"object {stray.object_id!r} overlaps no index unit"
                    )
                # Stranded by a partition deletion (rare: only such a
                # chunk is framed twice).
                objects = [
                    o for o, n in zip(objects, n_units.tolist()) if n
                ]
                if not objects:
                    return None
                frame = self._frame(objects)
                n_cand = np.bincount(frame.c_obj, minlength=len(objects))
        n_obj = len(objects)
        n_inst = frame.n_inst
        owner = np.arange(n_obj).repeat(n_inst)

        # -- subregions: each instance goes to the first candidate, in
        # partition_id order, whose footprint contains it — tested
        # against its object's candidates, padded to the widest -------
        c_obj, c_part = frame.c_obj, frame.c_part
        width = max(int(n_cand.max()), 1)
        cand = np.full((n_obj, width), len(self.part_ids), dtype=np.intp)
        cand[c_obj, np.arange(len(c_obj)) - c_obj.searchsorted(c_obj)] = (
            c_part
        )
        # ``(width, n)``: each instance's candidates, rank by rank.
        mine = cand.take(owner, axis=0).T
        hit = (frame.xy4[:, None] >= self.p_in.take(mine, axis=1)).all(axis=0)
        # Each instance's first hit (0 when none hits).
        rank = hit.argmax(axis=0)
        part = None
        if not (
            hit.any(axis=0).all()
            and (self.all_rect or self.p_is_rect[c_part].all())
        ):
            # A wall-clipped straggler (the centre-partition attachment
            # rule) or a non-rectangular footprint: that object goes
            # through the scalar assignment, whose pieces are read back.
            found = hit.any(axis=0)
            part = np.take_along_axis(mine, rank[None], axis=0)[0]
            scalar = n_cand == 0
            scalar[owner[~found]] = True
            scalar[c_obj[~self.p_is_rect[c_part]]] = True
            starts = frame.starts.tolist()
            for j in np.flatnonzero(scalar).tolist():
                ids, pieces = objects[j].pieces(space, grid)
                at = slice(starts[j], starts[j + 1])
                rank[at] = 0 if pieces is None else pieces
                part[at] = np.array(
                    [self.part_row[pid] for pid in ids], dtype=np.intp
                )[rank[at]]

        # Rows = the (object, piece) keys present, in order; a stable
        # sort on the key puts each row's instances together, in their
        # order, as ``xy[mask]`` does.
        key = owner * width + rank
        order = np.argsort(key, kind="stable")
        count = np.bincount(key, minlength=n_obj * width)
        cell = np.flatnonzero(count)
        row_len = count[cell]
        row_obj = cell // width
        row_cut = offsets_of(row_len)
        if part is None:
            row_part = cand.ravel()[cell]
        else:
            row_part = part[order[row_cut[:-1]]]
        n_rows = np.bincount(row_obj, minlength=n_obj)
        # Row-ordered: the table keeps each instance's position in its
        # set; the batch's own block reads the rest.
        sxy = frame.xy.take(order, axis=0)
        ps = np.concatenate([obj.instances.probs for obj in objects])[order]
        inst_idx = np.subtract(order, frame.starts[owner], dtype=np.int32)
        # One contiguous pairwise sum per row: the values and order of
        # ``probs[mask].sum()``, which ``reduceat`` would not give.
        add = np.add.reduce
        masses = [
            check_mass(float(add(ps[a:b])))
            for a, b in itertools.pairwise(row_cut.tolist())
        ]

        # -- door extrema: each entry door's distances to its row's
        # instances, reduced per door ----------------------------------
        lrow = self.p_layout[row_part]
        layout = self.layout
        row_floor = self.floors_f[frame.floor_idx[row_obj]]
        d, cuts, inst, entry = door_distances(
            sxy, row_cut[:-1], row_len, row_floor, lrow, layout, self.fh
        )
        nd = layout.n_entry[lrow]
        obj_rows = offsets_of(n_rows)
        n_ents = np.add.reduceat(nd, obj_rows[:-1])
        return _Staged(
            objects,
            c_obj,
            frame.c_pf,
            frame.floor_idx,
            frame.box[:2].T,
            -frame.box[2:].T,
            n_rows,
            lrow,
            masses,
            row_len,
            n_inst,
            inst_idx,
            n_ents,
            np.minimum.reduceat(d, cuts[:-1]),
            np.maximum.reduceat(d, cuts[:-1]),
            _Carry(
                RowGeometry(sxy, ps, d, cuts, inst, entry, n_ents),
                row_floor,
                row_cut,
                frame.starts,
                nd,
                obj_rows,
            ),
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

    def claim(self, objects: list[UncertainObject]) -> list[int]:
        """The slots of a batch of live objects — a new object's taken
        here — each now holding its object; nothing else is written."""
        slots = [self._slot_for(obj.object_id) for obj in objects]
        for slot, obj in zip(slots, objects):
            self.objects[slot] = obj
        return slots

    def commit(
        self, staged: _Staged, legs: np.ndarray | None = None
    ) -> None:
        """(Over)write the rows of a staged batch of live objects (see
        :meth:`write`)."""
        self.write(staged, self.claim(staged.objects), legs)

    def write(
        self,
        staged: _Staged,
        slot_list: list[int],
        legs: np.ndarray | None = None,
    ) -> None:
        """Write the rows of a staged batch into its claimed slots.  The
        entrance legs are ``legs`` or, when none are given, marked stale
        for the next search that reads them to refill."""
        self.writes += 1
        slots = np.array(slot_list, dtype=np.intp)
        n_rows, n_ents = staged.n_rows, staged.n_ents
        unit_rows, n_units = self.topo.unit_rows(
            np.concatenate((staged.lo.T, -staged.hi.T)),
            staged.c_obj,
            staged.c_pf,
            len(slots),
        )
        self.reserve_slots(len(self.objects))
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
        self.units[np.repeat(slots, n_units), col] = unit_rows
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
    euclid_floors: list[int],
) -> np.ndarray:
    """Algorithm 4's leaf criterion, one flag per unit row: the
    Euclidean MINDIST to the flattened rect on the ``euclid_floors``
    rows (q's first, then those of a staircase q stands in) — on
    every floor when ``reach`` is ``None`` — and the skeleton bound on
    the others, floor by floor (on such a floor other than q's,
    either passes)."""
    # Euclidean MINDIST to the flattened rect: every unit without
    # the skeleton, else the units of those floors.
    start = topo.f_unit_start
    if reach is None:
        rows = slice(None)
    else:
        rows = np.concatenate(
            [topo.f_units[start[f] : start[f + 1]] for f in euclid_floors]
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
        if f == euclid_floors[0] or reach_f.min() > r:
            continue
        n = start[f + 1] - start[f]
        legs = topo.f_legs[at : at + k * n].reshape(k, n)
        via = legs[0] + reach_f[0]
        leg = np.empty(n)
        for legs_k, reach_k in zip(legs[1:], reach_f[1:].tolist()):
            np.add(legs_k, reach_k, out=leg)
            np.minimum(via, leg, out=via)
        passing[topo.f_units[start[f] : start[f + 1]]] |= via <= r
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
        #: Committed batches not yet written into :attr:`_state` (their
        #: slots claimed), at most :data:`_BUILD_CHUNK` distinct objects
        #: in all; any reader writes them first.
        self._queued: list[tuple[_Staged, list[int]]] = []
        self._queued_ids: set[str] = set()
        #: The batch the last commit took, and what its stage computed
        #: for its block, while a block of exactly its objects may be
        #: built from them (see :meth:`block`).
        self._last: tuple[_Staged, _Carry] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every column (and every queued write); the next read
        rebuilds."""
        self._topo = self._state = None
        self._discard()

    def _discard(self) -> None:
        """Forget the queued writes: a rebuild reads the population."""
        self._queued = []
        self._queued_ids = set()
        self._last = None

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
        """The state every read goes through: rebuilt for the current
        topology, with the queued writes in it."""
        state = self._current()
        if state is None:
            with self._lock:
                state = self._current()
                if state is None:
                    self._discard()
                    state = self._state = self._build()
        self._flush()
        return state

    def _flush(self) -> None:
        """Write the queued batches, as one, into the state they were
        staged for.  Under the lock, checked again there; the queue is
        emptied only once the write has landed, so a concurrent reader
        that finds it non-empty waits for the lock instead of reading a
        half-written table."""
        if not self._queued:
            return
        with self._lock:
            queued = self._queued
            if queued:
                self._state.write(
                    _joined([staged for staged, _ in queued]),
                    [slot for _, slots in queued for slot in slots],
                )
                self._queued = []
                self._queued_ids = set()

    def build(self) -> None:
        """Build the table now, strictly: the index's own build, where
        an object the index cannot hold raises (a rebuild leaves an
        object on no unit out)."""
        with self._lock:
            self._discard()
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
        """Bytes held by the columns (0 until first use), the queued
        writes written first."""
        self._flush()
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
        moved — candidate partitions (the write resolves the units),
        subregion rows, instance index, door entries — touching
        nothing.  Raises where the index could not hold one of them."""
        return self._topology().stage(
            objects, self.space, self.population.grid
        )

    def commit(self, staged: _Staged) -> None:
        """Take a staged batch, now live objects of the population: its
        slots are claimed at once and its rows queued, to be written
        with the other queued batches by the next reader — or first,
        when the batch repeats a queued object or the queue would pass
        :data:`_BUILD_CHUNK` objects.  A table not built for the
        current topology is left alone — its rebuild reads the objects
        from the population."""
        self._last = None
        state = self._current()
        if state is None:
            return
        ids = [obj.object_id for obj in staged.objects]
        if (
            len(self._queued_ids) + len(ids) > _BUILD_CHUNK
            or not self._queued_ids.isdisjoint(ids)
        ):
            self._flush()
        slots = state.claim(staged.objects)
        # What the stage computed for the batch's block is never queued.
        carry, staged.carry = staged.carry, None
        if len(ids) > _BUILD_CHUNK:
            state.write(staged, slots)  # a batch above the queue's bound
        else:
            self._queued.append((staged, slots))
            self._queued_ids.update(ids)
        if carry is not None:
            self._last = (staged, carry)

    def drop(self, object_id: str) -> None:
        """Forget a deleted object (the queued writes written first)."""
        self._last = None
        state = self._current()
        if state is not None:
            self._flush()
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
        when none is built.  Never builds, but writes the queued
        batches first: a structural change reads the table it is about
        to drop."""
        state = self._state
        if state is None:
            return set()
        self._flush()
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
        instead — or, for exactly the batch the last write staged (the
        monitor's read of the batch it is absorbing), taken from that
        staging, field for field the block the gather returns, with
        nothing written or gathered, and carrying what the stage
        computed for exact refinement to read."""
        last = self._last
        if (
            last is not None
            and len(objects) == len(last[0].objects)
            and all(map(operator.is_, objects, last[0].objects))
            and self._current() is not None
        ):
            return self._staged_block(*last)
        return self._gathered_block(objects)

    def _gathered_block(self, objects: list[UncertainObject]) -> ObjectBlock:
        """:meth:`block` by gather from the table: each row's door
        entries, whose doors are its partition's entry doors in layout
        order."""
        state, slots = self._slots(objects)
        rows, offsets = self._rows(state, slots, objects)
        ents, _ = span_index(state.ent_start[slots], state.ent_count[slots])
        layout = state.topo.layout
        row_n = layout.n_entry[rows.part]
        doors, _ = span_index(layout.entry_start[rows.part], row_n)
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

    def _staged_block(self, staged: _Staged, carry: _Carry) -> ObjectBlock:
        """:meth:`block` of a staged batch's own objects, from the
        staging: its columns are object-major and row-ordered, as a
        gather of the batch's slots lays them, and the door column and
        the rows' instances and door distances are the stage's."""
        layout = self._state.topo.layout
        geometry = carry.geometry
        rows = SubregionRows(
            staged.sub_part,
            staged.sub_mass,
            carry.row_floor,
            carry.row_start,
            [obj.instances for obj in staged.objects],
            carry.set_start,
            staged.inst_idx,
            geometry,
        )
        return ObjectBlock(
            list(staged.objects),
            layout,
            layout.flat_idx[geometry.entry[geometry.cuts[:-1]]],
            staged.ent_min,
            staged.ent_max,
            carry.row_n,
            rows,
            carry.obj_rows,
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
        and by its instances only when the box straddles ``r``.  On
        the other floors of a staircase q stands in, a unit or an
        object passes by either bound: a path may stay inside the
        shaft (:func:`repro.reference.tree.shaft_floors`).  Off q's
        floor, a unit overlapping a staircase's footprint (its
        interior) or an object box touching it, on a floor it spans,
        also passes when any entrance of that staircase is within
        ``r``: a path may enter the shaft on another floor
        (:func:`repro.reference.tree.shaft_entrance_reach`)."""
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
        # Floor rows tested by the Euclidean bound: q's and, from inside
        # a staircase, every other floor of it — a path may reach them
        # without leaving the shaft (there a floor also passes by the
        # skeleton bound).
        euclid_floors = [q_floor]
        if use_skeleton and q_floor >= 0 and topo.floor_has_ent[q_floor]:
            skeleton = self.skeleton
            sqs = skeleton.entrances_on_floor(q.floor)
            stairs = [
                p
                for p in self.population.grid.candidates_for_point(q)
                if p.kind is PartitionKind.STAIRCASE
            ]
            inside = {p.partition_id for p in stairs}
            euclid_floors += sorted(
                {
                    topo.floor_row[f]
                    for p in stairs
                    for f in range(p.floor, p.upper_floor + 1)
                    if f != q.floor and f in topo.floor_row
                }
            )
            if inside:
                sqs = sqs + [
                    e
                    for e in skeleton.entrances
                    if e.staircase_id in inside and e.floor != q.floor
                ]
            dq = np.array([q.distance(s.midpoint, fh) for s in sqs])
            via = dq[:, None] + skeleton.ms2s[[s.index for s in sqs], :]
            ent_reach = via.min(axis=0)
            reach = np.append(ent_reach, np.inf)[topo.floor_ent]
            shafts = topo.stair_reach(ent_reach)

        passing = _passing_units(topo, q, r, reach, euclid_floors)
        # The shafts one of whose entrances is within r.
        open_ = None if reach is None else np.flatnonzero(shafts <= r)
        if open_ is not None and open_.size:
            # A unit inside such a shaft, off q's floor, is reached from
            # any of its entrances.
            near = topo.us_unit[shafts[topo.us_stair] <= r]
            passing[near[topo.u_floor[near] != q_floor]] = True
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
            if len(euclid_floors) > 1:
                # In a shaft q stands in: the Euclidean bound too.
                shaft = far & ~hit & np.isin(floor, euclid_floors[1:])
                hit[shaft] = _within(state, slots[shaft], q, r, fh)
            rest = np.flatnonzero(far & ~hit) if open_.size else open_
            if rest.size:
                # A box touching a shaft on a floor it spans: instances
                # inside it are reached from any of its entrances.
                mine = slots[rest]
                f = topo.floors[state.floor_idx[mine]][:, None]
                lo, hi = state.box_lo[mine], state.box_hi[mine]
                b = topo.st_rect[open_]
                hit[rest] = (
                    (f >= topo.st_lo[open_])
                    & (f <= topo.st_hi[open_])
                    & (lo[:, :1] <= b[:, 2])
                    & (hi[:, :1] >= b[:, 0])
                    & (lo[:, 1:] <= b[:, 3])
                    & (hi[:, 1:] >= b[:, 1])
                ).any(axis=1)
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
