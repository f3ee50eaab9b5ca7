"""The columnar object table: per-object packed state behind the
filter and prune phases.

The paper's RangeSearch (Algorithm 4) and the Table III bounds both
consume per-object geometry that does not depend on the query: an
object's subregion rows (the :func:`~repro.distances.batch.pack_block`
operand of the bounds kernel) and its instances' distance to the
staircase entrances on its floor.  This module keeps that state in
slot-addressed numpy columns, written when an object moves instead of
recomputed by every query that looks at it, next to the leaf level of
the indR-tree flattened into arrays.  One table then serves

* :meth:`ObjectColumns.search` — Algorithm 4's leaf criterion for all
  units, then for all bucketed objects, in a handful of array ops;
* :meth:`ObjectColumns.block` — the candidate set (or a moved batch)
  as an :class:`~repro.distances.batch.ObjectBlock`, by gather.

**What it owns.**  Per topology version: the
:class:`~repro.distances.batch.DoorLayout`, each partition's entry
doors as one padded row, the unit arrays (rect, floor, partition,
rect-MINDIST to the entrances on the unit's floor) and the per-floor
entrance index.  Per object slot: floor, entrance legs, the rows of the
index units the object overlaps (the o-table's buckets, slot-major), a
span of subregion rows (partition row, mass) and — ragged beneath the
rows — one ``(emin, emax)`` entry per entry door of each row's
partition.  Rows are stored ragged because a hallway has tens of doors
and a room one: padded to the widest partition the table is several
times larger, and the resident set is a gated metric.  For the same
reason instance coordinates are *not* copied here: the one test that
needs them (min instance distance to a same-floor query point) reads
them from the objects, a bounded number of objects at a time.

**Invalidation.**  Everything hangs off one state object stamped with
``space.topology_version``.  A read under a newer version rebuilds the
whole state from the population and the o-table (door indices, unit
rows and subregions all move with the topology); the index's
structural paths (``apply_event``, ``insert_partition``,
``delete_partition``) additionally drop it outright.  Object writes
against a dropped or stale state are skipped — the rebuild will read
the object from the population.

**Threading.**  One writer: the index mutation the service already
serialises.  Readers may be shard pool threads; they never run
concurrently with a writer (the router blocks on them), and a rebuild
is built privately and published by single assignment under a lock, so
a reader sees either the old state or the complete new one.

Bit-identity with the tree walk
(:meth:`~repro.index.composite.CompositeIndex.range_search_tree`) and
with the per-pair bounds is by construction: every distance repeats
the scalar operation sequence (see the float notes in
:mod:`repro.distances.batch`), and Eq. 10's ``min`` over the query
floor's entrances is hoisted out of the per-entity loop —
``min_sq((dq + M[sq, e]) + leg) == min_sq(dq + M[sq, e]) + leg``
because float addition is monotone.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from repro.distances.batch import (
    DoorLayout,
    ObjectBlock,
    pack_block,
    point_distances,
    span_index,
)
from repro.errors import IndexError_
from repro.geometry.point import Point
from repro.index.indr import IndRTree
from repro.index.skeleton import SkeletonTier
from repro.index.tables import OTable
from repro.objects.population import ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.space.floorplan import IndoorSpace

#: Objects packed per :func:`pack_block` call during a rebuild — bounds
#: the transient arrays (and so the resident-set peak) of a full build.
_BUILD_CHUNK = 256
#: Objects whose instances one pass of the search's Euclidean test
#: gathers — bounds the transient arrays of a whole-venue search.
_SEARCH_CHUNK = 512


class _Spans:
    """Contiguous-span allocator over the first axis of a group of
    parallel arrays: freed spans are reused by exact size, everything
    else is appended."""

    __slots__ = ("top", "free")

    def __init__(self) -> None:
        self.top = 0
        self.free: dict[int, list[int]] = {}

    def take(self, n: int) -> int:
        bucket = self.free.get(n)
        if bucket:
            return bucket.pop()
        start = self.top
        self.top += n
        return start

    def give(self, start: int, n: int) -> None:
        self.free.setdefault(n, []).append(start)


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


class _State:
    """One topology version's columns (see the module docstring)."""

    def __init__(
        self, space: IndoorSpace, indr: IndRTree, skeleton: SkeletonTier
    ) -> None:
        self.version = space.topology_version
        self.layout = layout = DoorLayout(space)
        fh = space.floor_height

        # -- topology: each partition's entry doors, padded -----------
        n_parts = len(layout.entry_idx)
        self.part_ndoors = np.array(
            [idx.size for idx in layout.entry_idx], dtype=np.intp
        )
        doors = max(int(self.part_ndoors.max(initial=0)), 1)
        self.part_doors = np.full(
            (n_parts, doors), layout.sentinel, dtype=np.intp
        )
        for row, idx in enumerate(layout.entry_idx):
            self.part_doors[row, : idx.size] = idx

        # -- topology: staircase entrances, grouped per floor ---------
        skeleton.ensure_fresh()
        units = list(indr.units.values())
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

        # -- topology: the indR-tree's leaf level ---------------------
        self.unit_row = {u.unit_id: i for i, u in enumerate(units)}
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
        part_row = {
            pid: i
            for i, pid in enumerate(
                dict.fromkeys(u.partition_id for u in units)
            )
        }
        self.part_ids = list(part_row)
        self.u_part = np.array(
            [part_row[u.partition_id] for u in units], dtype=np.intp
        )
        # Rect-MINDIST of each unit to the entrances on its own floor
        # (the ``leg`` of Eq. 10; same floor, so no vertical term).
        ex = self.floor_ent_xy[self.u_floor, :, 0]
        ey = self.floor_ent_xy[self.u_floor, :, 1]
        dx = np.maximum(
            np.maximum(self.u_minx[:, None] - ex, 0.0),
            ex - self.u_maxx[:, None],
        )
        dy = np.maximum(
            np.maximum(self.u_miny[:, None] - ey, 0.0),
            ey - self.u_maxy[:, None],
        )
        self.u_legs = np.sqrt(dx * dx + dy * dy)

        # -- per object -----------------------------------------------
        self.slot_of: dict[str, int] = {}
        self.objects: list[UncertainObject | None] = []
        self.free_slots: list[int] = []
        self.floor_idx = np.zeros(0, dtype=np.intp)  # row of its floor
        self.row_start = np.zeros(0, dtype=np.intp)
        self.row_count = np.zeros(0, dtype=np.intp)
        self.ent_start = np.zeros(0, dtype=np.intp)
        self.ent_count = np.zeros(0, dtype=np.intp)
        self.legs = np.zeros((0, width))
        self.units = np.full((0, 1), n, dtype=np.intp)

        # -- subregion rows, and ragged beneath them one (emin, emax)
        # entry per entry door of the row's partition ------------------
        self.rows = _Spans()
        self.sub_part = np.zeros(0, dtype=np.intp)
        self.sub_mass = np.zeros(0)
        self.ents = _Spans()
        self.ent_min = np.zeros(0)
        self.ent_max = np.zeros(0)

    # -- writes -------------------------------------------------------

    def reserve(self, slots: int, rows: int, ents: int) -> None:
        """Make room for ``slots`` objects, ``rows`` subregion rows and
        ``ents`` door entries (a rebuild reserves its slots and rows
        once, so those columns are never copied while they fill)."""
        self.floor_idx = _grown(self.floor_idx, slots, 0)
        self.row_start = _grown(self.row_start, slots, 0)
        self.row_count = _grown(self.row_count, slots, 0)
        self.ent_start = _grown(self.ent_start, slots, 0)
        self.ent_count = _grown(self.ent_count, slots, 0)
        self.legs = _grown(self.legs, slots, 0.0)
        self.units = _grown(self.units, slots, self.n_units)
        self.sub_part = _grown(self.sub_part, rows, 0)
        self.sub_mass = _grown(self.sub_mass, rows, 0.0)
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

    def write(
        self,
        population: ObjectPopulation,
        objects: list[UncertainObject],
        unit_sets: list[Iterable[str]],
    ) -> None:
        """(Over)write the rows of ``objects`` — live objects of
        ``population`` — from a fresh :func:`pack_block`."""
        block = pack_block(
            objects, population.space, population.grid, self.layout
        )
        slots = np.array(
            [self._slot_for(obj.object_id) for obj in objects],
            dtype=np.intp,
        )
        # pack_block pads each row's door entries to the batch's widest
        # partition; the real ones, row-major, are the ragged entries.
        real = block.sub_door != self.layout.sentinel
        n_rows = np.diff(block.obj_offsets)
        n_ents = np.add.reduceat(real.sum(axis=1), block.obj_offsets[:-1])
        # Upper bounds: a respan below may reuse a freed span instead.
        self.reserve(
            len(self.objects),
            self.rows.top + len(block.sub_part),
            self.ents.top + int(n_ents.sum()),
        )
        for j, (obj, unit_ids) in enumerate(zip(objects, unit_sets)):
            slot = int(slots[j])
            self.objects[slot] = obj
            _respan(
                self.rows, self.row_start, self.row_count,
                slot, int(n_rows[j]),
            )
            _respan(
                self.ents, self.ent_start, self.ent_count,
                slot, int(n_ents[j]),
            )
            f = self.floor_idx[slot] = self.floor_row[obj.floor]
            # Min instance distance to each entrance on the object's
            # floor: column-wise the same floats as
            # ``instances.min_distance_to(entrance.midpoint)``.
            xy = obj.instances.xy
            ent = self.floor_ent_xy[f]
            ddx = xy[:, 0][:, None] - ent[:, 0][None, :]
            ddy = xy[:, 1][:, None] - ent[:, 1][None, :]
            self.legs[slot] = np.sqrt(ddx * ddx + ddy * ddy).min(axis=0)
            rows = sorted(self.unit_row[u] for u in unit_ids)
            if len(rows) > self.units.shape[1]:
                wider = np.full(
                    (self.units.shape[0], len(rows)),
                    self.n_units,
                    dtype=np.intp,
                )
                wider[:, : self.units.shape[1]] = self.units
                self.units = wider
            self.units[slot] = self.n_units
            self.units[slot, : len(rows)] = rows

        dst, _ = span_index(self.row_start[slots], n_rows)
        self.sub_part[dst] = block.sub_part
        self.sub_mass[dst] = block.sub_mass
        dst, _ = span_index(self.ent_start[slots], n_ents)
        self.ent_min[dst] = block.sub_min[real]
        self.ent_max[dst] = block.sub_max[real]

    def drop(self, object_id: str) -> None:
        slot = self.slot_of.pop(object_id, None)
        if slot is None:
            return
        self.rows.give(
            int(self.row_start[slot]), int(self.row_count[slot])
        )
        self.ents.give(
            int(self.ent_start[slot]), int(self.ent_count[slot])
        )
        self.row_count[slot] = self.ent_count[slot] = 0
        self.units[slot] = self.n_units  # in no bucket: never a candidate
        self.objects[slot] = None
        self.free_slots.append(slot)

    # -- reads --------------------------------------------------------

    def padded_rows(
        self, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, offsets, sub_door, sub_min, sub_max)`` of the
        objects at ``slots``: their row indices and per-object offsets,
        and the ragged door entries re-padded to the widest partition
        among them — the arrays :func:`pack_block` would produce."""
        rows, offsets = span_index(
            self.row_start[slots], self.row_count[slots]
        )
        part = self.sub_part[rows]
        n = self.part_ndoors[part]
        width = max(int(n.max(initial=0)), 1)
        sub_door = self.part_doors[:, :width][part]
        sub_min = np.zeros(sub_door.shape)
        sub_max = np.zeros(sub_door.shape)
        ents, _ = span_index(self.ent_start[slots], self.ent_count[slots])
        col, _ = span_index(np.zeros(len(rows), dtype=np.intp), n)
        row = np.repeat(np.arange(len(rows), dtype=np.intp), n)
        sub_min[row, col] = self.ent_min[ents]
        sub_max[row, col] = self.ent_max[ents]
        return rows, offsets, sub_door, sub_min, sub_max


def _respan(
    spans: _Spans, start: np.ndarray, count: np.ndarray, slot: int, n: int
) -> None:
    """Give ``slot`` a span of ``n`` entries, reusing its current one
    when the size is unchanged."""
    have = int(count[slot])
    if have == n:
        return
    if have:
        spans.give(int(start[slot]), have)
    start[slot] = spans.take(n)
    count[slot] = n


class ObjectColumns:
    """The index's columnar object table (see the module docstring)."""

    def __init__(
        self,
        space: IndoorSpace,
        population: ObjectPopulation,
        indr: IndRTree,
        skeleton: SkeletonTier,
        otable: OTable,
    ) -> None:
        # The layers the table mirrors — not the index that owns both,
        # which would make every discarded index wait for the cycle
        # collector.
        self.space = space
        self.population = population
        self.indr = indr
        self.skeleton = skeleton
        self.otable = otable
        self._state: _State | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every column; the next read rebuilds."""
        self._state = None

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

    def _build(self) -> _State:
        state = _State(self.space, self.indr, self.skeleton)
        otable = self.otable
        # Population order = slot order, so a restored engine and a
        # freshly rebuilt one number their objects alike.
        live = [o for o in self.population if o.object_id in otable]
        space, grid = self.space, self.population.grid
        state.reserve(
            len(live), sum(len(o.subregions(space, grid)) for o in live), 0
        )
        for i in range(0, len(live), _BUILD_CHUNK):
            chunk = live[i : i + _BUILD_CHUNK]
            state.write(
                self.population,
                chunk,
                [otable.units_of(o.object_id) for o in chunk],
            )
        return state

    def layout(self) -> DoorLayout:
        """The door layout every row and query pack of the current
        topology is expressed in."""
        return self._fresh().layout

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (0 until first use)."""
        state = self._state
        if state is None:
            return 0
        return sum(
            v.nbytes for v in vars(state).values()
            if isinstance(v, np.ndarray)
        )

    # ------------------------------------------------------------------
    # writes (the index's object mutation paths)
    # ------------------------------------------------------------------

    def write(
        self,
        objects: list[UncertainObject],
        unit_sets: list[Iterable[str]],
    ) -> None:
        """Record inserted or moved live objects and their unit sets."""
        state = self._current()
        if state is not None and objects:
            state.write(self.population, objects, unit_sets)

    def drop(self, object_id: str) -> None:
        """Forget a deleted object."""
        state = self._current()
        if state is not None:
            state.drop(object_id)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def block(self, objects: list[UncertainObject]) -> ObjectBlock:
        """``objects`` — live objects of the index — as the bounds
        kernel's object-side operand: the rows :func:`pack_block` would
        compute, gathered instead."""
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
        rows, offsets, sub_door, sub_min, sub_max = state.padded_rows(slots)
        space, grid = self.space, self.population.grid
        subs = [s for obj in objects for s in obj.subregions(space, grid)]
        return ObjectBlock(
            list(objects),
            state.layout,
            sub_door,
            sub_min,
            sub_max,
            state.sub_part[rows],
            [s.partition_id for s in subs],
            state.sub_mass[rows].tolist(),
            [s.instances for s in subs],
            offsets,
        )

    def search(
        self, q: Point, r: float, use_skeleton: bool
    ) -> tuple[list[UncertainObject], set[str], int]:
        """Algorithm 4 over the columns: candidate objects (ascending
        slot order), candidate partitions, and the number of units
        tested."""
        state = self._fresh()
        fh = self.space.floor_height
        qx, qy, qz = q.x, q.y, q.z(fh)
        q_floor = state.floor_row.get(q.floor, -1)

        # Reach of every entrance from q through the skeleton:
        # reach[e] = min_sq(|q, sq|_E + M_s2s[sq, e]); None when the
        # Euclidean bound applies everywhere (ablation, or no staircase
        # on q's floor).
        reach = None
        if use_skeleton and q_floor >= 0 and state.floor_has_ent[q_floor]:
            skeleton = self.skeleton
            sqs = skeleton.entrances_on_floor(q.floor)
            dq = np.array([q.distance(s.midpoint, fh) for s in sqs])
            via = dq[:, None] + skeleton.ms2s[[s.index for s in sqs], :]
            reach = np.append(via.min(axis=0), np.inf)[state.floor_ent]

        # Units: Euclidean MINDIST to the flattened rect, replaced by
        # the skeleton bound on the other floors.
        dx = np.maximum(np.maximum(state.u_minx - qx, 0.0), qx - state.u_maxx)
        dy = np.maximum(np.maximum(state.u_miny - qy, 0.0), qy - state.u_maxy)
        dz = np.maximum(np.maximum(state.u_z - qz, 0.0), qz - state.u_z)
        bound = np.sqrt(dx * dx + dy * dy + dz * dz)
        if reach is not None:
            via = (reach[state.u_floor] + state.u_legs).min(axis=1)
            bound = np.where(state.u_floor == q_floor, bound, via)
        passing = bound <= r
        partitions = {
            state.part_ids[row]
            for row in set(state.u_part[passing].tolist())
        }

        # Objects bucketed in a passing unit, then the instance bound.
        n_slots = len(state.objects)
        in_bucket = np.append(passing, False)[state.units[:n_slots]]
        slots = np.nonzero(in_bucket.any(axis=1))[0]
        if slots.size == 0:
            return [], partitions, state.n_units
        floor = state.floor_idx[slots]
        dist = np.empty(slots.size)
        if reach is None:
            direct = np.ones(slots.size, dtype=bool)
        else:
            direct = (floor == q_floor) | ~state.floor_has_ent[floor]
            far = ~direct
            dist[far] = (
                reach[floor[far]] + state.legs[slots[far]]
            ).min(axis=1)
        near = np.nonzero(direct)[0]
        for i in range(0, near.size, _SEARCH_CHUNK):
            # Min instance distance to q, a bounded number of objects
            # at a time (an unbounded radius tests the whole venue).
            part = near[i : i + _SEARCH_CHUNK]
            mine = slots[part]
            d, starts = point_distances(
                [state.objects[s].instances.xy for s in mine.tolist()],
                state.floors[state.floor_idx[mine]],
                q,
                fh,
            )
            dist[part] = np.minimum.reduceat(d, starts)
        found = slots[dist <= r].tolist()
        return [state.objects[s] for s in found], partitions, state.n_units

    # ------------------------------------------------------------------
    # consistency (tests + debugging)
    # ------------------------------------------------------------------

    def validate(self) -> list[str]:
        """Rows that differ from a fresh :func:`pack_block` of the live
        object, and buckets that disagree with the o-table.  A table
        that is not built for the current topology holds no rows to
        check."""
        state = self._current()
        if state is None:
            return []
        space, grid = self.space, self.population.grid
        fh = space.floor_height
        unit_ids = list(state.unit_row)
        indexed = {
            o.object_id: o
            for o in self.population
            if o.object_id in self.otable
        }
        problems = [
            f"columns hold a row for unindexed object {object_id}"
            for object_id in state.slot_of
            if object_id not in indexed
        ]
        for oid, obj in indexed.items():
            slot = state.slot_of.get(oid)
            if slot is None or state.objects[slot] is not obj:
                problems.append(f"object {oid} has no current column row")
                continue
            fresh = pack_block([obj], space, grid, state.layout)
            real = fresh.sub_door != state.layout.sentinel
            a = state.row_start[slot]
            b = a + state.row_count[slot]
            ea = state.ent_start[slot]
            eb = ea + state.ent_count[slot]
            entrances = self.skeleton.entrances_on_floor(obj.floor)
            checks = {
                "subregion rows": np.array_equal(
                    state.sub_part[a:b], fresh.sub_part
                )
                and state.sub_mass[a:b].tolist() == fresh.sub_mass,
                "door entries": np.array_equal(
                    state.ent_min[ea:eb], fresh.sub_min[real]
                )
                and np.array_equal(
                    state.ent_max[ea:eb], fresh.sub_max[real]
                ),
                "floor": state.floor_idx[slot] == state.floor_row[obj.floor],
                "entrance legs": state.legs[slot, : len(entrances)].tolist()
                == [
                    obj.instances.min_distance_to(e.midpoint, fh)
                    for e in entrances
                ],
                "unit buckets": {
                    unit_ids[row]
                    for row in state.units[slot].tolist()
                    if row < state.n_units
                }
                == self.otable.units_of(oid),
            }
            problems.extend(
                f"object {oid}: columns disagree on {what}"
                for what, ok in checks.items()
                if not ok
            )
        return problems
