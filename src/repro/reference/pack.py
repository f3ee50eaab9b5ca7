"""The object-side operand of the bounds kernel, packed per object.

The index's columnar table writes every object's subregion rows and
door entries for a whole batch in one array pass
(:meth:`repro.index.columns._Topology.stage`) and serves a block as a
gather of them (:meth:`repro.index.columns.ObjectColumns.block`).
:func:`pack_block` builds the same :class:`~repro.distances.batch.
ObjectBlock` one object and one subregion at a time from the scalar
assignment; :meth:`~repro.index.columns.ObjectColumns.validate` and
the tests hold the table to it by ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.distances.batch import (
    DoorLayout,
    ObjectBlock,
    SubregionRows,
    offsets_of,
)
from repro.objects.uncertain import UncertainObject
from repro.reference.subregions import Subregion, subregions
from repro.space.floorplan import IndoorSpace


def subregion_rows(
    objects: list[UncertainObject], space: IndoorSpace, grid, layout
) -> tuple[SubregionRows, np.ndarray]:
    """``objects``' subregions (:func:`~repro.reference.subregions.
    subregions`, the scalar assignment) as :class:`SubregionRows` in
    ``layout``'s partition rows, and each object's row span — the
    reference the index's table rows are held to."""
    subs: list[Subregion] = []
    counts = []
    for obj in objects:
        mine = subregions(obj, space, grid)
        subs.extend(mine)
        counts.append(len(mine))
    sets = [s.instances for s in subs]
    xy = np.concatenate([inst.xy for inst in sets] + [np.zeros((0, 2))])
    return SubregionRows(
        np.array(
            [layout.part_row[s.partition_id] for s in subs], dtype=np.intp
        ),
        [s.mass for s in subs],
        np.array([float(inst.floor) for inst in sets]),
        offsets_of(np.array([len(inst) for inst in sets], dtype=np.intp)),
        np.ascontiguousarray(xy[:, 0]),
        np.ascontiguousarray(xy[:, 1]),
        np.concatenate([inst.probs for inst in sets] + [np.zeros(0)]),
    ), offsets_of(np.array(counts, dtype=np.intp))


def pack_block(
    objects: list[UncertainObject],
    space: IndoorSpace,
    grid,
    layout: DoorLayout,
) -> ObjectBlock:
    """Pack one batch's subregion stats — the per-object reference the
    index's batched write is held to.

    Per subregion, the instance-to-door Euclidean extrema come from a
    single ``(n_instances, n_doors)`` distance matrix whose per-door
    columns are bit-identical to the scalar per-door
    :meth:`~repro.objects.instances.InstanceSet.min_distance_to` /
    ``max_distance_to`` calls (see the float notes in
    :mod:`repro.distances.batch`).
    """
    fh = space.floor_height
    rows, offsets = subregion_rows(objects, space, grid, layout)
    empty = np.empty(0, dtype=np.float64)
    rows_door: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    rows_min: list[np.ndarray] = [empty]
    rows_max: list[np.ndarray] = [empty]
    for a, row in enumerate(rows.part.tolist()):
        idx = layout.entry_idx[row]
        if idx.size:
            span = slice(rows.start[a], rows.start[a + 1])
            mids = layout.entry_mid[row]
            dx = rows.x[span][:, None] - mids[:, 0][None, :]
            dy = rows.y[span][:, None] - mids[:, 1][None, :]
            d2 = dx * dx + dy * dy
            dz = (rows.floor[a] - mids[:, 2]) * fh
            d = np.sqrt(d2 + (dz * dz)[None, :])
            rows_min.append(d.min(axis=0))
            rows_max.append(d.max(axis=0))
            rows_door.append(idx)
    return ObjectBlock(
        list(objects),
        layout,
        np.concatenate(rows_door),
        np.concatenate(rows_min),
        np.concatenate(rows_max),
        layout.n_entry[rows.part],
        rows,
        offsets,
    )
