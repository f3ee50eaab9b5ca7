"""Algorithm 4 as the paper states it, and Lemma 6 one entity at a time.

The system's RangeSearch (:meth:`repro.index.composite.CompositeIndex.
range_search`) evaluates the leaf criterion for every index unit and
object at once over the columnar table
(:meth:`repro.index.columns.ObjectColumns.search`), and its writes
resolve an object's index units in one array pass.  The scalar forms
here are what those are held to:

* :func:`range_search_tree` — the stack walk over the indR-tree with
  per-entry bounds: the same candidates and partitions, and the source
  of ``nodes_visited`` for the index-cost figure (Figure 15);
* :func:`resolve_units` — an object's index units by indR-tree search,
  the set every write records;
* the skeleton distance (Definition 2) and its entity forms (Eq. 10)
  over the :class:`~repro.index.skeleton.SkeletonTier`'s ``M_s2s``:
  each lower-bounds the indoor distance (Lemma 6).
"""

from __future__ import annotations

import math

from repro.geometry.point import Point
from repro.geometry.rect import Box3
from repro.index.composite import CompositeIndex, RangeSearchResult
from repro.index.indr import IndexUnit
from repro.index.skeleton import SkeletonTier
from repro.objects.instances import InstanceSet
from repro.objects.uncertain import UncertainObject


def skeleton_distance(skeleton: SkeletonTier, q: Point, p: Point) -> float:
    """``|q, p|_K`` (Definition 2).

    Same floor: plain Euclidean.  Different floors: best combination
    of an entrance near ``q``, the ``M_s2s`` hop, and an entrance
    near ``p``.  Infinite when either floor has no staircase access.
    """
    skeleton.ensure_fresh()
    fh = skeleton.space.floor_height
    if q.floor == p.floor:
        return q.distance(p, fh)
    best = math.inf
    for sq in skeleton.entrances_on_floor(q.floor):
        dq = q.distance(sq.midpoint, fh)
        for sp in skeleton.entrances_on_floor(p.floor):
            total = (
                dq
                + skeleton.ms2s[sq.index, sp.index]
                + sp.midpoint.distance(p, fh)
            )
            if total < best:
                best = total
    return best


def min_distance_to_box(
    skeleton: SkeletonTier, q: Point, box: Box3, lf: int, uf: int
) -> float:
    """``|q, e|_K^min`` (Eq. 10) for an entity with MBR ``box``
    spanning floors ``[lf, uf]``.

    For entities spanning several floors we minimise over staircase
    entrances on **all** floors of the span instead of only the
    lowest/highest (Eq. 10's ``lf``/``uf``) — identical for
    single-floor entities, and never above the true indoor distance.
    """
    skeleton.ensure_fresh()
    fh = skeleton.space.floor_height
    flat = box.flattened() if lf == uf else box
    if lf <= q.floor <= uf:
        return flat.min_distance_xyz(q.x, q.y, q.z(fh))
    sqs = skeleton.entrances_on_floor(q.floor)
    if not sqs:
        # No staircase on the query's floor: fall back to the plain
        # Euclidean MINDIST, which is always a valid lower bound.
        return flat.min_distance_xyz(q.x, q.y, q.z(fh))
    best = math.inf
    dqs = [q.distance(s.midpoint, fh) for s in sqs]
    for floor in range(lf, uf + 1):
        for se in skeleton.entrances_on_floor(floor):
            leg = flat.min_distance_xyz(
                se.midpoint.x, se.midpoint.y, se.midpoint.z(fh)
            )
            for dq, sq in zip(dqs, sqs):
                total = dq + skeleton.ms2s[sq.index, se.index] + leg
                if total < best:
                    best = total
    return best


def min_distance_to_point_set(
    skeleton: SkeletonTier, q: Point, instances: InstanceSet, floor: int
) -> float:
    """``|q, O|_K^min`` against an object's instances (tighter than
    the MBR version; the filtering phase's object test)."""
    skeleton.ensure_fresh()
    fh = skeleton.space.floor_height
    if q.floor == floor:
        return instances.min_distance_to(q, fh)
    sqs = skeleton.entrances_on_floor(q.floor)
    ses = skeleton.entrances_on_floor(floor)
    if not sqs or not ses:
        return instances.min_distance_to(q, fh)
    best = math.inf
    legs = [instances.min_distance_to(se.midpoint, fh) for se in ses]
    for sq in sqs:
        dq = q.distance(sq.midpoint, fh)
        for se, leg in zip(ses, legs):
            total = dq + skeleton.ms2s[sq.index, se.index] + leg
            if total < best:
                best = total
    return best


def node_bound(
    index: CompositeIndex,
    q: Point,
    box: Box3,
    lf: int,
    uf: int,
    use_skeleton: bool,
) -> float:
    """The walk's bound for an entry with MBR ``box`` over floors
    ``[lf, uf]``: the skeleton distance, or — ``use_skeleton=False`` —
    the plain Euclidean MINDIST."""
    if use_skeleton:
        return min_distance_to_box(index.skeleton, q, box, lf, uf)
    fh = index.space.floor_height
    # Flattening (dropping the 1 cm vertical extent) is only valid
    # for single-floor boxes; a multi-floor node's z-range must stay
    # intact or upper floors would be wrongly pruned.
    flat = box.flattened() if lf == uf else box
    return flat.min_distance_xyz(q.x, q.y, q.z(fh))


def range_search_tree(
    index: CompositeIndex, q: Point, r: float, use_skeleton: bool = True
) -> RangeSearchResult:
    """Algorithm 4 as the paper states it: a stack walk over the
    indR-tree with per-entry bounds.  The reference the columnar
    :meth:`~repro.index.composite.CompositeIndex.range_search` is held
    to (same candidates, same partitions), and the source of
    ``nodes_visited`` for the index-cost figure (Figure 15)."""
    result = RangeSearchResult()
    fh = index.space.floor_height
    indr = index.indr
    seen_objects: set[str] = set()
    stack = [indr.root]
    while stack:
        node = stack.pop()
        result.nodes_visited += 1
        if node.is_leaf:
            for entry in node.entries:
                unit: IndexUnit = entry.item
                result.units_checked += 1
                if node_bound(index, q, entry.box, unit.floor, unit.floor,
                              use_skeleton) > r:
                    continue
                result.partitions.add(unit.partition_id)
                for object_id in index.columns.objects_in(unit.unit_id):
                    if object_id in seen_objects:
                        continue
                    obj = index.population.get(object_id)
                    if use_skeleton:
                        d = min_distance_to_point_set(
                            index.skeleton, q, obj.instances, obj.floor
                        )
                    else:
                        d = obj.instances.min_distance_to(q, fh)
                    if d <= r:
                        seen_objects.add(object_id)
                        result.objects.append(obj)
            continue
        for entry in node.entries:
            child = entry.child
            lf, uf = indr.node_floor_span(child)
            if node_bound(index, q, entry.box, lf, uf, use_skeleton) <= r:
                stack.append(child)
    return result


def resolve_units(index: CompositeIndex, obj: UncertainObject) -> set[str]:
    """Index units overlapping the object's uncertainty region, by
    indR-tree search (empty off the map) — the reference for the set
    the batched write records
    (:meth:`repro.index.columns.ObjectColumns.stage`)."""
    units = index.indr.units_overlapping_rect(obj.bounds(), obj.floor)
    return {u.unit_id for u in units}
