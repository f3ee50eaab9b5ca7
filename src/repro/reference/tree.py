"""The indR-tree, Algorithm 4 as the paper states it, and Lemma 6 one
entity at a time.

The system's RangeSearch (:meth:`repro.index.composite.CompositeIndex.
range_search`) evaluates the leaf criterion for every index unit and
object at once over the columnar table
(:meth:`repro.index.columns.ObjectColumns.search`), and its writes
resolve an object's index units in one array pass.  The scalar forms
here are what those are held to:

* :class:`IndRTree` — the paper's tree tier (Section III-A.2): an
  STR-packed :class:`~repro.reference.rstar.RStarTree` over a unit
  list, with the 1 cm vertical-extent trick (:func:`unit_box`).  No
  run path builds one; :meth:`IndRTree.of` packs one over an index's
  units on demand;
* :func:`range_search_tree` — the stack walk over the indR-tree with
  per-entry bounds: the same candidates and partitions, plus the
  number of tree nodes it read;
* :func:`resolve_units` — an object's index units by indR-tree search,
  the set every write records;
* the skeleton distance (Definition 2) and its entity forms (Eq. 10)
  over the :class:`~repro.index.skeleton.SkeletonTier`'s ``M_s2s``,
  each leaving q's floor by one of :func:`first_hops` — or, on a floor
  of a staircase ``q`` stands in (:func:`shaft_floors`), the smaller
  of that and the Euclidean distance, since a path may stay inside the
  shaft; and for an entity a staircase's footprint touches, the
  smaller of that and the reach of any of that staircase's entrances
  (:func:`shaft_entrance_reach`), since a path may enter the shaft on
  another floor: each lower-bounds the indoor distance (Lemma 6).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable

from repro.geometry.point import Point
from repro.geometry.rect import Box3, Rect
from repro.index.composite import CompositeIndex, RangeSearchResult
from repro.index.indr import IndexUnit
from repro.index.skeleton import Entrance, SkeletonTier
from repro.objects.instances import InstanceSet
from repro.objects.uncertain import UncertainObject
from repro.reference.bulk import str_bulk_load
from repro.reference.rstar import DEFAULT_FANOUT, TreeNode


def unit_box(unit: IndexUnit, floor_height: float) -> Box3:
    """A unit as the tree stores it: a 3-D box 1 cm tall — enough for
    the R*-tree's volume heuristics, negligible for distances (the walk
    treats a single-floor box as a 2-D rectangle at floor elevation
    via :meth:`Box3.flattened`)."""
    return Box3.from_rect(unit.rect, unit.floor, floor_height)


#: index -> (its unit ids when the tree was packed, the tree).
_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class IndRTree:
    """An STR-packed R*-tree over index units (the paper's indR-tree)."""

    def __init__(
        self,
        units: Iterable[IndexUnit],
        floor_height: float,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        self.floor_height = floor_height
        self.units = {unit.unit_id: unit for unit in units}
        self.tree = str_bulk_load(
            [(u, unit_box(u, floor_height)) for u in self.units.values()],
            fanout=fanout,
        )

    @staticmethod
    def of(index: CompositeIndex) -> "IndRTree":
        """The tree over ``index.units``, packed on first use and again
        whenever the unit list has changed since (unit ids are never
        reused, so the ids name the content)."""
        stamp = tuple(index.units)
        cached = _TREES.get(index)
        if cached is None or cached[0] != stamp:
            tree = IndRTree(index.units.values(), index.space.floor_height)
            cached = _TREES[index] = (stamp, tree)
        return cached[1]

    @property
    def root(self) -> TreeNode:
        return self.tree.root

    def locate_point(self, p: Point) -> IndexUnit | None:
        """Point location through the tree (the paper's r = 0
        degenerate range query): the first unit the walk meets that
        contains ``p``."""
        z = p.floor * self.floor_height
        probe = Box3(p.x, p.y, z, p.x, p.y, z + 0.005)
        for unit in self.tree.items_in_box(probe):
            if unit.contains_point(p):
                return unit
        return None

    def units_overlapping_rect(
        self, rect: Rect, floor: int
    ) -> list[IndexUnit]:
        z = floor * self.floor_height
        probe = Box3(rect.minx, rect.miny, z, rect.maxx, rect.maxy, z + 0.005)
        return [
            u for u in self.tree.items_in_box(probe)
            if u.floor == floor and u.rect.intersects(rect)
        ]

    def node_floor_span(self, node: TreeNode) -> tuple[int, int]:
        """``[e.lf, e.uf]`` of a tree node, from its box's z-range."""
        box = node.box
        lf = int(math.floor(box.minz / self.floor_height + 1e-9))
        uf = int(math.floor((box.maxz - 0.005) / self.floor_height + 1e-9))
        return lf, max(lf, uf)

    def __len__(self) -> int:
        return len(self.tree)


@dataclass
class TreeSearchResult(RangeSearchResult):
    """:class:`RangeSearchResult` plus the tree nodes the walk read."""

    nodes_visited: int = 0


def first_hops(skeleton: SkeletonTier, q: Point) -> list[Entrance]:
    """The entrances a path from ``q`` to another floor can reach
    first: those on q's floor and, when ``q`` stands inside a
    staircase, every entrance of that staircase (a path may leave it
    on any floor).  Empty when q's floor has no entrance."""
    hops = list(skeleton.entrances_on_floor(q.floor))
    if hops:
        for stair in skeleton.space.staircases():
            if stair.contains_point(q):
                hops += [
                    e
                    for e in skeleton.entrances
                    if e.staircase_id == stair.partition_id
                    and e.floor != q.floor
                ]
    return hops


def shaft_floors(skeleton: SkeletonTier, q: Point) -> set[int]:
    """The floors other than q's that a staircase containing ``q``
    spans: a path may reach them without leaving the shaft, so there
    the Euclidean distance bounds it too (and an entity's bound is the
    smaller of that and the skeleton's)."""
    return {
        floor
        for stair in skeleton.space.staircases()
        if stair.contains_point(q)
        for floor in range(stair.floor, stair.upper_floor + 1)
        if floor != q.floor
    }


def shaft_entrance_reach(
    skeleton: SkeletonTier,
    sqs: list[Entrance],
    dqs: list[float],
    rect: tuple[float, float, float, float],
    lf: int,
    uf: int,
    closed: bool,
) -> float:
    """The least skeleton reach from ``q`` (first hops ``sqs`` at
    Euclidean ``dqs``) of an entrance of a staircase whose footprint
    overlaps ``rect`` (``minx, miny, maxx, maxy``; touching counts
    when ``closed`` — an object's instance box, whose instance on the
    wall may belong to the shaft — and only interior overlap when
    not — a unit or a tree node, since a unit only touching the wall
    is a neighbour's) on a floor of ``[lf, uf]`` it spans: a point
    inside such a shaft is reached from any of its entrances, on
    whatever floor, not only from those on its own floor.  ``+inf``
    when no staircase qualifies (or ``sqs`` is empty)."""
    minx, miny, maxx, maxy = rect
    best = math.inf
    if not sqs:
        return best
    for stair in skeleton.space.staircases():
        b = stair.bounds
        if stair.upper_floor < lf or stair.floor > uf:
            continue
        if closed:
            apart = (
                minx > b.maxx
                or maxx < b.minx
                or miny > b.maxy
                or maxy < b.miny
            )
        else:
            apart = (
                minx >= b.maxx
                or maxx <= b.minx
                or miny >= b.maxy
                or maxy <= b.miny
            )
        if apart:
            continue
        for se in skeleton.entrances:
            if se.staircase_id != stair.partition_id:
                continue
            reach = min(
                dq + skeleton.ms2s[sq.index, se.index]
                for dq, sq in zip(dqs, sqs)
            )
            best = min(best, reach)
    return best


def skeleton_distance(skeleton: SkeletonTier, q: Point, p: Point) -> float:
    """``|q, p|_K`` (Definition 2).

    Same floor: plain Euclidean.  Different floors: best combination
    of a first hop from ``q`` (:func:`first_hops`), the ``M_s2s`` hop,
    and an entrance near ``p``.  Infinite when either floor has no
    staircase access.
    """
    skeleton.ensure_fresh()
    fh = skeleton.space.floor_height
    if q.floor == p.floor:
        return q.distance(p, fh)
    best = math.inf
    if p.floor in shaft_floors(skeleton, q):
        best = q.distance(p, fh)
    sqs = first_hops(skeleton, q)
    dqs = [q.distance(sq.midpoint, fh) for sq in sqs]
    point = (p.x, p.y, p.x, p.y)
    best = min(
        best,
        shaft_entrance_reach(
            skeleton, sqs, dqs, point, p.floor, p.floor, True
        ),
    )
    for sq, dq in zip(sqs, dqs):
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
    sqs = first_hops(skeleton, q)
    if not sqs:
        # No staircase on the query's floor: fall back to the plain
        # Euclidean MINDIST, which is always a valid lower bound.
        return flat.min_distance_xyz(q.x, q.y, q.z(fh))
    best = math.inf
    if not shaft_floors(skeleton, q).isdisjoint(range(lf, uf + 1)):
        best = flat.min_distance_xyz(q.x, q.y, q.z(fh))
    dqs = [q.distance(s.midpoint, fh) for s in sqs]
    rect = (box.minx, box.miny, box.maxx, box.maxy)
    best = min(
        best, shaft_entrance_reach(skeleton, sqs, dqs, rect, lf, uf, False)
    )
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
    sqs = first_hops(skeleton, q)
    ses = skeleton.entrances_on_floor(floor)
    if not sqs or not ses:
        return instances.min_distance_to(q, fh)
    best = math.inf
    if floor in shaft_floors(skeleton, q):
        best = instances.min_distance_to(q, fh)
    lo, hi = instances.xy.min(axis=0), instances.xy.max(axis=0)
    rect = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
    dqs = [q.distance(sq.midpoint, fh) for sq in sqs]
    best = min(
        best,
        shaft_entrance_reach(skeleton, sqs, dqs, rect, floor, floor, True),
    )
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
) -> TreeSearchResult:
    """Algorithm 4 as the paper states it: a stack walk over the
    indR-tree (:meth:`IndRTree.of`) with per-entry bounds.  The
    reference the columnar
    :meth:`~repro.index.composite.CompositeIndex.range_search` is held
    to (same candidates, same partitions); it also counts the nodes it
    read."""
    result = TreeSearchResult()
    fh = index.space.floor_height
    indr = IndRTree.of(index)
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
    units = IndRTree.of(index).units_overlapping_rect(obj.bounds(), obj.floor)
    return {u.unit_id for u in units}
