"""The exact expected indoor distance ``|q, O|_I`` (Section II-B/C).

Definition 1: ``|q, O|_I = E[|q, s_i|_I] = sum_i |q, s_i|_I * p_i``.

Three cases (Section II-C):

1. **single-partition single-path** (Eq. 3) — every shortest path
   ``q ~> s_i`` enters the partition through the same last door ``d``,
   so ``|q, O|_I = |q, d|_I + E[|d, s_i|_E]``;
2. **single-partition multi-path** (Eq. 4) — different instances are
   served by different doors; the per-door service regions form an
   additive weighted Voronoi diagram whose boundaries are the weighted
   bisectors of Table II;
3. **multi-partition** (Eq. 6) — sum the per-subregion expectations
   weighted by subregion mass.

The door weights ``w_d = |q, d|_I`` come from a single-source Dijkstra
(:class:`repro.space.doors_graph.DoorDistances`), so one graph search
serves every object in a query.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.bisector import WeightedBisector
from repro.geometry.point import Point
from repro.objects.uncertain import Subregion, UncertainObject
from repro.space.doors_graph import DoorDistances
from repro.space.floorplan import IndoorSpace


class DistanceCase(enum.Enum):
    """Which of the paper's three distance cases applied."""

    SINGLE_PARTITION_SINGLE_PATH = "single-partition single-path"
    SINGLE_PARTITION_MULTI_PATH = "single-partition multi-path"
    MULTI_PARTITION = "multi-partition"


@dataclass(frozen=True)
class ExactDistance:
    """The exact expected indoor distance plus provenance."""

    value: float
    case: DistanceCase
    #: (partition_id, expected contribution, subregion mass) per subregion.
    per_subregion: tuple[tuple[str, float, float], ...] = field(default=())

    @property
    def is_reachable(self) -> bool:
        return math.isfinite(self.value)


def subregion_door_weights(
    subregion: Subregion,
    dd: DoorDistances,
    space: IndoorSpace,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Entry doors of the subregion's partition with their weights.

    Returns ``(door_ids, weights, door_instance_matrix)`` where
    ``weights[k] = |q, d_k|_I`` and the matrix holds
    ``|d_k, s_i|_E`` for every door/instance pair.
    """
    pid = subregion.partition_id
    doors = space.entry_doors(pid)
    instances = subregion.instances
    door_ids: list[str] = []
    weights: list[float] = []
    rows: list[np.ndarray] = []
    for door in doors:
        w = dd.distance_to(door.door_id)
        if not math.isfinite(w):
            continue
        door_ids.append(door.door_id)
        weights.append(w)
        rows.append(instances.distances_to(door.midpoint, space.floor_height))
    if rows:
        matrix = np.vstack(rows)
    else:
        matrix = np.empty((0, len(instances)))
    return door_ids, np.asarray(weights), matrix


def _subregion_paths(
    q: Point, subregion: Subregion, dd: DoorDistances, space: IndoorSpace
) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """``(door_ids, totals, direct)`` for one subregion, built once for
    whoever needs the paths' ``min`` (the distances) or ``argmin`` (the
    serving doors): ``totals[k, i] = |q, d_k|_I + |d_k, s_i|_E`` over
    the reached entry doors, and ``direct[i] = |q, s_i|_E`` when the
    subregion lies in the query's own partition (else ``None``)."""
    door_ids, weights, matrix = subregion_door_weights(subregion, dd, space)
    direct = None
    if subregion.partition_id == dd.source_partition:
        direct = subregion.instances.distances_to(q, space.floor_height)
    return door_ids, weights[:, None] + matrix, direct


def _shortest(totals: np.ndarray, direct: np.ndarray | None) -> np.ndarray:
    """Eq. 1 per instance: the best door, or the direct path."""
    if totals.shape[0]:
        via_doors = totals.min(axis=0)
    else:
        via_doors = np.full(totals.shape[1], np.inf)
    return via_doors if direct is None else np.minimum(via_doors, direct)


def _servers(
    door_ids: list[str], totals: np.ndarray, direct: np.ndarray | None
) -> list[str | None]:
    """The door behind each instance's :func:`_shortest` path; ``None``
    where the direct path is no longer — which, as in Eq. 1's ``min``,
    includes an instance nothing reaches."""
    best = _shortest(totals, None)
    if door_ids:
        out = np.array(door_ids, dtype=object)[totals.argmin(axis=0)]
    else:
        out = np.full(len(best), None, dtype=object)
    out[(np.inf if direct is None else direct) <= best] = None
    return out.tolist()


def instance_indoor_distances(
    q: Point,
    subregion: Subregion,
    dd: DoorDistances,
    space: IndoorSpace,
) -> np.ndarray:
    """``|q, s_i|_I`` for every instance of one subregion.

    Each instance takes the best serving door (Eq. 1); instances in the
    query's own partition may also take the direct in-partition path.
    Unreachable instances get ``inf``.
    """
    _door_ids, totals, direct = _subregion_paths(q, subregion, dd, space)
    return _shortest(totals, direct)


def serving_doors(
    q: Point,
    subregion: Subregion,
    dd: DoorDistances,
    space: IndoorSpace,
) -> list[str | None]:
    """Which door serves each instance (``None`` = the direct path).

    This is the explicit additive-weighted-Voronoi cell assignment; used
    for case classification and by the bisector tests.
    """
    return _servers(*_subregion_paths(q, subregion, dd, space))


def classify_subregion_paths(
    q: Point,
    subregion: Subregion,
    dd: DoorDistances,
    space: IndoorSpace,
    use_bisectors: bool = False,
) -> bool:
    """True when the subregion is *single-path* (Eq. 3 applies).

    The default (argmin) test is exact.  With ``use_bisectors=True`` the
    decision follows the paper's implementation sketch instead: build
    the weighted bisector of every door pair and require all instances
    (weakly) on one side.  That test is *conservative*: a straddled
    bisector between two non-serving doors makes it answer "multi-path"
    even when a third door dominates both — exactly the situation where
    the paper says "if the object intersects with the bisector, we
    check all its instances" (i.e. falls back to the argmin test).
    Hence ``use_bisectors=True -> True`` implies the argmin answer is
    also True, but not conversely.
    """
    if not use_bisectors:
        doors = set(serving_doors(q, subregion, dd, space))
        return len(doors) <= 1

    door_ids, weights, _matrix = subregion_door_weights(subregion, dd, space)
    if subregion.partition_id == dd.source_partition:
        # The direct path acts as an extra pseudo-door at q with weight 0.
        door_ids = door_ids + ["__direct__"]
        weights = np.append(weights, 0.0)
        midpoints = [
            space.door(d).midpoint for d in door_ids[:-1]
        ] + [q]
    else:
        midpoints = [space.door(d).midpoint for d in door_ids]
    if len(door_ids) <= 1:
        return True
    xy = subregion.instances.xy
    # Single-path iff no pairwise bisector is straddled: whenever every
    # instance lies (weakly) on one door's side for every pair, one door
    # serves the whole subregion (ties cost the same either way).
    for i in range(len(door_ids)):
        for j in range(i + 1, len(door_ids)):
            bis = WeightedBisector(
                midpoints[i].xy(), midpoints[j].xy(),
                float(weights[i]), float(weights[j]),
            )
            if bis.single_side(xy) is None:
                return False
    return True


def expected_indoor_distance(
    q: Point,
    obj: UncertainObject,
    dd: DoorDistances,
    space: IndoorSpace,
    grid=None,
) -> ExactDistance:
    """The exact expected indoor distance ``|q, O|_I`` (Eqs. 2-6).

    ``dd`` must be a :class:`DoorDistances` computed from ``q`` (the
    subgraph phase's Dijkstra); it may be restricted to candidate
    partitions as long as those cover every path shorter than any bound
    being compared against (the query processors guarantee this).
    """
    subregions = obj.subregions(space, grid)
    contributions: list[tuple[str, float, float]] = []
    total = 0.0
    single_path = True
    for subregion in subregions:
        door_ids, totals, direct = _subregion_paths(q, subregion, dd, space)
        dists = _shortest(totals, direct)
        contrib = float((dists * subregion.instances.probs).sum())
        if not np.isfinite(dists).all():
            contrib = math.inf
        contributions.append((subregion.partition_id, contrib, subregion.mass))
        total += contrib
        if len(subregions) == 1:
            # Eq. 3 vs Eq. 4, from the totals already built.
            single_path = len(set(_servers(door_ids, totals, direct))) <= 1
    if len(subregions) > 1:
        case = DistanceCase.MULTI_PARTITION
    elif single_path:
        case = DistanceCase.SINGLE_PARTITION_SINGLE_PATH
    else:
        case = DistanceCase.SINGLE_PARTITION_MULTI_PATH
    return ExactDistance(total, case, tuple(contributions))


def qualifying_probability(
    q: Point,
    obj: UncertainObject,
    dd: DoorDistances,
    space: IndoorSpace,
    r: float,
    grid=None,
) -> float:
    """Exact ``Pr(|q, s|_I <= r)`` for one object: the total mass of
    instances whose indoor distance is within ``r`` — the scalar
    reference of the iPRQ refinement
    (:func:`repro.distances.batch.block_expected_distances` with ``r``)."""
    total = 0.0
    for subregion in obj.subregions(space, grid):
        dists = instance_indoor_distances(q, subregion, dd, space)
        total += float(subregion.instances.probs[dists <= r].sum())
    return total
