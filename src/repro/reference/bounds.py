"""Table III per pair: the scalar bounds the kernel is held to.

The system derives every pruning interval from arrays
(:func:`repro.distances.batch.block_object_bounds` and
:class:`~repro.distances.batch.BoundsRow`); these are the same bounds
one (query, object) pair at a time, walking subregions and entry doors
in Python:

* **Topological bounds** (Lemmas 1-2, Eq. 7): per subregion ``S``,
  ``tmin(S) = min_d (|q, d|_I + |d, S|_E^min)`` over the entry doors of
  ``S``'s partition (plus the direct path for the query's own
  partition), and symmetrically ``tmax``; then
  ``min tmin <= |q, O|_I <= max tmax``.
* **Topological Looser Upper Bound** (Lemma 3, "TLU"): like ``tmax``
  but with *some* known path length instead of the shortest — cheap to
  obtain during seed selection, used to set the kNN search radius.
* **Markov lower bound** (Lemma 4).
* **Probability bounds** of the iPRQ: the qualifying mass bounded from
  both sides by the same ``tmin`` / ``tmax``.
* **Weighted topological bounds** (extension, not in the paper):
  ``sum_j mass_j * tmin_j <= E <= sum_j mass_j * tmax_j`` — strictly
  tighter than Lemmas 1-2 whenever an object spans partitions; exposed
  for the bounds-tightness ablation benchmark.
"""

from __future__ import annotations

import math

from repro.distances.bounds import (
    DistanceInterval,
    SubregionStats,
    probabilistic_bounds,
)
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.objects.uncertain import UncertainObject
from repro.reference.subregions import Subregion, subregions
from repro.space.doors_graph import DoorDistances
from repro.space.floorplan import IndoorSpace


def subregion_stats(
    q: Point,
    subregion: Subregion,
    dd: DoorDistances,
    space: IndoorSpace,
    unreached_floor: float | None = None,
) -> SubregionStats:
    """Compute ``tmin(S)`` and ``tmax(S)`` for one subregion.

    ``tmin(S) = min_{ds} (|q, ds|_I + |ds, S|_E^min)`` and
    ``tmax(S) = min_{ds} (|q, ds|_I + |ds, S|_E^max)`` — note both take
    the *min* over doors: tmax bounds the worst instance of the best
    door.  For the query's own partition the direct Euclidean path
    participates as well.

    ``unreached_floor`` replaces an infinite ``tmin`` — a subregion no
    reached door serves — by a finite value (the upper bound stays
    infinite): the iPRQ's ``r + 1.0`` (:func:`probability_bounds`)
    says such a subregion is merely beyond ``r``.
    """
    fh = space.floor_height
    instances = subregion.instances
    tmin = math.inf
    tmax = math.inf
    for door in space.entry_doors(subregion.partition_id):
        w = dd.distance_to(door.door_id)
        if not math.isfinite(w):
            continue
        tmin = min(tmin, w + instances.min_distance_to(door.midpoint, fh))
        tmax = min(tmax, w + instances.max_distance_to(door.midpoint, fh))
    if subregion.partition_id == dd.source_partition:
        tmin = min(tmin, instances.min_distance_to(q, fh))
        tmax = min(tmax, instances.max_distance_to(q, fh))
    if not math.isfinite(tmin) and unreached_floor is not None:
        tmin = unreached_floor
    return SubregionStats(subregion.partition_id, tmin, tmax, subregion.mass)


def topological_bounds(stats: list[SubregionStats]) -> DistanceInterval:
    """Lemmas 1-2: ``min tmin <= |q, O|_I <= max tmax`` (Eq. 7 when the
    object overlaps a single partition)."""
    if not stats:
        raise QueryError("no subregions to bound")
    return DistanceInterval(
        min(s.tmin for s in stats), max(s.tmax for s in stats)
    )


def weighted_topological_bounds(stats: list[SubregionStats]) -> DistanceInterval:
    """Extension: mass-weighted per-subregion bounds (tighter than
    Lemmas 1-2 for multi-partition objects; see module docstring)."""
    if not stats:
        raise QueryError("no subregions to bound")
    total_mass = sum(s.mass for s in stats)
    lo = sum(s.tmin * s.mass for s in stats) / total_mass
    hi = sum(s.tmax * s.mass for s in stats) / total_mass
    return DistanceInterval(lo, hi)


def markov_lower_bound(stats: list[SubregionStats]) -> float:
    """Lemma 4: a prefix-mass lower bound.

    With subregions sorted by ``tmin``, at least ``1 - p_hat_i`` of the
    probability mass lies at distance >= the suffix minimum, so
    ``E >= (1 - p_hat_i) * tmin(S[i+1])``, maximised over ``i``.
    """
    if not stats:
        raise QueryError("no subregions to bound")
    ordered = sorted(stats, key=lambda s: s.tmin)
    total_mass = sum(s.mass for s in ordered)
    best = ordered[0].tmin * 0.0  # E >= 0 trivially
    p_hat = 0.0
    for i in range(len(ordered) - 1):
        p_hat += ordered[i].mass / total_mass
        best = max(best, (1.0 - p_hat) * ordered[i + 1].tmin)
    return best


def object_bounds(
    q: Point,
    obj: UncertainObject,
    dd: DoorDistances,
    space: IndoorSpace,
    grid=None,
    use_probabilistic: bool = True,
    unreached_floor: float | None = None,
) -> DistanceInterval:
    """The pruning interval for one object, per Table III — what
    :meth:`~repro.distances.batch.BoundsRow.interval` returns.

    Single-partition objects get the topological bounds (Eq. 7);
    multi-partition objects get the probabilistic bounds (Eq. 8), which
    degenerate to topological when subregion ranges overlap completely.
    ``unreached_floor`` — see :func:`subregion_stats`.
    """
    stats = [
        subregion_stats(q, s, dd, space, unreached_floor=unreached_floor)
        for s in subregions(obj, space, grid)
    ]
    if len(stats) == 1 or not use_probabilistic:
        return topological_bounds(stats)
    return probabilistic_bounds(stats)


def topological_looser_upper_bound(
    q: Point,
    obj: UncertainObject,
    known_paths: dict[str, tuple[Point, float]],
    space: IndoorSpace,
    grid=None,
) -> float:
    """Lemma 3 (TLU): an upper bound from *some* known path per
    partition, no shortest-path computation required — what
    :meth:`repro.queries.knn.SeedExpansion.seed_upper_bounds` gathers
    from the index's table.

    ``known_paths`` maps a partition id to ``(arrival_door_midpoint,
    path_length)`` — any valid path from ``q`` to that door (e.g. the
    greedy expansion of kSeedsSelection).  The bound is
    ``max_S (path_length + |arrival, S|_E^max)``; infinite when some
    subregion's partition has no known path.
    """
    fh = space.floor_height
    worst = 0.0
    for subregion in subregions(obj, space, grid):
        entry = known_paths.get(subregion.partition_id)
        if entry is None:
            return math.inf
        arrival, length = entry
        worst = max(
            worst,
            length + subregion.instances.max_distance_to(arrival, fh),
        )
    return worst


def probability_bounds(
    index, q: Point, obj, dd, r: float
) -> tuple[float, float]:
    """Bounds on the qualifying probability from subregion stats — what
    :meth:`~repro.distances.batch.BoundsRow.probability` returns.

    A subregion with ``tmax <= r`` contributes all its mass to the
    lower bound; one with ``tmin > r`` contributes nothing to the upper
    bound.  (``tmax`` is the best door's worst instance, so
    ``tmax <= r`` proves every instance of the subregion qualifies.)
    """
    lo = 0.0
    hi = 0.0
    for subregion in subregions(obj, index.space, index.population.grid):
        stats = subregion_stats(q, subregion, dd, index.space,
                                unreached_floor=r + 1.0)
        if stats.tmax <= r:
            lo += subregion.mass
            hi += subregion.mass
        elif stats.tmin <= r:
            hi += subregion.mass
    return lo, hi
