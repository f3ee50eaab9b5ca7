"""Pruning intervals for expected indoor distances (Section II-D).

The query processors prune objects by interval arithmetic instead of
exact evaluation.  The bounds kernel
(:func:`repro.distances.batch.block_object_bounds`) computes every
subregion's topological extrema ``tmin`` / ``tmax`` (Lemmas 1-2);
this module holds what a pair's interval is assembled from:

* :class:`DistanceInterval` — ``[lower, upper]`` and its two
  decisions;
* :class:`SubregionStats` — one subregion's ``tmin`` / ``tmax`` and
  mass;
* :func:`probabilistic_bounds` — the **probabilistic bounds** (Lemma
  5, Eq. 8) of a multi-partition object: split the expectation at a
  prefix of subregions sorted by minimum distance and bound each part.
  As printed, the paper's Lemma 5 assumes the prefix/suffix distance
  ranges separate; we implement the always-valid refinement (prefix
  bounded by its own extrema, suffix by its own) which degenerates to
  the topological bounds exactly as the paper notes — see DESIGN.md.

The per-pair scalar forms of the rest of Table III live in
:mod:`repro.reference.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import QueryError


@dataclass(frozen=True)
class DistanceInterval:
    """``[lower, upper]`` enclosing an (expected) indoor distance."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-9:
            raise QueryError(
                f"inverted interval [{self.lower}, {self.upper}]"
            )

    def entirely_within(self, r: float) -> bool:
        """The true distance is certainly <= r."""
        return self.upper <= r

    def entirely_beyond(self, r: float) -> bool:
        """The true distance is certainly > r."""
        return self.lower > r

    def intersect(self, other: "DistanceInterval") -> "DistanceInterval":
        """Combine two valid intervals into a tighter one."""
        return DistanceInterval(
            max(self.lower, other.lower), min(self.upper, other.upper)
        )


@dataclass(frozen=True)
class SubregionStats:
    """``tmin``/``tmax`` of one subregion (Lemmas 1-2 ingredients)."""

    partition_id: str
    tmin: float
    tmax: float
    mass: float


def probabilistic_bounds(stats: list[SubregionStats]) -> DistanceInterval:
    """Lemma 5: split the expectation at every prefix and bound both
    parts by their own extrema.

    ``E = E_prefix * p_hat + E_suffix * (1 - p_hat)`` with
    ``E_prefix >= min prefix tmin``, ``E_suffix >= suffix tmin`` (and
    symmetrically for the upper bound).  The ``i = 0`` split recovers
    the plain topological bounds, so this never loses tightness.
    """
    if not stats:
        raise QueryError("no subregions to bound")
    ordered = sorted(stats, key=lambda s: s.tmin)
    m = len(ordered)
    total_mass = sum(s.mass for s in ordered)
    suffix_min = [0.0] * m
    suffix_max = [0.0] * m
    running_min, running_max = math.inf, -math.inf
    for i in range(m - 1, -1, -1):
        running_min = min(running_min, ordered[i].tmin)
        running_max = max(running_max, ordered[i].tmax)
        suffix_min[i] = running_min
        suffix_max[i] = running_max
    best_lo = suffix_min[0]  # i = 0 split: plain topological LB
    best_hi = suffix_max[0]
    prefix_min, prefix_max = math.inf, -math.inf
    p_hat = 0.0
    for i in range(m - 1):
        p_hat += ordered[i].mass / total_mass
        prefix_min = min(prefix_min, ordered[i].tmin)
        prefix_max = max(prefix_max, ordered[i].tmax)
        lo_i = _mul(p_hat, prefix_min) + _mul(1.0 - p_hat, suffix_min[i + 1])
        hi_i = _mul(p_hat, prefix_max) + _mul(1.0 - p_hat, suffix_max[i + 1])
        best_lo = max(best_lo, lo_i)
        best_hi = min(best_hi, hi_i)
    return DistanceInterval(best_lo, max(best_lo, best_hi))


def _mul(mass: float, bound: float) -> float:
    """``mass * bound`` with the convention ``0 * inf = 0`` (a zero-mass
    part contributes nothing regardless of its distance)."""
    if mass == 0.0:
        return 0.0
    return mass * bound
