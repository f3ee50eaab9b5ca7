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
  5, Eq. 8) of a multi-partition object, over
  :func:`probabilistic_pair`, the one list-based body the batched
  prune calls too: split the expectation at a
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
    parts by their own extrema (:func:`probabilistic_pair` over the
    subregions' columns)."""
    if not stats:
        raise QueryError("no subregions to bound")
    return DistanceInterval(
        *probabilistic_pair(
            [s.tmin for s in stats],
            [s.tmax for s in stats],
            [s.mass for s in stats],
            0,
            len(stats),
        )
    )


def probabilistic_pair(
    tmin: list[float], tmax: list[float], mass: list[float], a: int, b: int
) -> tuple[float, float]:
    """Eq. 8's ``(lower, upper)`` over the subregion rows ``a : b`` of
    three parallel float lists — the one body behind
    :func:`probabilistic_bounds` and the batched
    :meth:`~repro.distances.batch.BoundsRow.pair`.

    ``E = E_prefix * p_hat + E_suffix * (1 - p_hat)`` with
    ``E_prefix >= min prefix tmin``, ``E_suffix >= suffix tmin`` (and
    symmetrically for the upper bound).  The ``i = 0`` split recovers
    the plain topological bounds, so this never loses tightness.  The
    rows are sorted stably by ``tmin``; each conditional below is the
    two-argument ``min`` / ``max`` it replaces, a tie keeping the
    running value.
    """
    order = sorted(range(a, b), key=tmin.__getitem__)
    lows = [tmin[i] for i in order]
    highs = [tmax[i] for i in order]
    masses = [mass[i] for i in order]
    m = b - a
    total_mass = sum(masses)
    suffix_min = [0.0] * m
    suffix_max = [0.0] * m
    running_min, running_max = math.inf, -math.inf
    for i in range(m - 1, -1, -1):
        lo, hi = lows[i], highs[i]
        running_min = lo if lo < running_min else running_min
        running_max = hi if hi > running_max else running_max
        suffix_min[i] = running_min
        suffix_max[i] = running_max
    best_lo = suffix_min[0]  # i = 0 split: plain topological LB
    best_hi = suffix_max[0]
    prefix_min, prefix_max = math.inf, -math.inf
    p_hat = 0.0
    for i in range(m - 1):
        p_hat += masses[i] / total_mass
        lo, hi, rest = lows[i], highs[i], 1.0 - p_hat
        prefix_min = lo if lo < prefix_min else prefix_min
        prefix_max = hi if hi > prefix_max else prefix_max
        # ``0 * inf = 0``: a zero-mass part adds nothing, however far.
        lo = (0.0 if p_hat == 0.0 else p_hat * prefix_min) + (
            0.0 if rest == 0.0 else rest * suffix_min[i + 1]
        )
        hi = (0.0 if p_hat == 0.0 else p_hat * prefix_max) + (
            0.0 if rest == 0.0 else rest * suffix_max[i + 1]
        )
        best_lo = lo if lo > best_lo else best_lo
        best_hi = hi if hi < best_hi else best_hi
    return best_lo, best_hi if best_hi > best_lo else best_lo
