"""Additive-weighted bisectors between two doors (Section II-C.2).

For the single-partition *multi-path* distance the solution space is the
Additive Weighted Voronoi Diagram of the partition's doors: door ``d_i``
carries the weight ``w_i = |q, d_i|_I``, and an instance ``s`` is served by
the door minimising ``w_i + |s, d_i|_E``.  The boundary between the
regions of two doors is the *weighted bisector* (Eq. 5)::

    b_ij = { p : |p, d_i|_E + w_i = |p, d_j|_E + w_j }

Its shape follows Table II of the paper:

=============  ==========================================================
shape          condition
=============  ==========================================================
straight line  ``w_i == w_j`` (the classical perpendicular bisector)
hyperbola      ``w_i != w_j`` and neither door dominates the partition
null           one door dominates: its weighted distance is smaller for
               every point (the paper states this via the partition's
               ``|d, P|_E^max`` radii; we use the exact dominance test
               ``|w_i - w_j| >= |d_i, d_j|_E``, which is the triangle-
               inequality form of the same criterion)
=============  ==========================================================

The bisector object also offers exact point-side tests, which is what
the bisector route of
:func:`repro.reference.expected.classify_subregion_paths` consumes: if
all of an object's instances fall on one side, the single-path formula
(Eq. 3) applies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError


class BisectorShape(enum.Enum):
    """Shape of a weighted bisector per Table II."""

    LINE = "line"
    HYPERBOLA = "hyperbola"
    NULL = "null"


class Side(enum.IntEnum):
    """Which door serves a point."""

    I_SIDE = -1  # door d_i is (weakly) better
    J_SIDE = 1  # door d_j is (weakly) better


@dataclass(frozen=True)
class WeightedBisector:
    """The weighted bisector between doors ``d_i`` and ``d_j``.

    Parameters
    ----------
    di, dj:
        Planar door midpoints ``(x, y)``.
    wi, wj:
        Additive weights — the indoor distances ``|q, d|_I`` from the
        query point to each door.
    """

    di: tuple[float, float]
    dj: tuple[float, float]
    wi: float
    wj: float

    def __post_init__(self) -> None:
        if self.wi < 0.0 or self.wj < 0.0:
            raise GeometryError("bisector weights must be non-negative")

    @property
    def focal_distance(self) -> float:
        """``|d_i, d_j|_E`` — the distance between the two foci."""
        return math.hypot(
            self.di[0] - self.dj[0], self.di[1] - self.dj[1]
        )

    @property
    def shape(self) -> BisectorShape:
        """Classify per Table II (see module docstring)."""
        c = self.focal_distance
        if abs(self.wi - self.wj) >= c - 1e-12:
            # One door dominates everywhere (including the degenerate case
            # of coincident doors with different weights).
            if abs(self.wi - self.wj) < 1e-12:
                # coincident doors, equal weights: bisector is everywhere;
                # treat as NULL because the doors are interchangeable.
                return BisectorShape.NULL
            return BisectorShape.NULL
        if self.wi == self.wj:
            return BisectorShape.LINE
        return BisectorShape.HYPERBOLA

    # -- point-side tests ----------------------------------------------------

    def split_points(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised side test for an ``(n, 2)`` array of points.

        Returns boolean masks ``(served_by_i, served_by_j)``; points on the
        bisector count for both (the min is the same either way).
        """
        xy = np.asarray(xy, dtype=float)
        gi = self.wi + np.hypot(xy[:, 0] - self.di[0], xy[:, 1] - self.di[1])
        gj = self.wj + np.hypot(xy[:, 0] - self.dj[0], xy[:, 1] - self.dj[1])
        return gi <= gj, gj <= gi

    def single_side(self, xy: np.ndarray) -> Side | None:
        """If every point lies (weakly) on one door's side, return that
        side; otherwise ``None`` (the object straddles the bisector)."""
        on_i, on_j = self.split_points(xy)
        if bool(np.all(on_i)):
            return Side.I_SIDE
        if bool(np.all(on_j)):
            return Side.J_SIDE
        return None
