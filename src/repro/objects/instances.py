"""Numpy-backed instance sets.

All per-instance math in the library (distance to a door over 100
instances, expectation over probabilities) is vectorised over these
arrays, which is what keeps the pure-Python reproduction usable at the
paper's object counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


def checked_mass(probs: np.ndarray) -> float:
    """``probs.sum()``, required to be a probability mass.  A full
    object's instances sum to 1; a subregion's to its share of the mass
    (Eq. 6 needs the raw p_i, not renormalised ones)."""
    return check_mass(float(probs.sum()))


def _sealed(values) -> np.ndarray:
    """``values`` as a read-only float64 array no caller can write: an
    array ``np.asarray`` made afresh is frozen, one read-only down its
    base chain is kept, and any other — a writeable array the caller
    still holds, or a view of one — is copied first."""
    out = np.asarray(values, dtype=np.float64)
    if not out.flags.writeable:
        base = out.base
        while isinstance(base, np.ndarray):
            if base.flags.writeable:
                break
            base = base.base
        else:
            return out
    if out is values or out.base is not None:
        out = out.copy()
    out.flags.writeable = False
    return out


def check_mass(total: float) -> float:
    """``total``, required to be a probability mass in ``(0, 1]`` (a
    NaN is none: it fails both comparisons)."""
    if not 0.0 < total <= 1.0 + 1e-6:
        raise ReproError(f"probability mass must be in (0, 1], got {total}")
    return total


@dataclass(frozen=True)
class InstanceSet:
    """A discrete location distribution ``{(s_i, p_i)}``.

    Attributes
    ----------
    xy:
        ``(n, 2)`` float array of planar instance coordinates.
    floor:
        The floor all instances lie on (uncertainty regions are planar:
        a positioning reader covers one floor).
    probs:
        ``(n,)`` float array of existential probabilities, summing to 1.

    Both arrays are read-only and the set's own (a writeable array
    passed in is copied, never frozen under its holder): the index's
    table and every block read them by reference, by position, so a
    write after indexing would split the index from the object.  A new
    location is a new set.
    """

    xy: np.ndarray
    floor: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        xy = _sealed(self.xy)
        probs = _sealed(self.probs)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ReproError(f"xy must be (n, 2), got {xy.shape}")
        if probs.shape != (xy.shape[0],):
            raise ReproError("probs shape must match number of instances")
        if xy.shape[0] == 0:
            raise ReproError("an instance set cannot be empty")
        if not np.isfinite(xy).all():
            raise ReproError("instance coordinates must be finite")
        if not np.isfinite(probs).all():
            raise ReproError("probabilities must be finite")
        if np.any(probs < 0):
            raise ReproError("probabilities must be non-negative")
        checked_mass(probs)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "probs", probs)

    # ------------------------------------------------------------------

    @staticmethod
    def uniform(xy: np.ndarray, floor: int) -> "InstanceSet":
        """Equal-probability instances (the paper's sampling-point pdf)."""
        xy = np.asarray(xy, dtype=float)
        n = xy.shape[0]
        return InstanceSet(xy, floor, np.full(n, 1.0 / n))

    @staticmethod
    def single(point: Point) -> "InstanceSet":
        """A certain (point) object — handy in tests."""
        return InstanceSet(
            np.array([[point.x, point.y]]), point.floor, np.array([1.0])
        )

    def __len__(self) -> int:
        return int(self.xy.shape[0])

    def subset(self, mask_or_idx: np.ndarray) -> "InstanceSet":
        """Instances selected by boolean mask or index array.

        Probabilities are *not* renormalised: a subregion keeps its
        share of the total mass (Eq. 6 needs the raw ``p_i``).
        """
        return InstanceSet(
            self.xy[mask_or_idx], self.floor, self.probs[mask_or_idx]
        )

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------

    @property
    def mass(self) -> float:
        """Total probability of this (sub)set."""
        return float(self.probs.sum())

    def bounds(self) -> Rect:
        """Planar bounding rectangle of the instances."""
        mins = self.xy.min(axis=0)
        maxs = self.xy.max(axis=0)
        return Rect(float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))

    def mean(self) -> Point:
        """Probability-weighted mean location."""
        m = self.mass
        if m <= 0:
            raise ReproError("cannot average a zero-mass instance set")
        w = (self.probs / m)[:, None]
        cx, cy = (self.xy * w).sum(axis=0)
        return Point(float(cx), float(cy), self.floor)

    # ------------------------------------------------------------------
    # distances (all planar + vertical leg, vectorised)
    # ------------------------------------------------------------------

    def distances_to(self, p: Point, floor_height: float) -> np.ndarray:
        """``|s_i, p|_E`` for every instance (n,) array."""
        d2 = ((self.xy - np.array([p.x, p.y])) ** 2).sum(axis=1)
        dz = (self.floor - p.floor) * floor_height
        if dz != 0.0:
            d2 = d2 + dz * dz
        return np.sqrt(d2)

    def min_distance_to(self, p: Point, floor_height: float) -> float:
        """``|p, O|_E^min`` over this instance set."""
        return float(self.distances_to(p, floor_height).min())

    def max_distance_to(self, p: Point, floor_height: float) -> float:
        """``|p, O|_E^max`` over this instance set."""
        return float(self.distances_to(p, floor_height).max())

    def expected_distance_to(self, p: Point, floor_height: float) -> float:
        """``E[|s_i, p|_E]`` — the Euclidean expected distance."""
        return float((self.distances_to(p, floor_height) * self.probs).sum())
