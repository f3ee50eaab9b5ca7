"""Indoor distances for uncertain objects (Section II).

* :mod:`repro.distances.euclidean` — Euclidean lower bounds;
* :mod:`repro.distances.bounds` — the pruning interval
  (:class:`DistanceInterval`) and the probabilistic bounds (Lemma 5);
* :mod:`repro.distances.batch` — the bounds kernel (Lemmas 1-2, Eq. 7)
  and exact refinement (Definition 1, Eqs. 2-6) over whole
  ``(queries x objects)`` blocks.

The per-pair scalar forms of the same definitions live in
:mod:`repro.reference`.
"""

from repro.distances.euclidean import euclidean, euclidean_lower_bound
from repro.distances.bounds import (
    DistanceInterval,
    SubregionStats,
    probabilistic_bounds,
)

__all__ = [
    "euclidean",
    "euclidean_lower_bound",
    "DistanceInterval",
    "SubregionStats",
    "probabilistic_bounds",
]
