"""What checks the system: the scalar references it is held to.

Every step of the paper's evaluation runs as array code over the
index's columnar table (:mod:`repro.index.columns`,
:mod:`repro.distances.batch`).  Each also has a scalar form here — one
object, one subregion, one tree entry at a time, as the paper states
it — that no query, ingest, serve or persist path calls; the tests and
``CompositeIndex.validate()`` hold the array code to it, by ``==``
where the array code promises bit-identity:

* :class:`NaiveEvaluator` — index-free exhaustive evaluation; the
  oracle for every query result;
* :class:`PrecomputedDistanceIndex` — the door-to-door pre-computation
  alternative of prior work ([16], [24]), whose maintenance cost under
  topology changes is the comparison of Figure 15(d);
* :mod:`repro.reference.expected` — ``|q, O|_I`` (Definition 1,
  Eqs. 2-6) and the iPRQ mass per object, with the weighted bisectors
  of Table II (:mod:`repro.reference.bisector`);
* :mod:`repro.reference.bounds` — Table III per pair: the topological
  (Eq. 7), TLU (Lemma 3), Markov (Lemma 4) and probability bounds;
* :mod:`repro.reference.subregions` — the subregion split of Section
  II-B as :class:`Subregion` objects;
* :mod:`repro.reference.pack` — the kernel's object-side operand packed
  one object at a time;
* :mod:`repro.reference.tree` — Algorithm 4's stack walk over the
  indR-tree, an object's units by tree search, and the skeleton
  distance (Definition 2, Eq. 10, Lemma 6).

Nothing outside this package imports it at module level (a
``validate()`` may, locally); ``tests/test_reference_boundary.py``
enforces that.
"""

from repro.reference.bounds import (
    markov_lower_bound,
    object_bounds,
    probability_bounds,
    subregion_stats,
    topological_bounds,
    topological_looser_upper_bound,
    weighted_topological_bounds,
)
from repro.reference.expected import (
    DistanceCase,
    ExactDistance,
    classify_subregion_paths,
    expected_indoor_distance,
    instance_indoor_distances,
    qualifying_probability,
)
from repro.reference.naive import NaiveEvaluator
from repro.reference.precompute import PrecomputedDistanceIndex
from repro.reference.subregions import Subregion, subregions

__all__ = [
    "NaiveEvaluator",
    "PrecomputedDistanceIndex",
    "DistanceCase",
    "ExactDistance",
    "classify_subregion_paths",
    "expected_indoor_distance",
    "instance_indoor_distances",
    "qualifying_probability",
    "markov_lower_bound",
    "object_bounds",
    "probability_bounds",
    "subregion_stats",
    "topological_bounds",
    "topological_looser_upper_bound",
    "weighted_topological_bounds",
    "Subregion",
    "subregions",
]
