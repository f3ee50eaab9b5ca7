"""Selectivity estimation for indoor range queries (extension).

The paper's future work (Section VII) suggests estimating the
selectivity of distance-aware queries for optimisation.  This module
offers two estimators, both running only the cheap phases:

* :func:`candidate_upper_bound` — the filtering-phase candidate count;
  a *provable* upper bound on the result size (Lemma 6: no false
  negatives, so every true hit is a candidate).
* :func:`estimate_irq_result_size` — a refined estimate that runs the
  door search + pruning phases and scores each undecided object by where
  the query range falls inside its distance interval (linear
  interpolation); sure-accepts count 1, sure-rejects 0.

Neither touches the refinement phase, so both are far cheaper than
evaluating the query.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.queries.engine import (
    filtering_phase,
    locate_source,
    pruning_phase,
    search_phase,
)
from repro.queries.stats import QueryStats


def candidate_upper_bound(index: CompositeIndex, q: Point, r: float) -> int:
    """Filtering-phase candidate count — an upper bound on |iRQ(q, r)|."""
    if r < 0:
        raise QueryError(f"negative query range {r}")
    filtered, _ = filtering_phase(index, q, r, use_skeleton=True)
    return len(filtered.objects)


def estimate_irq_result_size(
    index: CompositeIndex, q: Point, r: float
) -> float:
    """Estimated |iRQ(q, r)| from distance intervals only.

    For an undecided object with interval ``[lo, hi]`` straddling
    ``r``, the estimator assumes the (unknown) exact expected distance
    is uniform in the interval and scores ``(r - lo) / (hi - lo)``.
    """
    if r < 0:
        raise QueryError(f"negative query range {r}")
    source = locate_source(index, q)
    filtered, _ = filtering_phase(index, q, r, use_skeleton=True)
    if not filtered.objects:
        return 0.0
    dd = search_phase(index, q, source, QueryStats())
    bounds = pruning_phase(index, filtered.objects, dd)
    estimate = 0.0
    # Sure-rejects by the envelope score 0, exactly as iRQ drops them.
    for j in np.flatnonzero(bounds.lo <= r).tolist():
        lower, upper = bounds.pair(j)
        if upper <= r:  # entirely within
            estimate += 1.0
        elif lower > r:  # entirely beyond
            continue
        else:
            width = upper - lower
            if width <= 0.0 or width != width or width == float("inf"):
                estimate += 0.5  # degenerate interval: coin flip
            else:
                estimate += min(1.0, max(0.0, (r - lower) / width))
    return estimate
