"""Correctness checks: results against the exhaustive evaluator.

Everything here runs outside the timed windows.  A check returns
``True`` when the program's answer is right; the caller counts the
``False`` ones as failed operations.
"""

from __future__ import annotations

import math
from typing import Any

from repro import (
    CountSpec,
    KNNSpec,
    NaiveEvaluator,
    ProbRangeSpec,
    RangeSpec,
)

#: The member id a standing count watch publishes its count under.
COUNT_KEY = "count"


class Oracle:
    """Index-free reference answers over the *current* population."""

    def __init__(self, space: Any, population: Any) -> None:
        self.naive = NaiveEvaluator(space, population)

    def agrees(self, spec: Any, members: dict[str, float | None]) -> bool:
        """Whether ``members`` (id -> annotation) answers ``spec``."""
        ids = set(members)
        if isinstance(spec, RangeSpec):
            return ids == self.naive.range_query(spec.q, spec.r)
        if isinstance(spec, ProbRangeSpec):
            return ids == self.naive.prob_range_query(
                spec.q, spec.r, spec.p_min
            )
        if isinstance(spec, KNNSpec):
            # Tie-aware: any k objects no farther than the k-th exact
            # distance are a correct answer.
            exact = self.naive.all_distances(spec.q)
            finite = sorted(d for d in exact.values() if math.isfinite(d))
            if len(ids) != min(spec.k, len(finite)):
                return False
            if not finite:
                return True
            kth = finite[len(ids) - 1]
            return all(exact[oid] <= kth + 1e-6 for oid in ids)
        if isinstance(spec, CountSpec):
            n = len(self.naive.range_query(spec.q, spec.r))
            return members == _count_result(spec, n)
        raise TypeError(f"no oracle for {type(spec).__name__}")


def _count_result(spec: CountSpec, n: int) -> dict[str, float]:
    """What a standing count watch publishes with ``n`` objects in
    range: the count while at or over the threshold, else nothing."""
    return {COUNT_KEY: float(n)} if n >= spec.threshold else {}


def standing_equals_fresh(service: Any, query_id: str) -> bool:
    """Whether a standing result equals a from-scratch ``run()`` of its
    own spec against the service's current population."""
    spec = service.query_spec(query_id)
    members = service.result_distances(query_id)
    if isinstance(spec, CountSpec):
        n = len(service.run(RangeSpec(spec.q, spec.r)).ids())
        return members == _count_result(spec, n)
    return set(members) == service.run(spec).ids()
