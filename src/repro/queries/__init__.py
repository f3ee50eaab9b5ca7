"""Distance-aware query processing (Section IV).

Both query types run the paper's four phases:

1. **filtering** — RangeSearch over the tree tier with the skeleton
   distance bound (Algorithm 4; no false negatives by Lemma 6);
2. **subgraph** — single-source Dijkstra over the candidate partitions
   only;
3. **pruning** — topological/probabilistic distance intervals decide
   most candidates without exact evaluation;
4. **refinement** — exact expected distances for the undecided rest.

:func:`iRQ` implements Algorithm 1, :func:`ikNNQ` Algorithm 2 (with
kSeedsSelection, Algorithm 5).  Per-phase wall-clock timings and pruning
counters are collected in :class:`QueryStats` — they regenerate the
paper's Figures 12-14.

On top of the one-shot processors, :class:`QuerySession` reuses the
subgraph computation across related queries, and :class:`QueryMonitor`
keeps *standing* queries incrementally maintained over streams of
object position updates, emitting per-query :class:`ResultDelta`\\ s.
Per-query maintenance is pluggable: one
:class:`~repro.queries.maintainers.StandingQuery` maintainer per kind
(:class:`~repro.queries.maintainers.RangeMaintainer`,
:class:`~repro.queries.maintainers.KNNMaintainer`,
:class:`~repro.queries.maintainers.ProbRangeMaintainer` — standing
iPRQ), registered in :mod:`repro.queries.maintainers`; a new watchable
query kind is one maintainer class there.
:class:`MonitorServer` fans the published delta stream out to asyncio
subscribers.

All standing registration funnels through the monitor's spec-based
``register(spec)``; prefer the :mod:`repro.api`
façade — :class:`repro.api.QueryService` with declarative
:class:`repro.api.RangeSpec` / :class:`repro.api.KNNSpec` /
:class:`repro.api.ProbRangeSpec` specs and the JSON-lines wire protocol
(:mod:`repro.api.wire`) for out-of-process subscribers.
"""

from repro.queries.stats import QueryStats
from repro.queries.engine import QueryResult
from repro.queries.range_query import iRQ
from repro.queries.knn import ikNNQ, k_seeds_selection
from repro.queries.prob_range import iPRQ
from repro.queries.session import QuerySession
from repro.queries.deltas import (
    DeltaBatch,
    ResultDelta,
    diff_results,
    replay_deltas,
)
from repro.queries.maintainers import (
    KNNMaintainer,
    ProbRangeMaintainer,
    RangeMaintainer,
    StandingQuery,
    register_maintainer,
)
from repro.queries.monitor import MonitorStats, QueryMonitor
from repro.queries.serving import MonitorServer, Subscription
from repro.queries.selectivity import (
    candidate_upper_bound,
    estimate_irq_result_size,
)

__all__ = [
    "QueryStats",
    "QueryResult",
    "iRQ",
    "ikNNQ",
    "k_seeds_selection",
    "iPRQ",
    "QuerySession",
    "QueryMonitor",
    "MonitorStats",
    "StandingQuery",
    "RangeMaintainer",
    "KNNMaintainer",
    "ProbRangeMaintainer",
    "register_maintainer",
    "ResultDelta",
    "DeltaBatch",
    "diff_results",
    "replay_deltas",
    "MonitorServer",
    "Subscription",
    "candidate_upper_bound",
    "estimate_irq_result_size",
]

