"""Result deltas: what a standing query's result *changed by*.

The continuous query monitor (:mod:`repro.queries.monitor`) maintains
each standing iRQ/ikNNQ result incrementally; this module defines the
currency in which those maintenance steps are reported.  Every mutation
path — :meth:`~repro.queries.monitor.QueryMonitor.apply_moves`,
``apply_insert``, ``apply_delete``, ``apply_event``, topology resyncs,
even registration itself — emits one :class:`ResultDelta` per standing
query whose result actually changed, bundled into a
:class:`DeltaBatch`.  Standing iRQ/ikNNQ deltas annotate members with
distances; standing iPRQ deltas annotate them with qualifying
probabilities (re-annotations of retained members travel in
``probability_changed`` instead of ``distance_changed``).  Downstream
consumers (dashboards, the asyncio serving layer in
:mod:`repro.queries.serving`) apply deltas instead of diffing whole
result sets.

The contract is *replayability*: starting from the empty state at
registration time and applying every emitted delta in order reproduces
the monitor's current result exactly (membership **and** stored
distances) — :func:`replay_deltas` implements that fold and the
property tests in ``tests/properties/test_prop_deltas.py`` enforce it
against from-scratch query execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.objects.uncertain import UncertainObject
    from repro.space.events import EventResult

#: Mutation paths a delta can originate from.
DELTA_CAUSES = (
    "register",    # initial result of a freshly registered query
    "deregister",  # the standing query was removed (everything leaves)
    "move",        # batched position updates (apply_moves/ingest_moves)
    "insert",      # a brand-new object appeared
    "delete",      # an object disappeared
    "topology",    # a topology_version bump forced a full resync
    "snapshot",    # synthetic: the whole result, priming a subscriber
)


@dataclass(frozen=True)
class ResultDelta:
    """One standing query's result change from one mutation.

    ``entered`` maps newly admitted member ids to their stored
    annotation (``None`` marks a member accepted by bounds alone;
    otherwise the exact expected distance, or — for a standing iPRQ —
    the exact qualifying probability), ``left`` lists the ids that
    dropped out, and ``distance_changed`` maps retained members to
    their *new* stored distance where it differs from the previous one.
    ``probability_changed`` is the iPRQ twin of ``distance_changed``:
    retained members whose stored qualifying probability moved.  A
    delta carries re-annotations in exactly one of the two ``changed``
    fields (which one is the query kind's choice — see
    :attr:`repro.queries.maintainers.StandingQuery.annotates`), and all
    parts are disjoint by construction.
    """

    query_id: str
    cause: str
    entered: dict[str, float | None] = field(default_factory=dict)
    left: tuple[str, ...] = ()
    distance_changed: dict[str, float | None] = field(default_factory=dict)
    probability_changed: dict[str, float | None] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.cause not in DELTA_CAUSES:
            raise ValueError(f"unknown delta cause {self.cause!r}")

    def __bool__(self) -> bool:
        return bool(
            self.entered
            or self.left
            or self.distance_changed
            or self.probability_changed
        )

    @property
    def is_empty(self) -> bool:
        return not self

    def apply_to(self, state: dict[str, float | None]) -> None:
        """Fold this delta into ``state`` (member id -> annotation).
        A ``snapshot`` delta carries the whole result: it replaces
        ``state`` instead of merging into it."""
        if self.cause == "snapshot":
            state.clear()
        for oid in self.left:
            state.pop(oid, None)
        state.update(self.entered)
        state.update(self.distance_changed)
        state.update(self.probability_changed)


def diff_results(
    query_id: str,
    cause: str,
    before: dict[str, float | None],
    after: dict[str, float | None],
    probabilities: bool = False,
) -> ResultDelta | None:
    """The delta taking ``before`` to ``after``; ``None`` when equal.

    ``probabilities`` selects which field re-annotations of retained
    members land in: ``distance_changed`` (the default) or, for a
    standing iPRQ whose stored annotations are qualifying
    probabilities, ``probability_changed``."""
    entered = {oid: d for oid, d in after.items() if oid not in before}
    left = tuple(sorted(oid for oid in before if oid not in after))
    changed = {
        oid: d
        for oid, d in after.items()
        if oid in before and before[oid] != d
    }
    if not entered and not left and not changed:
        return None
    if probabilities:
        return ResultDelta(
            query_id, cause, entered, left, probability_changed=changed
        )
    return ResultDelta(query_id, cause, entered, left, changed)


def replay_deltas(
    deltas: Iterable[ResultDelta],
    state: dict[str, float | None] | None = None,
) -> dict[str, float | None]:
    """Fold a delta sequence (one query's, in emission order) into the
    resulting member -> distance mapping."""
    state = {} if state is None else dict(state)
    for delta in deltas:
        delta.apply_to(state)
    return state


@dataclass(frozen=True)
class DeltaBatch:
    """Every delta one monitor mutation produced, plus its side outputs.

    ``moved`` carries the post-update objects of an ``apply_moves`` /
    ``ingest_moves`` call, ``deleted`` the object an ``apply_delete``
    removed, and ``event_result`` the space-level outcome of an
    ``apply_event`` — so the delta-first API loses nothing the old
    per-method return values provided.
    """

    deltas: tuple[ResultDelta, ...] = ()
    moved: tuple["UncertainObject", ...] = ()
    deleted: "UncertainObject | None" = None
    event_result: "EventResult | None" = None

    def __iter__(self) -> Iterator[ResultDelta]:
        return iter(self.deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def __bool__(self) -> bool:
        return any(self.deltas)

    def for_query(self, query_id: str) -> tuple[ResultDelta, ...]:
        """This batch's deltas for one standing query, in order (a batch
        can carry e.g. a topology resync plus a move delta)."""
        return tuple(d for d in self.deltas if d.query_id == query_id)

    def query_ids(self) -> list[str]:
        """Ids of the queries this batch touches, in first-seen order."""
        seen: dict[str, None] = {}
        for d in self.deltas:
            seen.setdefault(d.query_id)
        return list(seen)
