"""Versioned JSON-lines wire protocol for specs, deltas and snapshots.

The ROADMAP's "delta transport" item: serialize the delta-serving
subsystem's currency so subscribers can live **out-of-process** — a
positioning gateway writes the feed, a dashboard in another process (or
machine) tails it.  One JSON object per line, five record types::

    {"v":2,"type":"spec","spec":{"v":1,"kind":"irq","q":[x,y,f],"r":60.0}}
    {"v":2,"type":"watch","query_id":"kiosk","spec":{...spec body...}}
    {"v":2,"type":"snapshot","query_id":"kiosk","members":{"o1":4.25}}
    {"v":2,"type":"delta","query_id":"kiosk","cause":"move",
     "entered":{"o2":7.5},"left":["o3"],"changed":{},"prob_changed":{}}
    {"v":2,"type":"batch","deltas":[{...delta body...}, ...]}

``v`` is :data:`WIRE_VERSION`; nested spec bodies carry their own
:data:`~repro.api.specs.SPEC_SCHEMA_VERSION`.  **Version 2** added the
``prob_changed`` delta field (standing iPRQ re-annotations — member
qualifying probabilities that moved); the decoder still reads version
1 lines, whose deltas simply carry no probability changes, so feeds
written by a v1 producer replay unchanged.  Other unknown versions or
record types raise :class:`~repro.errors.WireError` — a peer speaking
a newer schema fails loudly instead of being half-read.

Encoding is **canonical** (sorted keys, no whitespace, floats via
``repr``), which buys the contract the property tests enforce:
``encode_record(decode_record(line)) == line`` byte for byte, and
replaying a decoded feed (:func:`replay_feed`) reconstructs every
standing query's live result exactly — the same replayability guarantee
:mod:`repro.queries.deltas` gives in-process, now across the wire.
Non-finite distances are refused (``allow_nan=False``): the monitor
never stores them, so one appearing in a feed is a bug upstream, not a
value to smuggle through.

A :class:`DeltaBatch` crosses the wire as its result deltas only; the
in-process side outputs (``moved`` objects, ``deleted``,
``event_result``) are host conveniences and stay home.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator

from repro.errors import QueryError, WireError
from repro.api.specs import QuerySpec, spec_from_dict
from repro.queries.deltas import DeltaBatch, ResultDelta

#: Version stamped into every wire record; bump on layout changes.
#: v2 added the delta ``prob_changed`` field (standing iPRQ).
WIRE_VERSION = 2

#: Versions :func:`decode_record` accepts.  v1 lacks ``prob_changed``;
#: decoding fills it in empty, so old feeds keep replaying.
_READABLE_VERSIONS = (1, WIRE_VERSION)


@dataclass(frozen=True)
class WatchRecord:
    """Feed header: standing query ``query_id`` watches ``spec``."""

    query_id: str
    spec: QuerySpec


@dataclass(frozen=True)
class SnapshotRecord:
    """A standing query's full result at one instant: member id ->
    stored distance (``None`` marks an iRQ member accepted by bounds
    alone).  Re-primes a replay mid-feed."""

    query_id: str
    members: dict[str, float | None]


def _dumps(payload: dict[str, Any]) -> str:
    try:
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
    except ValueError as exc:  # non-finite float
        raise WireError(f"unencodable wire record: {exc}") from None
    except TypeError as exc:  # non-JSON value smuggled in
        raise WireError(f"unencodable wire record: {exc}") from None


def _finite(text: Any) -> float:
    value = float(text)  # "NaN" / "Infinity" literals arrive here too
    if not math.isfinite(value):
        raise WireError(f"non-finite number {text!r}")
    return value


def loads(line: str) -> Any:
    """``json.loads`` refusing what the encoder never writes: a
    non-finite number, too many digits, too deep a nesting."""
    try:
        return json.loads(line, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError too
        raise WireError(f"malformed wire line: {exc}") from None


def _members_to_wire(
    members: dict[str, float | None],
) -> dict[str, float | None]:
    return {
        str(oid): (None if d is None else float(d))
        for oid, d in members.items()
    }


def _members_from_wire(value: Any, what: str) -> dict[str, float | None]:
    if not isinstance(value, dict):
        raise WireError(f"malformed {what} {value!r}")
    out: dict[str, float | None] = {}
    for oid, d in value.items():
        # bool is an int subclass: a JSON `true` is not a distance.
        if d is not None and (
            isinstance(d, bool) or not isinstance(d, (int, float))
        ):
            raise WireError(f"malformed {what} distance {d!r}")
        out[str(oid)] = None if d is None else float(d)
    return out


def _delta_body(delta: ResultDelta) -> dict[str, Any]:
    return {
        "query_id": delta.query_id,
        "cause": delta.cause,
        "entered": _members_to_wire(delta.entered),
        "left": [str(oid) for oid in delta.left],
        "changed": _members_to_wire(delta.distance_changed),
        "prob_changed": _members_to_wire(delta.probability_changed),
    }


def _delta_from_body(body: Any) -> ResultDelta:
    if not isinstance(body, dict):
        raise WireError(f"malformed delta record {body!r}")
    left = body.get("left", [])
    if not isinstance(left, list):
        raise WireError(f"malformed delta 'left' {left!r}")
    try:
        return ResultDelta(
            query_id=str(body["query_id"]),
            cause=str(body["cause"]),
            entered=_members_from_wire(
                body.get("entered", {}), "delta 'entered'"
            ),
            left=tuple(str(oid) for oid in left),
            distance_changed=_members_from_wire(
                body.get("changed", {}), "delta 'changed'"
            ),
            # Absent from v1 records: an old feed carries no standing
            # iPRQ re-annotations, so empty is exactly right.
            probability_changed=_members_from_wire(
                body.get("prob_changed", {}), "delta 'prob_changed'"
            ),
        )
    except KeyError as exc:
        raise WireError(f"delta record missing field {exc}") from None


def encode_record(
    record: (
        QuerySpec | ResultDelta | DeltaBatch | WatchRecord | SnapshotRecord
    ),
) -> str:
    """One canonical JSON line (no trailing newline) for any wire
    record type."""
    if isinstance(record, QuerySpec):
        # The spec body keeps its own schema version, nested: the wire
        # envelope and the spec schema evolve independently.
        payload: dict[str, Any] = {
            "v": WIRE_VERSION,
            "type": "spec",
            "spec": record.to_dict(),
        }
    elif isinstance(record, ResultDelta):
        payload = {
            "v": WIRE_VERSION,
            "type": "delta",
            **_delta_body(record),
        }
    elif isinstance(record, DeltaBatch):
        payload = {
            "v": WIRE_VERSION,
            "type": "batch",
            "deltas": [_delta_body(d) for d in record.deltas],
        }
    elif isinstance(record, WatchRecord):
        payload = {
            "v": WIRE_VERSION,
            "type": "watch",
            "query_id": record.query_id,
            "spec": record.spec.to_dict(),
        }
    elif isinstance(record, SnapshotRecord):
        payload = {
            "v": WIRE_VERSION,
            "type": "snapshot",
            "query_id": record.query_id,
            "members": _members_to_wire(record.members),
        }
    else:
        raise WireError(
            f"cannot encode {type(record).__name__} as a wire record"
        )
    return _dumps(payload)


def decode_record(
    line: str,
) -> QuerySpec | ResultDelta | DeltaBatch | WatchRecord | SnapshotRecord:
    """Parse one wire line back into its typed record; a field of the
    wrong type is a :class:`~repro.errors.WireError` like the rest."""
    data = loads(line)
    try:
        return _decode(data)
    except (TypeError, ValueError, OverflowError, QueryError) as exc:
        raise WireError(f"malformed wire record: {exc}") from None


def _decode(
    data: Any,
) -> QuerySpec | ResultDelta | DeltaBatch | WatchRecord | SnapshotRecord:
    if not isinstance(data, dict):
        raise WireError(f"wire record must be an object, got {data!r}")
    version = data.get("v")
    if version not in _READABLE_VERSIONS:
        raise WireError(
            f"unsupported wire version {version!r} "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    rtype = data.get("type")
    if rtype == "spec":
        try:
            return spec_from_dict(data["spec"])
        except KeyError:
            raise WireError(
                f"spec record missing 'spec' body: {data!r}"
            ) from None
    if rtype == "delta":
        return _delta_from_body(data)
    if rtype == "batch":
        deltas = data.get("deltas")
        if not isinstance(deltas, list):
            raise WireError(f"malformed batch record {data!r}")
        return DeltaBatch(
            deltas=tuple(_delta_from_body(b) for b in deltas)
        )
    if rtype == "watch":
        try:
            return WatchRecord(
                str(data["query_id"]), spec_from_dict(data["spec"])
            )
        except KeyError as exc:
            raise WireError(
                f"watch record missing field {exc}"
            ) from None
    if rtype == "snapshot":
        try:
            return SnapshotRecord(
                str(data["query_id"]),
                _members_from_wire(
                    data["members"], "snapshot 'members'"
                ),
            )
        except KeyError as exc:
            raise WireError(
                f"snapshot record missing field {exc}"
            ) from None
    raise WireError(f"unknown wire record type {rtype!r}")


class DeltaFeedWriter:
    """Serializes a standing-query delta feed onto a text stream, one
    wire record per line.

    :meth:`repro.api.service.QueryService.attach_feed` wires one of
    these into the service's publish path, writing the feed header
    (a ``watch`` + ``snapshot`` record per standing query) up front and
    every published non-empty :class:`DeltaBatch` afterwards — exactly
    the records :func:`replay_feed` folds back into live results.
    """

    def __init__(self, fp: IO[str]) -> None:
        self._fp = fp
        self.records_written = 0

    def write(
        self,
        record: (
            QuerySpec
            | ResultDelta
            | DeltaBatch
            | WatchRecord
            | SnapshotRecord
        ),
    ) -> None:
        """Append one encoded record line to the stream."""
        self._fp.write(encode_record(record) + "\n")
        self.records_written += 1

    def watch(self, query_id: str, spec: QuerySpec) -> None:
        """Write the feed-header watch record for one query."""
        self.write(WatchRecord(query_id, spec))

    def snapshot(
        self, query_id: str, members: dict[str, float | None]
    ) -> None:
        """Write a full-result snapshot record for one query."""
        self.write(SnapshotRecord(query_id, dict(members)))

    def batch(self, batch: DeltaBatch) -> None:
        """Write a batch's deltas; an empty batch writes nothing (an
        idle tick is not a feed event)."""
        if batch.deltas:
            self.write(batch)


@dataclass
class FeedReadStats:
    """Outcome counters of one :func:`read_feed` pass."""

    #: Records successfully decoded and yielded.
    records: int = 0
    #: Final records skipped as a torn tail (0 or 1 per pass): the
    #: writer died mid-record, which is tolerated, not a crash.
    torn_tail: int = 0


def read_feed(
    lines: Iterable[str],
    stats: FeedReadStats | None = None,
) -> Iterator[
    QuerySpec | ResultDelta | DeltaBatch | WatchRecord | SnapshotRecord
]:
    """Decode a JSONL feed line by line.

    Blank lines are skipped, so a feed file still being appended to
    tails cleanly.  A record that fails to decode is tolerated **only**
    as the feed's final non-blank line — the torn tail a writer killed
    mid-:meth:`~DeltaFeedWriter.write` leaves behind.  It is skipped
    (counted in ``stats.torn_tail`` when a :class:`FeedReadStats` is
    passed) instead of crashing the replay; the same failure anywhere
    *before* the tail still raises, because mid-feed corruption means
    the replay cannot be trusted.
    """
    pending: WireError | None = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if pending is not None:
            # The bad line was NOT the tail: corruption, not a torn
            # write. Fail loudly where the reader can see it.
            raise pending
        try:
            record = decode_record(line)
        except WireError as exc:
            pending = exc
            continue
        if stats is not None:
            stats.records += 1
        yield record
    if pending is not None and stats is not None:
        stats.torn_tail += 1


def replay_feed(
    records: Iterable[
        QuerySpec
        | ResultDelta
        | DeltaBatch
        | WatchRecord
        | SnapshotRecord
        | str
    ],
    stats: FeedReadStats | None = None,
) -> dict[str, dict[str, float | None]]:
    """Fold a decoded feed into per-query result state.

    ``watch`` opens a query at the empty state, ``snapshot`` re-primes
    it wholesale, ``delta``/``batch`` records apply incrementally, and a
    ``deregister``-cause delta closes the query (it is dropped from the
    returned mapping, matching the monitor's live view).  Replaying a
    complete feed reproduces every standing query's live
    ``result_distances`` exactly — the acceptance check
    ``examples/delta_tail.py`` and ``tests/api/test_wire.py`` run.

    Accepts decoded records *or* raw feed lines (the first item
    decides; raw lines route through :func:`read_feed`).  Pass a
    :class:`FeedReadStats` to observe the pass either way — in
    particular ``torn_tail``, so recovery paths can report a skipped
    partial final record instead of silently absorbing it.
    """
    iterator = iter(records)
    try:
        first = next(iterator)
    except StopIteration:
        return {}
    if isinstance(first, str):
        # Raw lines: read_feed owns the decoding (and the stats).
        decoded = read_feed(itertools.chain([first], iterator), stats)
    else:

        def count(rec):
            if stats is not None:
                stats.records += 1
            return rec

        decoded = (
            count(rec) for rec in itertools.chain([first], iterator)
        )
    states: dict[str, dict[str, float | None]] = {}

    def apply(delta: ResultDelta) -> None:
        if delta.cause == "deregister":
            states.pop(delta.query_id, None)
            return
        delta.apply_to(states.setdefault(delta.query_id, {}))

    for record in decoded:
        if isinstance(record, WatchRecord):
            states.setdefault(record.query_id, {})
        elif isinstance(record, SnapshotRecord):
            states[record.query_id] = dict(record.members)
        elif isinstance(record, ResultDelta):
            apply(record)
        elif isinstance(record, DeltaBatch):
            for delta in record.deltas:
                apply(delta)
        # A bare QuerySpec record carries no query id: metadata only.
    return states
