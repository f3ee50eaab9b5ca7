"""Write-ahead log of service *input* mutations.

The delta feeds of :mod:`repro.api.wire` record *outputs* (result
changes); replaying them reconstructs results but not the engine — the
index, the session caches, the maintainer internals.  The WAL records
the **inputs** instead: every mutation the service absorbed after the
last checkpoint (watch/unwatch, moves, insert, delete, topology event),
so recovery can re-drive them through a restored service and land on
the *same engine state* the crashed process had — results, deltas, and
auto-allocated query ids all bit-identical.

One JSON object per line, canonical encoding, ``"w"`` stamping
:data:`WAL_VERSION`::

    {"next_auto":3,"op":"watch","query_id":"irq-2","spec":{...},"w":2}
    {"op":"unwatch","query_id":"irq-2","w":2}
    {"moves":[{"center":[4.0,5.0,0],"id":"o1","radius":1.5,
      "xy":"AAAAAAAAEEAAAAAAAAAUQA=="}, ...],"op":"moves","w":2}
    {"object":{"center":[...],"id":"o9","probs":"...","radius":2.0,
      "xy":"..."},"op":"insert","w":2}
    {"object_id":"o7","op":"delete","w":2}
    {"body":{"door_id":"d3","event":"close_door"},"op":"event","w":2}

A location's ``xy`` (and ``probs``, omitted when uniform) are packed
little-endian float64 bytes in base64 — see :mod:`repro.persist.codec`.
**Version 2** introduced the packed form; the reader still accepts
version 1 lines, whose locations are ``repr``-float lists, so a segment
written before the change replays unchanged.  Other versions raise.

``watch`` carries ``next_auto`` — the service's auto-id counter *after*
the registration — because replay registers by explicit id: without
restoring the counter, a recovered service would mint different ids for
the next auto-named watch than the uninterrupted one (the counter is
shared across kinds, so an ``iknn-3`` minted before the crash must
leave ``irq-…`` allocation at 4, not 3).

Each record is flushed (and fsynced when the stream exposes a file
descriptor) as it is written — the WAL is the durability boundary; a
failed fsync raises :class:`~repro.errors.PersistError` out of the
write.  A process killed mid-write leaves at most one torn final line,
which :func:`read_wal` skips and counts exactly like the feed reader's
torn-tail rule; corruption anywhere earlier raises.  Every malformed
line — bad JSON, a non-ASCII byte, an unknown version or op, an
invalid location, spec or event — is a ``PersistError``, so the rule
sees all of them.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator

from repro.api.specs import QuerySpec, spec_from_dict
from repro.api.wire import FeedReadStats
from repro.errors import PersistError, ReproError
from repro.objects.population import ObjectMove
from repro.objects.uncertain import UncertainObject
from repro.persist.codec import (
    event_from_dict,
    event_to_dict,
    move_from_dict,
    move_to_dict,
    object_from_dict,
    object_to_dict,
)
from repro.space.events import TopologyEvent

#: Version stamped into every WAL line; readers reject unknown ones.
#: v2 packs object locations (base64 float64 bytes).
WAL_VERSION = 2

#: Versions :func:`decode_wal_record` accepts.  v1 writes locations as
#: float lists; the list decoder reads them.
_READABLE_VERSIONS = (1, WAL_VERSION)


@dataclass(frozen=True)
class WalWatch:
    """A standing-query registration (``op: "watch"``)."""

    query_id: str
    spec: QuerySpec
    #: The service auto-id counter value after this registration.
    next_auto: int


@dataclass(frozen=True)
class WalUnwatch:
    """A standing-query deregistration (``op: "unwatch"``)."""

    query_id: str


@dataclass(frozen=True)
class WalMoves:
    """One ingested batch of position moves (``op: "moves"``)."""

    moves: tuple[ObjectMove, ...]


@dataclass(frozen=True)
class WalInsert:
    """An object insertion (``op: "insert"``)."""

    obj: UncertainObject


@dataclass(frozen=True)
class WalDelete:
    """An object deletion (``op: "delete"``)."""

    object_id: str


@dataclass(frozen=True)
class WalEvent:
    """An applied topology event (``op: "event"``)."""

    event: TopologyEvent


WalRecord = WalWatch | WalUnwatch | WalMoves | WalInsert | WalDelete | WalEvent


def _dumps(payload: dict[str, Any]) -> str:
    try:
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise PersistError(f"unencodable WAL record: {exc}") from None


def encode_wal_record(record: WalRecord) -> str:
    """One canonical JSON line for ``record`` (no trailing newline)."""
    if isinstance(record, WalWatch):
        payload: dict[str, Any] = {
            "w": WAL_VERSION,
            "op": "watch",
            "query_id": record.query_id,
            "spec": record.spec.to_dict(),
            "next_auto": record.next_auto,
        }
    elif isinstance(record, WalUnwatch):
        payload = {
            "w": WAL_VERSION,
            "op": "unwatch",
            "query_id": record.query_id,
        }
    elif isinstance(record, WalMoves):
        payload = {
            "w": WAL_VERSION,
            "op": "moves",
            "moves": [move_to_dict(m) for m in record.moves],
        }
    elif isinstance(record, WalInsert):
        payload = {
            "w": WAL_VERSION,
            "op": "insert",
            "object": object_to_dict(record.obj),
        }
    elif isinstance(record, WalDelete):
        payload = {
            "w": WAL_VERSION,
            "op": "delete",
            "object_id": record.object_id,
        }
    elif isinstance(record, WalEvent):
        payload = {
            "w": WAL_VERSION,
            "op": "event",
            "body": event_to_dict(record.event),
        }
    else:
        raise PersistError(
            f"cannot encode {type(record).__name__} as a WAL record"
        )
    return _dumps(payload)


def _logged_spec(payload: Any) -> QuerySpec:
    """The spec of a ``watch`` record; one the writer could not have
    logged (a non-finite point or range) is malformed."""
    spec = spec_from_dict(payload)
    try:
        json.dumps(spec.to_dict(), allow_nan=False)
    except ValueError:
        raise PersistError(f"non-finite spec in WAL watch: {spec}") from None
    return spec


def decode_wal_record(line: str) -> WalRecord:
    """Inverse of :func:`encode_wal_record`; raises ``PersistError``."""
    if not line.isascii():  # the canonical encoding escapes the rest
        raise PersistError("malformed WAL line: non-ASCII character")
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:  # or too many digits
        raise PersistError(f"malformed WAL line: {exc}") from None
    if not isinstance(data, dict):
        raise PersistError(f"WAL record must be an object, got {data!r}")
    version = data.get("w")
    if version not in _READABLE_VERSIONS:
        raise PersistError(
            f"unsupported WAL version {version!r} "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    packed = version >= 2
    op = data.get("op")
    try:
        if op == "watch":
            next_auto = data["next_auto"]
            if not isinstance(next_auto, int) or isinstance(next_auto, bool):
                raise TypeError(f"next_auto {next_auto!r} is not an int")
            return WalWatch(
                str(data["query_id"]), _logged_spec(data["spec"]), next_auto
            )
        if op == "unwatch":
            return WalUnwatch(str(data["query_id"]))
        if op == "moves":
            moves = data["moves"]
            if not isinstance(moves, list):
                raise TypeError(f"moves must be a list, got {moves!r}")
            return WalMoves(tuple(move_from_dict(m, packed) for m in moves))
        if op == "insert":
            return WalInsert(object_from_dict(data["object"], packed))
        if op == "delete":
            return WalDelete(str(data["object_id"]))
        if op == "event":
            return WalEvent(event_from_dict(data["body"]))
    except (KeyError, TypeError, ValueError, OverflowError, ReproError) as exc:
        raise PersistError(f"malformed WAL {op!r} record: {exc}") from None
    raise PersistError(f"unknown WAL op {op!r}")


class WalWriter:
    """Appends WAL records to a text stream, flushing each one (the
    record is the durability unit — a checkpoint bounds how many of
    them recovery ever replays).

    :meth:`rotate` swaps the underlying stream at a checkpoint
    boundary: the service keeps one logical WAL while the store starts
    a fresh segment per checkpoint and compacts old ones.
    """

    def __init__(self, fp: IO[str]) -> None:
        self._fp = fp
        self.records_written = 0

    def write(self, record: WalRecord) -> None:
        """Append ``record`` and make it durable (flush + fsync).

        An ``fsync`` failure (``EIO``, ``ENOSPC``, …) raises
        ``PersistError``: the record may not be on disk, and the verb
        that logged it must not return as if it were."""
        self._fp.write(encode_wal_record(record) + "\n")
        self._fp.flush()
        try:
            fd = self._fp.fileno()
        except (io.UnsupportedOperation, AttributeError):
            fd = None  # an in-memory stream has no descriptor to sync
        if fd is not None:
            try:
                os.fsync(fd)
            except OSError as exc:
                raise PersistError(f"WAL fsync failed: {exc}") from None
        self.records_written += 1

    def rotate(self, fp: IO[str]) -> IO[str]:
        """Direct subsequent records to ``fp``; returns the previous
        stream (the caller owns closing it)."""
        old, self._fp = self._fp, fp
        return old


def read_wal(
    lines: Iterable[str],
    stats: FeedReadStats | None = None,
) -> Iterator[WalRecord]:
    """Decode a WAL segment line by line, tolerating exactly one torn
    *final* record (the write the crash interrupted) — skipped and
    counted in ``stats.torn_tail``.  A bad line anywhere earlier
    raises: mid-log corruption means replay cannot be trusted."""
    pending: PersistError | None = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if pending is not None:
            raise pending
        try:
            record = decode_wal_record(line)
        except PersistError as exc:
            pending = exc
            continue
        if stats is not None:
            stats.records += 1
        yield record
    if pending is not None and stats is not None:
        stats.torn_tail += 1
