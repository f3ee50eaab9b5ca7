"""Checkpoint + WAL directory store: the crash-recovery protocol.

A :class:`CheckpointStore` owns one directory::

    MANIFEST.jsonl          {"m":1,"seq":3,"checkpoint":"checkpoint-000003.jsonl","wal":"wal-000003.jsonl"}
    checkpoint-000003.jsonl (digest-sealed snapshot, see persist.checkpoint)
    wal-000003.jsonl        (mutations absorbed since that snapshot)

The protocol, in write order (each step leaves a recoverable
directory, whatever instant the process dies at):

1. **checkpoint** — write ``checkpoint-{seq}`` atomically
   (tmp + fsync + rename);
2. **rotate** — open ``wal-{seq}`` and swing the service's
   :class:`~repro.persist.wal.WalWriter` onto it (the first checkpoint
   *attaches* the writer), so every later mutation lands in the new
   segment;
3. **manifest** — rewrite ``MANIFEST.jsonl`` atomically with the new
   entry appended;
4. **compact** — drop manifest entries (and their files) older than
   the last ``keep`` checkpoints.  ``keep=2`` is the default: the
   previous sealed checkpoint survives as the fallback target should
   the newest turn out corrupt on read.

:meth:`CheckpointStore.recover` inverts it: newest manifest entry
whose checkpoint reads clean (digest verified) and restores into a
service → replay **every** WAL segment with ``seq >=`` the chosen
entry's, in order, torn-tail tolerant — the segment glob (rather than
the manifest) closes the crash window between steps 2 and 3, where
records land in a segment the manifest does not reference yet.  A
fresh checkpoint is then cut immediately (never append after a torn
tail), so the next crash recovers from a clean segment.

Replay re-drives the *inputs* through the restored service's own
verbs, which is what reconverges everything — results, delta emission
order, even auto-allocated query ids (the WAL ``watch`` records carry
the id counter) — bit-identically to the uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.api.wire import FeedReadStats
from repro.errors import PersistError
from repro.persist.checkpoint import read_checkpoint
from repro.persist.wal import (
    WalDelete,
    WalEvent,
    WalInsert,
    WalMoves,
    WalRecord,
    WalUnwatch,
    WalWatch,
    WalWriter,
    read_wal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.service import QueryService

#: Manifest line schema version.
MANIFEST_VERSION = 1

_MANIFEST = "MANIFEST.jsonl"


def _seq_of(path: Path) -> int | None:
    """The zero-padded sequence number in ``checkpoint-NNNNNN.jsonl`` /
    ``wal-NNNNNN.jsonl`` file names (``None`` for foreign files)."""
    stem = path.stem
    _, _, tail = stem.rpartition("-")
    try:
        return int(tail)
    except ValueError:
        return None


@dataclass
class RecoveryReport:
    """What one :meth:`CheckpointStore.recover` pass did."""

    #: Sequence number of the checkpoint actually restored from.
    restored_seq: int = 0
    #: Sequence number of the fresh post-recovery checkpoint.
    checkpoint_seq: int = 0
    #: WAL records replayed onto the checkpoint.
    wal_records: int = 0
    #: Torn final WAL records skipped (at most one per segment).
    torn_tail: int = 0
    #: Manifest entries skipped because their checkpoint was unreadable
    #: (torn, digest mismatch, unknown version) or did not restore.
    fell_back: int = 0
    #: The ``extra`` payload carried by the restored checkpoint (the
    #: net layer keeps its resume-session table here).
    extra: dict[str, Any] = field(default_factory=dict)


class CheckpointStore:
    """Durable home of one service's checkpoints and WAL segments."""

    def __init__(self, root: str | Path, keep: int = 2) -> None:
        if keep < 1:
            raise PersistError(f"keep must be >= 1, got {keep}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._wal_writer: WalWriter | None = None

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def read_manifest(self) -> list[dict[str, Any]]:
        """Manifest entries, oldest first.  Undecodable lines (a torn
        final append) are skipped, not fatal — the entries that did
        land durably are exactly what recovery should see."""
        path = self.root / _MANIFEST
        try:
            text = path.read_text()
        except OSError:
            return []
        entries: list[dict[str, Any]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(data, dict)
                and data.get("m") == MANIFEST_VERSION
                and isinstance(data.get("seq"), int)
            ):
                entries.append(data)
        entries.sort(key=lambda e: e["seq"])
        return entries

    def _write_manifest(self, entries: list[dict[str, Any]]) -> None:
        path = self.root / _MANIFEST
        tmp = path.with_name(path.name + ".tmp")
        blob = "".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in entries
        ).encode()
        with open(tmp, "wb") as fp:
            fp.write(blob)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # checkpoint + rotation + compaction
    # ------------------------------------------------------------------

    def checkpoint(
        self,
        service: "QueryService",
        extra: dict[str, Any] | None = None,
    ) -> int:
        """Cut a durable point: snapshot ``service``, rotate its WAL
        onto a fresh segment, publish the manifest entry, compact.
        Returns the new sequence number."""
        entries = self.read_manifest()
        seq = (entries[-1]["seq"] + 1) if entries else 1
        ckpt_name = f"checkpoint-{seq:06d}.jsonl"
        wal_name = f"wal-{seq:06d}.jsonl"
        # The service rotates onto the new segment *inside* its writer
        # lock, atomically with the snapshot capture: every mutation
        # lands strictly before the cut (old segment) or after it (new
        # segment), never astride.  If the process dies between the
        # rotation and the manifest append below, the orphan segment is
        # still replayed — recovery globs segments by sequence number
        # rather than trusting the manifest's ``wal`` field.
        fp = open(self.root / wal_name, "a", encoding="utf-8")
        service.checkpoint(
            self.root / ckpt_name, extra=extra, rotate_wal_to=fp
        )
        self._wal_writer = service._wal
        entries.append(
            {
                "m": MANIFEST_VERSION,
                "seq": seq,
                "checkpoint": ckpt_name,
                "wal": wal_name,
            }
        )
        self._compact(entries)
        return seq

    #: :meth:`attach` is :meth:`checkpoint` by another name: hooking a
    #: live service up to a store *is* cutting its first durable point.
    attach = checkpoint

    def close(self) -> None:
        """Detach and close the WAL writer (idempotent)."""
        if self._wal_writer is not None:
            writer, self._wal_writer = self._wal_writer, None
            try:
                writer.rotate(None).close()  # type: ignore[arg-type]
            except (OSError, AttributeError):  # pragma: no cover
                pass

    def _compact(self, entries: list[dict[str, Any]]) -> None:
        kept = entries[-self.keep :]
        self._write_manifest(kept)
        min_seq = kept[0]["seq"]
        for pattern in ("checkpoint-*.jsonl", "wal-*.jsonl"):
            for path in self.root.glob(pattern):
                seq = _seq_of(path)
                if seq is not None and seq < min_seq:
                    try:
                        path.unlink()
                    except OSError:  # pragma: no cover - best effort
                        pass

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> tuple["QueryService", RecoveryReport]:
        """Bring a service back from this directory, with the config it
        recorded: newest restorable checkpoint + full WAL tail replay +
        a fresh durable point."""
        from repro.api.service import QueryService

        entries = self.read_manifest()
        if not entries:
            raise PersistError(f"nothing to recover in {self.root}")
        report = RecoveryReport()
        for entry in reversed(entries):
            try:
                state = read_checkpoint(self.root / entry["checkpoint"])
                service = QueryService.from_state(state)
                chosen = entry
                break
            except PersistError:
                report.fell_back += 1
        else:
            raise PersistError(
                f"no readable checkpoint among {len(entries)} manifest "
                f"entries in {self.root}"
            )
        stats = FeedReadStats()
        segments = sorted(
            (seq, path)
            for path in self.root.glob("wal-*.jsonl")
            if (seq := _seq_of(path)) is not None and seq >= chosen["seq"]
        )
        for _seq, path in segments:
            # A byte that is not UTF-8 survives as a lone surrogate,
            # which the record decoder rejects like any malformed line.
            with open(path, encoding="utf-8", errors="surrogateescape") as fp:
                for record in read_wal(fp, stats):
                    _replay_record(service, record)
        report.restored_seq = chosen["seq"]
        report.wal_records = stats.records
        report.torn_tail = stats.torn_tail
        report.extra = dict(state.extra)
        # A fresh durable point: recovery never appends to a segment
        # that may end in a torn record, and the next crash replays
        # from here instead of the whole tail again.
        report.checkpoint_seq = self.checkpoint(service, extra=state.extra)
        return service, report


def _replay_record(service: "QueryService", record: WalRecord) -> None:
    """Re-drive one logged input through the service's own verbs (the
    service has no WAL attached during replay, so nothing re-logs)."""
    if isinstance(record, WalWatch):
        service.watch(record.spec, query_id=record.query_id)
        # Auto-id convergence: a replayed watch registers by explicit
        # id, so the counter must be moved to where the live
        # registration left it (it is shared across kinds).
        service._id_counter.value = record.next_auto
    elif isinstance(record, WalUnwatch):
        service.unwatch(record.query_id)
    elif isinstance(record, WalMoves):
        service.ingest(list(record.moves))
    elif isinstance(record, WalInsert):
        service.insert(record.obj)
    elif isinstance(record, WalDelete):
        service.delete(record.object_id)
    elif isinstance(record, WalEvent):
        service.apply_event(record.event)
    else:  # pragma: no cover - decode_wal_record is exhaustive
        raise PersistError(f"unreplayable record {type(record).__name__}")


def recover(
    root: str | Path, keep: int = 2
) -> tuple["QueryService", RecoveryReport]:
    """Module-level convenience: recover a service from a checkpoint
    directory.  The returned store state lives inside the report's
    companion — callers that keep checkpointing should construct a
    :class:`CheckpointStore` instead; this shorthand suits one-shot
    tail consumers (``examples/delta_tail.py --from-checkpoint``)."""
    return CheckpointStore(root, keep=keep).recover()
