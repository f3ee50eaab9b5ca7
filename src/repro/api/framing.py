"""Socket framing and control records for the network serving layer.

The JSONL wire protocol (:mod:`repro.api.wire`) was built for files: a
record per line, framing by newline.  A TCP stream needs more — reads
tear records at arbitrary byte boundaries, a dying peer leaves a torn
tail, and a faulty middlebox (or test harness) can duplicate or drop
chunks.  This module supplies the missing transport layer:

* **Frames** — every payload crosses the socket as::

      @<seq> <len>\\n<payload>\\n

  an ASCII header carrying a per-connection sequence number and the
  payload's byte length, then the payload, then one newline.  The
  length prefix makes framing independent of payload content
  (newline-safe); the trailing newline keeps captures greppable.  The
  sequence number is the loss/duplication detector: a
  :class:`FrameDecoder` insists on ``0, 1, 2, ...`` and raises
  :class:`~repro.errors.FramingError` on any violation, so a duplicated
  or dropped frame surfaces as a loud error (triggering the client's
  reconnect-with-re-prime) instead of a silently diverged result.

* **Control records** — the negotiation vocabulary of
  :mod:`repro.api.net`, encoded with the same canonical JSON rules as
  the data records so the byte-identity property (encode ∘ decode ==
  identity) holds across the whole stream: :class:`HelloRecord` (both
  directions; the server's reply carries the reconnect token and
  heartbeat cadence), :class:`WatchRequest` / :class:`ResumeRequest`
  (client -> server), :class:`HeartbeatRecord`, :class:`PingRecord` /
  :class:`PongRecord` (the drain barrier), :class:`ErrorRecord` and
  :class:`ByeRecord`.  :func:`encode_net_record` /
  :func:`decode_net_record` handle the union of control records and
  the wire data records (spec / watch / snapshot / delta / batch),
  delegating the latter to :mod:`repro.api.wire` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.api import wire
from repro.api.specs import QuerySpec, spec_from_dict
from repro.errors import FramingError, QueryError, WireError

#: Hard ceiling on one frame's payload size; a larger length prefix is
#: treated as stream corruption, not a request to buffer without bound.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Longest legal header (``@<seq> <len>\n``); headers are tiny, so a
#: missing newline inside this window means the stream is corrupt.
_MAX_HEADER_BYTES = 64


# ---------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------


class FrameEncoder:
    """Stateful framer for one connection direction.

    Stamps consecutive sequence numbers starting at 0; the peer's
    :class:`FrameDecoder` verifies them.  A reconnect starts a fresh
    encoder/decoder pair (sequence numbers are per-connection).
    """

    def __init__(self) -> None:
        self.seq = 0

    def encode(self, payload: str) -> bytes:
        """Frame one payload: header, payload bytes, terminator."""
        data = payload.encode("utf-8")
        if len(data) > MAX_FRAME_BYTES:
            raise FramingError(
                f"frame payload of {len(data)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte ceiling"
            )
        frame = b"@%d %d\n%s\n" % (self.seq, len(data), data)
        self.seq += 1
        return frame


class FrameDecoder:
    """Incremental frame parser: feed raw socket bytes, get payloads.

    Tolerates arbitrary read boundaries (a frame may arrive one byte at
    a time or many frames per read).  Raises
    :class:`~repro.errors.FramingError` on a malformed header, an
    oversized length, a missing frame terminator, or a sequence-number
    violation — every one of which means the stream can no longer be
    trusted and the connection must be re-primed.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.expected_seq = 0
        self.frames_decoded = 0

    @property
    def partial_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame — a
        nonzero value at EOF is a torn tail (the peer died mid-frame)."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[str]:
        """Absorb ``data``; return every complete payload it finishes,
        in order (possibly none)."""
        self._buf.extend(data)
        out: list[str] = []
        while True:
            payload = self._next_frame()
            if payload is None:
                return out
            out.append(payload)

    def _next_frame(self) -> str | None:
        newline = self._buf.find(b"\n", 0, _MAX_HEADER_BYTES + 1)
        if newline < 0:
            if len(self._buf) > _MAX_HEADER_BYTES:
                raise FramingError(
                    "no frame header terminator within "
                    f"{_MAX_HEADER_BYTES} bytes: corrupt stream"
                )
            return None
        header = bytes(self._buf[:newline])
        seq, length = self._parse_header(header)
        end = newline + 1 + length
        if len(self._buf) < end + 1:  # payload + trailing newline
            return None
        if self._buf[end] != ord("\n"):
            raise FramingError(
                f"frame {seq} is not newline-terminated: corrupt stream"
            )
        if seq != self.expected_seq:
            raise FramingError(
                f"frame sequence violation: expected {self.expected_seq}, "
                f"got {seq} (duplicated, dropped or reordered frame)"
            )
        try:
            payload = bytes(self._buf[newline + 1:end]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FramingError(
                f"frame {seq} is not UTF-8 ({exc.reason}): corrupt stream"
            ) from None
        del self._buf[:end + 1]
        self.expected_seq += 1
        self.frames_decoded += 1
        return payload

    @staticmethod
    def _parse_header(header: bytes) -> tuple[int, int]:
        if not header.startswith(b"@"):
            raise FramingError(
                f"bad frame header {header[:32]!r}: corrupt stream"
            )
        parts = header[1:].split(b" ")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise FramingError(
                f"bad frame header {header[:32]!r}: corrupt stream"
            )
        seq, length = int(parts[0]), int(parts[1])
        if length > MAX_FRAME_BYTES:
            raise FramingError(
                f"frame length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte ceiling"
            )
        return seq, length


# ---------------------------------------------------------------------
# control records
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class HelloRecord:
    """Connection opener, both directions.

    The client sends ``token=None`` on a fresh connection; the server
    replies with the assigned reconnect token and its heartbeat cadence
    in seconds (the client should assume the server is gone after a few
    silent cadences)."""

    token: str | None = None
    heartbeat_s: float | None = None


@dataclass(frozen=True)
class WatchRequest:
    """Client -> server: start streaming one standing query.

    With ``query_id`` naming an already-standing query, the server
    subscribes this connection to it (``spec``, when also given, must
    match the registered one).  Otherwise ``spec`` is registered as a
    new standing query (optionally under ``query_id``).  The server
    acks with a ``watch`` record carrying the final id and spec, then a
    ``snapshot`` record, then the live delta stream."""

    spec: QuerySpec | None = None
    query_id: str | None = None


@dataclass(frozen=True)
class ResumeRequest:
    """Client -> server, first record of a reconnect: re-adopt the
    session behind ``token``.  The server re-acks every query the token
    watched (``watch`` record, then a *current* ``snapshot`` — the
    re-prime that makes the resumed stream bit-identical to an
    uninterrupted one) and resumes live streaming."""

    token: str


@dataclass(frozen=True)
class HeartbeatRecord:
    """Periodic liveness signal (per-connection counter)."""

    seq: int


@dataclass(frozen=True)
class PingRecord:
    """Client -> server drain barrier: the server replies with the
    matching :class:`PongRecord` only after every delta published
    before the ping was processed has been written to this
    connection."""

    nonce: int


@dataclass(frozen=True)
class PongRecord:
    """Server -> client: the :class:`PingRecord` barrier completed."""

    nonce: int


@dataclass(frozen=True)
class ErrorRecord:
    """Server -> client, fatal: the connection is about to close and
    the client must surface ``message`` (never retry silently)."""

    message: str


@dataclass(frozen=True)
class ByeRecord:
    """Clean shutdown notice (either direction): end of stream, no
    error, resume not required."""


#: Everything :func:`encode_net_record` accepts — the control records
#: above plus the file-wire data records.
NetRecord = Union[
    HelloRecord,
    WatchRequest,
    ResumeRequest,
    HeartbeatRecord,
    PingRecord,
    PongRecord,
    ErrorRecord,
    ByeRecord,
    QuerySpec,
    "wire.WatchRecord",
    "wire.SnapshotRecord",
    "wire.ResultDelta",
    "wire.DeltaBatch",
]


#: Record types owned by this layer (everything else delegates to
#: :mod:`repro.api.wire`).
_CONTROL_TYPES = frozenset(
    ("hello", "watch_req", "resume", "heartbeat", "ping", "pong",
     "error", "bye")
)


def _control_payload(record: NetRecord) -> dict[str, Any] | None:
    if isinstance(record, HelloRecord):
        body: dict[str, Any] = {"type": "hello", "token": record.token}
        if record.heartbeat_s is not None:
            body["heartbeat_s"] = float(record.heartbeat_s)
        return body
    if isinstance(record, WatchRequest):
        body = {"type": "watch_req", "query_id": record.query_id}
        if record.spec is not None:
            body["spec"] = record.spec.to_dict()
        return body
    if isinstance(record, ResumeRequest):
        return {"type": "resume", "token": str(record.token)}
    if isinstance(record, HeartbeatRecord):
        return {"type": "heartbeat", "seq": int(record.seq)}
    if isinstance(record, PingRecord):
        return {"type": "ping", "nonce": int(record.nonce)}
    if isinstance(record, PongRecord):
        return {"type": "pong", "nonce": int(record.nonce)}
    if isinstance(record, ErrorRecord):
        return {"type": "error", "message": str(record.message)}
    if isinstance(record, ByeRecord):
        return {"type": "bye"}
    return None


def encode_net_record(record: NetRecord) -> str:
    """One canonical JSON line for any net-layer record: control
    records here, data records via :func:`repro.api.wire.encode_record`
    (same envelope version, same canonical encoding)."""
    body = _control_payload(record)
    if body is None:
        return wire.encode_record(record)
    body["v"] = wire.WIRE_VERSION
    return wire._dumps(body)


def decode_net_record(line: str) -> NetRecord:
    """Parse one net-layer line back into its typed record (a field
    of the wrong type is a :class:`~repro.errors.WireError` too)."""
    data = wire.loads(line)
    if not isinstance(data, dict):
        raise WireError(f"wire record must be an object, got {data!r}")
    rtype = data.get("type")
    if not isinstance(rtype, str):
        raise WireError(f"malformed wire record type {rtype!r}")
    if rtype in _CONTROL_TYPES:
        version = data.get("v")
        if version not in wire._READABLE_VERSIONS:
            raise WireError(
                f"unsupported wire version {version!r} (this build "
                f"reads versions {wire._READABLE_VERSIONS})"
            )
    try:
        if rtype == "hello":
            token = data["token"]
            hb = data.get("heartbeat_s")
            return HelloRecord(
                None if token is None else str(token),
                None if hb is None else wire._finite(hb),
            )
        if rtype == "watch_req":
            spec = data.get("spec")
            qid = data["query_id"]
            return WatchRequest(
                None if spec is None else spec_from_dict(spec),
                None if qid is None else str(qid),
            )
        if rtype == "resume":
            return ResumeRequest(str(data["token"]))
        if rtype == "heartbeat":
            return HeartbeatRecord(int(data["seq"]))
        if rtype == "ping":
            return PingRecord(int(data["nonce"]))
        if rtype == "pong":
            return PongRecord(int(data["nonce"]))
        if rtype == "error":
            return ErrorRecord(str(data["message"]))
        if rtype == "bye":
            return ByeRecord()
    except KeyError as exc:
        raise WireError(
            f"{rtype} record missing field {exc}"
        ) from None
    except (TypeError, ValueError, OverflowError, QueryError) as exc:
        raise WireError(f"malformed {rtype} record: {exc}") from None
    return wire.decode_record(line)
