"""Decoder fuzz target for the wire: frames and records either decode or
raise :class:`~repro.errors.FramingError` /
:class:`~repro.errors.WireError`.

Inputs are arbitrary bytes and byte-mutated valid frame streams into
:meth:`~repro.api.framing.FrameDecoder.feed`, and arbitrary text,
byte- and field-level mutations of valid lines of every record type,
and type-tagged JSON objects with hostile field values into
:func:`~repro.api.framing.decode_net_record` and
:func:`~repro.api.wire.decode_record`.  Nothing else may escape: the
server's read loop answers a ``WireError`` with an ``error`` record and
would let any other exception kill the connection unexplained.  A
record that does decode must re-encode canonically (encoding it again
after one more decode gives the same line and the same record), and a
frame decoder never yields a payload it was not fully sent.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import wire
from repro.api.framing import (
    ByeRecord,
    ErrorRecord,
    FrameDecoder,
    FrameEncoder,
    HeartbeatRecord,
    HelloRecord,
    PingRecord,
    PongRecord,
    ResumeRequest,
    WatchRequest,
    decode_net_record,
    encode_net_record,
)
from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    RangeSpec,
)
from repro.errors import FramingError, WireError
from repro.geometry import Point
from repro.queries.deltas import DeltaBatch, ResultDelta

Q = Point(5.0, 5.0, 0)
SPECS = (
    RangeSpec(Q, 8.0),
    KNNSpec(Q, 3),
    ProbRangeSpec(Q, 10.0, 0.5),
    CountSpec(Q, 12.0, 2),
    OccupancySpec("r1", 4),
)
DELTA = ResultDelta(
    "kiosk",
    "move",
    entered={"o1": 4.25, "o2": None},
    left=("o3",),
    distance_changed={"o4": 7.5},
)
PROB_DELTA = ResultDelta("board", "insert", probability_changed={"o5": 0.75})
DATA_RECORDS = (
    *SPECS,
    wire.WatchRecord("kiosk", SPECS[0]),
    wire.SnapshotRecord("kiosk", {"o1": 4.25, "o2": None}),
    DELTA,
    PROB_DELTA,
    DeltaBatch((DELTA, PROB_DELTA)),
)
CONTROL_RECORDS = (
    HelloRecord(),
    HelloRecord("t-1", 2.0),
    WatchRequest(SPECS[1], None),
    WatchRequest(None, "kiosk"),
    WatchRequest(SPECS[2], "board"),
    ResumeRequest("t-1"),
    HeartbeatRecord(3),
    PingRecord(7),
    PongRecord(7),
    ErrorRecord("boom"),
    ByeRecord(),
)
DATA_LINES = [wire.encode_record(r) for r in DATA_RECORDS]
# A version 1 delta line: no prob_changed field.
_V1_BODY = json.loads(wire.encode_record(DELTA))
del _V1_BODY["prob_changed"]
V1_LINES = [json.dumps(_V1_BODY | {"v": 1})]
NET_LINES = [encode_net_record(r) for r in CONTROL_RECORDS] + DATA_LINES
SEED_LINES = NET_LINES + V1_LINES

DECODERS = {
    "net": (decode_net_record, encode_net_record),
    "wire": (wire.decode_record, wire.encode_record),
}


def _decodes_or_fails_closed(line, which=None):
    """Decode ``line`` with each decoder; ``WireError`` is the only
    failure, and a decoded record re-encodes to a fixed point."""
    for name, (decode, encode) in DECODERS.items():
        if which is not None and name != which:
            continue
        try:
            record = decode(line)
        except WireError:
            continue
        text = encode(record)
        assert decode(text) == record
        assert encode(decode(text)) == text


# -- hostile values and mutations -----------------------------------------

_SPEC_BODIES = st.fixed_dictionaries(
    {
        "v": st.sampled_from([1, 2, "1", None]),
        "kind": st.sampled_from(
            ["irq", "iknn", "iprq", "icount", "iocc", "x"]
        ),
    },
    optional={
        "q": st.one_of(
            st.lists(st.floats(allow_nan=True), max_size=4),
            st.just([1.0, 2.0, 1e300]),
            st.just(["1", "inf", 0]),
        ),
        "r": st.one_of(st.floats(), st.just("inf"), st.just(10**400)),
        "k": st.one_of(st.integers(-3, 3), st.floats(), st.just("2")),
        "p_min": st.floats(),
        "threshold": st.one_of(st.integers(-3, 3), st.just(1e300)),
        "partition": st.one_of(st.text(max_size=4), st.integers()),
    },
)
_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["nan", "inf", "-Infinity", "1e999", "9" * 5000, "2"]),
    st.lists(st.floats(allow_nan=True), max_size=4),
    st.just({}),
    st.just([]),
    st.just([[[[1.0]]]]),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    st.dictionaries(
        st.text(max_size=3),
        st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=2)),
        max_size=3,
    ),
    _SPEC_BODIES,
)
_TYPES = (
    "hello", "watch_req", "resume", "heartbeat", "ping", "pong", "error",
    "bye", "spec", "watch", "snapshot", "delta", "batch", "other",
)
_FIELDS = (
    "token", "heartbeat_s", "query_id", "spec", "seq", "nonce", "message",
    "members", "cause", "entered", "left", "changed", "prob_changed",
    "deltas",
)


def _paths(node, prefix=()):
    """Every (container path, key) in a decoded JSON tree."""
    out = []
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return out
    for key, child in items:
        out.append((prefix, key))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _mutate_field(data, payload):
    """Replace, delete, or add one field somewhere in ``payload``."""
    prefix, key = data.draw(st.sampled_from(_paths(payload)))
    parent = payload
    for step in prefix:
        parent = parent[step]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = data.draw(_HOSTILE)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.sampled_from(_FIELDS))] = data.draw(_HOSTILE)
    else:
        parent.append(data.draw(_HOSTILE))
    return payload


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "set", "delete", "insert"]),
        st.integers(0, 10**6),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


def _mutate_bytes(raw, edits):
    buf = bytearray(raw)
    for op, where, value in edits:
        if not buf:
            buf.append(value)
            continue
        i = where % len(buf)
        if op == "flip":
            buf[i] ^= 1 << (value % 8)
        elif op == "set":
            buf[i] = value
        elif op == "delete":
            del buf[i]
        else:
            buf.insert(i, value)
    return bytes(buf)


_FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- records ----------------------------------------------------------------


class TestRecordDecoderFuzz:
    def test_valid_lines_of_every_type_are_canonical(self):
        for record, line in zip(CONTROL_RECORDS + DATA_RECORDS, NET_LINES):
            assert decode_net_record(line) == record
            assert encode_net_record(decode_net_record(line)) == line
        for record, line in zip(DATA_RECORDS, DATA_LINES):
            assert wire.decode_record(line) == record
        assert wire.decode_record(V1_LINES[0]) == DELTA

    @_FUZZ
    @given(text=st.text(max_size=200))
    def test_arbitrary_text(self, text):
        _decodes_or_fails_closed(text)

    @_FUZZ
    @given(line=st.sampled_from(SEED_LINES), edits=_EDITS)
    def test_byte_mutations_of_valid_lines(self, line, edits):
        raw = _mutate_bytes(line.encode(), edits)
        _decodes_or_fails_closed(raw.decode("utf-8", errors="replace"))

    @_FUZZ
    @given(line=st.sampled_from(SEED_LINES), data=st.data())
    def test_field_mutations_of_valid_lines(self, line, data):
        payload = _mutate_field(data, json.loads(line))
        # allow_nan: NaN / Infinity literals are part of the attack.
        _decodes_or_fails_closed(json.dumps(payload, sort_keys=True))

    @_FUZZ
    @given(
        rtype=st.sampled_from(_TYPES),
        version=st.sampled_from([1, 2, 3, None, "2"]),
        fields=st.dictionaries(
            st.sampled_from(_FIELDS), _HOSTILE, max_size=4
        ),
    )
    def test_type_tagged_objects_with_hostile_fields(
        self, rtype, version, fields
    ):
        line = json.dumps({"type": rtype, "v": version, **fields})
        _decodes_or_fails_closed(line)


# The malformed control / data lines that used to escape untyped.
_MALFORMED = {
    "heartbeat-seq-object": '{"type":"heartbeat","v":2,"seq":{}}',
    "hello-heartbeat-text": (
        '{"type":"hello","v":2,"token":null,"heartbeat_s":"x"}'
    ),
    "hello-heartbeat-nan": (
        '{"type":"hello","v":2,"token":null,"heartbeat_s":"nan"}'
    ),
    "watch-req-spec-list": (
        '{"type":"watch_req","v":2,"query_id":"a","spec":[]}'
    ),
    "spec-null": '{"type":"spec","v":1,"spec":null}',
    "spec-inf-range": (
        '{"type":"spec","v":2,"spec":{"v":1,"kind":"irq",'
        '"q":[1.0,1.0,0],"r":"inf"}}'
    ),
    "ping-nonce-huge-float": '{"type":"ping","v":2,"nonce":1e999}',
    "snapshot-nan-member": (
        '{"type":"snapshot","v":2,"query_id":"a","members":{"o":NaN}}'
    ),
    "snapshot-huge-member": (
        '{"type":"snapshot","v":2,"query_id":"a","members":{"o":1%s}}'
        % ("0" * 400)
    ),
    "delta-unknown-cause": (
        '{"type":"delta","v":2,"query_id":"a","cause":"x","entered":{},'
        '"left":[],"changed":{}}'
    ),
    "too-many-digits": '{"type":"pong","v":2,"nonce":1%s}' % ("0" * 5000),
    "deep-nesting": '{"type":"batch","v":2,"deltas":' + "[" * 100000,
}

#: The data-record lines among them, which the file decoder reads too.
_DATA_MALFORMED = (
    "spec-null",
    "spec-inf-range",
    "snapshot-nan-member",
    "snapshot-huge-member",
    "delta-unknown-cause",
    "deep-nesting",
)


class TestMalformedLinesFailClosed:
    @pytest.mark.parametrize("line", _MALFORMED.values(), ids=_MALFORMED)
    def test_net_decoder_raises_wire_error(self, line):
        with pytest.raises(WireError):
            decode_net_record(line)

    @pytest.mark.parametrize("name", _DATA_MALFORMED)
    def test_wire_decoder_raises_wire_error(self, name):
        with pytest.raises(WireError):
            wire.decode_record(_MALFORMED[name])


# -- frames -----------------------------------------------------------------


def _feed(raw, cuts):
    """Feed ``raw`` split at ``cuts``: ``(payloads, partial)``, or
    ``None`` once the decoder raised ``FramingError``."""
    decoder = FrameDecoder()
    payloads = []
    start = 0
    for end in [*sorted(set(cuts)), len(raw)]:
        try:
            payloads += decoder.feed(raw[start:end])
        except FramingError:
            return None
        start = end
    return payloads, decoder.partial_bytes


def _assert_no_phantom(raw, cuts):
    whole = _feed(raw, [])
    assert _feed(raw, [c % (len(raw) + 1) for c in cuts]) == whole
    if whole is None:
        return
    payloads, partial = whole
    framed = _framed(payloads)
    # Canonical frames of what came out never exceed what went in.
    assert len(framed) <= len(raw) - partial
    assert _feed(framed, []) == (payloads, 0)


def _framed(lines):
    encoder = FrameEncoder()
    return b"".join(encoder.encode(line) for line in lines)


_FRAMED = [_framed(NET_LINES[:n]) for n in (1, 3, len(NET_LINES))]


class TestFrameDecoderFuzz:
    @_FUZZ
    @given(raw=st.binary(max_size=300), cuts=st.lists(st.integers(0, 300)))
    def test_arbitrary_bytes(self, raw, cuts):
        _assert_no_phantom(raw, cuts)

    @_FUZZ
    @given(
        raw=st.sampled_from(_FRAMED),
        edits=_EDITS,
        cuts=st.lists(st.integers(0, 10**4), max_size=6),
    )
    def test_byte_mutations_of_valid_streams(self, raw, edits, cuts):
        _assert_no_phantom(_mutate_bytes(raw, edits), cuts)

    @pytest.mark.parametrize(
        "raw",
        [
            b"@0 2\n\xff\xfe\n",  # not UTF-8
            b"@" + b"1" * 5000 + b" 1\na\n",  # header past the limit
            b"@0 1\nab",  # no terminator
            b"@1 1\na\n",  # sequence violation
            b"x" * 100,  # no header
        ],
        ids=["not-utf8", "long-header", "unterminated", "seq", "garbage"],
    )
    def test_corrupt_streams_raise_framing_error(self, raw):
        with pytest.raises(FramingError):
            FrameDecoder().feed(raw)

    def test_records_decode_from_any_split(self):
        raw = _FRAMED[-1]
        for cut in range(len(raw)):
            payloads, partial = _feed(raw, [cut])
            assert payloads == NET_LINES and partial == 0
        for line in _feed(raw, [])[0]:
            _decodes_or_fails_closed(line, "net")
