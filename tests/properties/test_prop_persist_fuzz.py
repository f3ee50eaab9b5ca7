"""Decoder fuzz target for the durable state: WAL lines and checkpoint
files either decode or raise :class:`~repro.errors.PersistError`.

Inputs are arbitrary bytes, byte- and field-level mutations of valid
WAL lines of every op (version 1 from the committed pre-change store,
version 2 from today's writer), and mutated checkpoint files (the
committed version 2 file and its version 3 rewrite).  Nothing else may
escape a decoder: :func:`~repro.persist.wal.read_wal`'s torn-tail rule
and recovery's fallback only catch ``PersistError``.  A record that
does decode must re-encode canonically — encoding it again after one
more decode gives the same line — so no decoder accepts what the
writer could not have written.

Alongside: the packed location form round-trips every finite float64
bit pattern, and the version 1 reader gives the same arrays as the
version 2 reader of the same record.
"""

import base64
import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.wire import FeedReadStats
from repro.errors import PersistError, ReproError
from repro.geometry import Circle, Point
from repro.objects import InstanceSet
from repro.objects.population import ObjectMove
from repro.persist import WalEvent, WalMoves, read_checkpoint, read_wal
from repro.persist.checkpoint import write_checkpoint
from repro.persist.codec import object_from_dict, object_to_dict
from repro.persist.wal import decode_wal_record, encode_wal_record
from repro.space.door import DoorDirection
from repro.space.events import (
    MergePartitions,
    OpenDoor,
    SetDoorDirection,
    SplitPartition,
)

STORE = Path(__file__).resolve().parents[1] / "fixtures" / "store_v1"
V1_LINES = (STORE / "wal-000001.jsonl").read_text().splitlines()
V2_CHECKPOINT = (STORE / "checkpoint-000001.jsonl").read_bytes()

_EVENTS = (
    SplitPartition(
        "r4",
        "x",
        7.5,
        new_ids=("r4a", "r4b"),
        connecting_door=True,
        connecting_door_id="d4s",
    ),
    SplitPartition("r5", "y", 19.0),
    MergePartitions(("r4a", "r4b"), new_id="r4"),
    OpenDoor("d12"),
    SetDoorDirection("d1", DoorDirection.ONE_WAY, from_partition="r1"),
)
V2_LINES = [encode_wal_record(decode_wal_record(x)) for x in V1_LINES] + [
    encode_wal_record(WalEvent(event)) for event in _EVENTS
]
SEED_LINES = V1_LINES + V2_LINES
WAL_OPS = {"watch", "unwatch", "moves", "insert", "delete", "event"}


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _b64(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def _decodes_or_fails_closed(line):
    """Decode ``line``; ``None`` on ``PersistError``.  A decoded record
    must re-encode, and the re-encoding is a fixed point."""
    try:
        record = decode_wal_record(line)
    except PersistError:
        return None
    text = encode_wal_record(record)
    assert encode_wal_record(decode_wal_record(text)) == text
    return record


def _reads_or_fails_closed(path):
    """Read a checkpoint and decode its objects; ``None`` on
    ``PersistError``.  Decoded objects re-encode canonically."""
    try:
        state = read_checkpoint(path)
        objects = list(state.uncertain_objects())
    except PersistError:
        return None
    for obj in objects:
        payload = object_to_dict(obj)
        assert object_to_dict(object_from_dict(payload)) == payload
    return state


# -- hostile values and mutations -----------------------------------------

_PACKED = st.sampled_from(
    [
        "",
        "AAAA",  # 3 bytes
        _b64([1.0]),  # one float: not an xy pair
        _b64([1.0, 2.0, 3.0]),
        _b64([math.nan, 1.0]),
        _b64([1.0, math.inf]),
        _b64([0.5, 0.5, 0.5]),
        _b64([2.0]),  # a mass of 2
        _b64([-0.5, 1.5]),
        _b64([1.0, 2.0])[:-2],  # bad padding
        "!!!!",
        "QUJD\n",
        "éAAA",
    ]
)
_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    _PACKED,
    st.lists(st.floats(allow_nan=True), max_size=4),
    st.lists(st.lists(st.floats(-50, 50), max_size=3), max_size=3),
    st.just({}),
    st.just([]),
    st.just([[[[1.0]]]]),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
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
    paths = _paths(payload)
    prefix, key = data.draw(st.sampled_from(paths))
    parent = payload
    for step in prefix:
        parent = parent[step]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = data.draw(_HOSTILE)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=6))] = data.draw(_HOSTILE)
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


def _text(raw):
    # What recovery's reader hands decode_wal_record for these bytes.
    return raw.decode("utf-8", errors="surrogateescape")


_FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- WAL lines --------------------------------------------------------------


class TestWalDecoderFuzz:
    @_FUZZ
    @given(raw=st.binary(max_size=400))
    def test_arbitrary_bytes(self, raw):
        _decodes_or_fails_closed(_text(raw))

    @_FUZZ
    @given(text=st.text(max_size=200))
    def test_arbitrary_text(self, text):
        _decodes_or_fails_closed(text)

    @_FUZZ
    @given(line=st.sampled_from(SEED_LINES), edits=_EDITS)
    def test_byte_mutations_of_valid_lines(self, line, edits):
        _decodes_or_fails_closed(_text(_mutate_bytes(line.encode(), edits)))

    @_FUZZ
    @given(line=st.sampled_from(SEED_LINES), data=st.data())
    def test_field_mutations_of_valid_lines(self, line, data):
        payload = _mutate_field(data, json.loads(line))
        # allow_nan: NaN / Infinity literals are part of the attack.
        _decodes_or_fails_closed(json.dumps(payload, sort_keys=True))

    @_FUZZ
    @given(
        garbage=st.binary(max_size=200),
        where=st.integers(0, len(V2_LINES)),
    )
    def test_read_wal_raises_only_persist_errors(self, garbage, where):
        """One bad line is a torn tail at the end, a typed failure
        anywhere before it — never another exception."""
        lines = list(V2_LINES)
        lines.insert(where, _text(garbage))
        stats = FeedReadStats()
        try:
            records = list(read_wal(lines, stats))
        except PersistError:
            assert where < len(V2_LINES)
            return
        blank = not _text(garbage).strip()  # skipped, not a record
        assert len(records) + stats.torn_tail + blank == len(lines)


class TestWalRoundTrip:
    def test_valid_lines_of_every_op_are_canonical(self):
        ops = {json.loads(line)["op"] for line in V2_LINES}
        assert ops == WAL_OPS
        for line in V2_LINES:
            assert encode_wal_record(decode_wal_record(line)) == line

    def test_v1_and_v2_readers_give_the_same_bytes(self):
        for old, new in zip(V1_LINES, V2_LINES):
            a, b = decode_wal_record(old), decode_wal_record(new)
            assert type(a) is type(b)
            if isinstance(a, WalMoves):
                pairs = [
                    (m.new_instances, n.new_instances)
                    for m, n in zip(a.moves, b.moves)
                ]
            elif hasattr(a, "obj"):
                pairs = [(a.obj.instances, b.obj.instances)]
            else:
                assert a == b
                continue
            for x, y in pairs:
                assert x.xy.tobytes() == y.xy.tobytes()
                assert x.probs.tobytes() == y.probs.tobytes()
                assert x.xy.flags.writeable and y.xy.flags.writeable

    def test_a_v2_line_is_about_half_the_v1_bytes(self):
        old = sum(len(x) for x in V1_LINES if '"moves"' in x)
        new = sum(len(x) for x in V2_LINES if '"moves"' in x)
        assert new < 0.7 * old

    @settings(max_examples=200, deadline=None)
    @given(
        xy=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=12,
        ),
        weights=st.lists(st.floats(0.01, 100.0), min_size=12, max_size=12),
        uniform=st.booleans(),
    )
    def test_packed_locations_are_bit_exact(self, xy, weights, uniform):
        xy = np.array(xy, dtype=float)
        n = len(xy)
        w = np.array(weights[:n])
        probs = np.full(n, 1.0 / n) if uniform else w / w.sum()
        center = Point(0.25, -0.0, 2)
        move = ObjectMove("o", Circle(center, 3.5), InstanceSet(xy, 2, probs))
        line = encode_wal_record(WalMoves((move,)))
        body = json.loads(line)["moves"][0]
        uniform_bytes = np.full(n, 1.0 / n).tobytes()
        assert ("probs" in body) == (probs.tobytes() != uniform_bytes)
        got = decode_wal_record(line).moves[0].new_instances
        assert got.xy.tobytes() == xy.tobytes()
        assert got.probs.tobytes() == probs.tobytes()
        assert got.xy.dtype == got.probs.dtype == np.float64
        assert got.xy.flags.writeable and got.probs.flags.writeable

    def test_the_writer_refuses_non_finite_instances(self):
        xy = np.array([[1.0, 2.0], [math.nan, 3.0]])
        with pytest.raises(ReproError, match="finite"):
            InstanceSet.uniform(xy, 0)
        # The constructor refuses it; a set whose array was written
        # after construction still reaches the writer's own check.
        forged = InstanceSet.uniform(np.array([[1.0, 2.0], [2.0, 3.0]]), 0)
        forged.xy[1, 0] = math.nan
        move = ObjectMove("o", Circle(Point(1.0, 2.0, 0), 2.0), forged)
        with pytest.raises(PersistError, match="non-finite"):
            encode_wal_record(WalMoves((move,)))


# -- the malformed payloads that used to escape untyped ----------------------


def _moves_line(version, **location):
    body = {"id": "o1", "center": [5.0, 5.0, 0], "radius": 1.0}
    if version == 1:
        body.update(xy=[[5.0, 5.0], [5.5, 5.0]], probs=[0.5, 0.5])
    else:
        body.update(xy=_b64([5.0, 5.0, 5.5, 5.0]))
    body.update(location)
    return json.dumps({"w": version, "op": "moves", "moves": [body]})


_MALFORMED = {
    "v1-probs-sum-2": _moves_line(1, probs=[1.0, 1.0]),
    "v2-probs-sum-2": _moves_line(2, probs=_b64([1.0, 1.0])),
    "v1-probs-length": _moves_line(1, probs=[1.0]),
    "v2-probs-length": _moves_line(2, probs=_b64([1.0])),
    "v1-negative-radius": _moves_line(1, radius=-1.0),
    "v2-negative-radius": _moves_line(2, radius=-1.0),
    "v1-nan-coordinate": _moves_line(1, xy=[[math.nan, 5.0], [5.5, 5.0]]),
    "v2-nan-coordinate": _moves_line(2, xy=_b64([math.nan, 5.0])),
    "v2-inf-probability": _moves_line(2, probs=_b64([math.inf, 0.0])),
    "v1-nan-probability": _moves_line(1, probs=[math.nan, 0.5]),
    "v2-nan-probability": _moves_line(2, probs=_b64([math.nan, 0.5])),
    "v1-nan-center": _moves_line(1, center=[math.nan, 5.0, 0]),
    "v2-nan-center": _moves_line(2, center=[5.0, math.nan, 0]),
    "v1-inf-radius": _moves_line(1, radius=1e999),
    "v2-inf-radius": _moves_line(2, radius=1e999),
    "v2-xy-not-pairs": _moves_line(2, xy=_b64([5.0, 5.0, 5.5])),
    "v2-probs-bytes": _moves_line(2, probs=_b64([1.0])[:-4] + "AA=="),
    "v2-bad-base64": _moves_line(2, xy="not base64!"),
    "v2-no-instances": _moves_line(2, xy=""),
    "v2-huge-floor": _moves_line(2, center=[5.0, 5.0, 1e999]),
    "event-body-list": '{"w":2,"op":"event","body":["close_door","d1"]}',
    "event-inf-coord": (
        '{"w":2,"op":"event","body":{"event":"split",'
        '"partition_id":"r1","axis":"x","coord":Infinity}}'
    ),
    "watch-nan-point": (
        '{"w":2,"op":"watch","query_id":"q","next_auto":1,'
        '"spec":{"v":1,"kind":"irq","q":[NaN,1.0,0],"r":5.0}}'
    ),
    "watch-inf-next-auto": (
        '{"w":2,"op":"watch","query_id":"q","next_auto":1e999,'
        '"spec":{"v":1,"kind":"irq","q":[1.0,1.0,0],"r":5.0}}'
    ),
    "moves-not-a-list": '{"w":2,"op":"moves","moves":7}',
    "insert-without-id": (
        '{"w":2,"op":"insert","object":{"center":[5.0,5.0,0],'
        f'"radius":1.0,"xy":"{_b64([5.0, 5.0])}"}}}}'
    ),
    "too-many-digits": '{"w":2,"op":"delete","object_id":1%s}' % ("0" * 5000),
    "deep-nesting": '{"w":2,"op":"moves","moves":' + "[" * 100000,
    "non-ascii": '{"w":2,"op":"delete","object_id":"é"}',
}


class TestMalformedPayloadsFailClosed:
    @pytest.mark.parametrize("line", _MALFORMED.values(), ids=_MALFORMED)
    def test_raises_persist_error(self, line):
        with pytest.raises(PersistError):
            decode_wal_record(line)

    @pytest.mark.parametrize("line", _MALFORMED.values(), ids=_MALFORMED)
    def test_is_a_torn_tail_at_the_end_and_fatal_before(self, line):
        stats = FeedReadStats()
        assert len(list(read_wal(V2_LINES + [line], stats))) == len(V2_LINES)
        assert stats.torn_tail == 1
        with pytest.raises(PersistError):
            list(read_wal([line] + V2_LINES))


# -- checkpoint files -------------------------------------------------------


@pytest.fixture(scope="module")
def checkpoints():
    """The committed version 2 checkpoint and its version 3 rewrite,
    as bytes, plus a temporary directory to write mutants into."""
    root = Path(tempfile.mkdtemp(prefix="persist-fuzz-"))
    v3 = root / "v3.jsonl"
    write_checkpoint(v3, read_checkpoint(STORE / "checkpoint-000001.jsonl"))
    yield {2: V2_CHECKPOINT, 3: v3.read_bytes()}, root
    shutil.rmtree(root, ignore_errors=True)


def _reseal(lines):
    body = "".join(line + "\n" for line in lines)
    digest = {
        "type": "digest",
        "algo": "sha256",
        "hex": hashlib.sha256(body.encode()).hexdigest(),
        "records": len(lines),
    }
    return (body + _canonical(digest) + "\n").encode()


class TestCheckpointDecoderFuzz:
    def test_both_versions_read_to_the_same_objects(self, checkpoints):
        blobs, root = checkpoints
        states = {}
        for version, blob in blobs.items():
            path = root / f"clean-{version}.jsonl"
            path.write_bytes(blob)
            states[version] = _reads_or_fails_closed(path)
            assert states[version].version == version
        a = list(states[2].uncertain_objects())
        b = list(states[3].uncertain_objects())
        assert [o.object_id for o in a] == [o.object_id for o in b]
        for x, y in zip(a, b):
            assert x.instances.xy.tobytes() == y.instances.xy.tobytes()
            assert x.instances.probs.tobytes() == \
                y.instances.probs.tobytes()
        assert len(blobs[3]) < len(blobs[2])

    @pytest.mark.parametrize("field", ["probs", "xy"])
    def test_an_object_carrying_a_nan_fails_closed(self, checkpoints, field):
        """A packed NaN, re-sealed so the digest passes: the object
        decoder refuses it."""
        blobs, root = checkpoints
        lines = blobs[3].decode().splitlines()[:-1]
        record = json.loads(lines[1])
        n = len(object_from_dict(record))
        width = 2 if field == "xy" else 1
        record[field] = _b64([math.nan] + [0.5] * (width * n - 1))
        lines[1] = json.dumps(record, sort_keys=True)
        path = root / "nan.jsonl"
        path.write_bytes(_reseal(lines))
        with pytest.raises(PersistError, match="non-finite"):
            list(read_checkpoint(path).uncertain_objects())

    @settings(max_examples=150, deadline=None)
    @given(version=st.sampled_from([2, 3]), edits=_EDITS)
    def test_unsealed_byte_mutations(self, checkpoints, version, edits):
        blobs, root = checkpoints
        path = root / "bytes.jsonl"
        path.write_bytes(_mutate_bytes(blobs[version], edits))
        _reads_or_fails_closed(path)

    @settings(max_examples=150, deadline=None)
    @given(version=st.sampled_from([2, 3]), edits=_EDITS, data=st.data())
    def test_resealed_byte_mutations(
        self, checkpoints, version, edits, data
    ):
        blobs, root = checkpoints
        lines = blobs[version].decode().splitlines()[:-1]
        i = data.draw(st.integers(0, len(lines) - 1))
        # Re-split the mutant as the reader will (it decodes with
        # errors="replace" and splits on every line boundary).
        mutant = _mutate_bytes(lines[i].encode(), edits)
        lines[i : i + 1] = mutant.decode(errors="replace").splitlines()
        path = root / "resealed.jsonl"
        path.write_bytes(_reseal(lines))
        _reads_or_fails_closed(path)

    @settings(max_examples=300, deadline=None)
    @given(version=st.sampled_from([2, 3]), data=st.data())
    def test_resealed_field_mutations(self, checkpoints, version, data):
        """Re-sealed, so the digest passes and the record decoders see
        the mutant: header fields and object records both."""
        blobs, root = checkpoints
        lines = blobs[version].decode().splitlines()[:-1]
        n_objects = json.loads(lines[0])["n_objects"]
        i = data.draw(st.integers(0, n_objects))  # header or an object
        lines[i] = json.dumps(
            _mutate_field(data, json.loads(lines[i])), sort_keys=True
        )
        path = root / "fields.jsonl"
        path.write_bytes(_reseal(lines))
        _reads_or_fails_closed(path)
