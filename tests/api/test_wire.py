"""The wire protocol's two contracts.

* **Byte-identity** (property-tested): for every record type,
  ``encode_record(decode_record(line)) == line`` byte for byte — the
  canonical encoding admits exactly one serialization per value, so
  feeds can be diffed, deduplicated and content-addressed.
* **Replay fidelity**: a feed written by a live
  :class:`~repro.api.service.QueryService` (moves, insert, delete,
  topology event, late registration, deregistration) decodes and
  replays into exactly the standing queries' live results.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import wire
from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.api.service import QueryService
from repro.errors import WireError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove
from repro.queries import DeltaBatch, ResultDelta
from repro.queries.deltas import DELTA_CAUSES
from repro.space.events import CloseDoor

# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------

finite = st.floats(
    allow_nan=False,
    allow_infinity=False,
    width=64,
    min_value=-1e9,
    max_value=1e9,
)
non_negative = st.floats(
    allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e9
)
points = st.builds(
    Point,
    x=finite,
    y=finite,
    floor=st.integers(min_value=-3, max_value=40),
)
object_ids = st.text(
    alphabet="abco123-_ .é√",  # ascii + a non-ascii spot check
    min_size=1,
    max_size=12,
)
distances = st.one_of(st.none(), non_negative)
specs = st.one_of(
    st.builds(RangeSpec, q=points, r=non_negative),
    st.builds(KNNSpec, q=points, k=st.integers(1, 500)),
    st.builds(
        ProbRangeSpec,
        q=points,
        r=non_negative,
        p_min=st.floats(min_value=0.01, max_value=1.0),
    ),
)
deltas = st.builds(
    ResultDelta,
    query_id=object_ids,
    cause=st.sampled_from(DELTA_CAUSES),
    entered=st.dictionaries(object_ids, distances, max_size=5),
    left=st.lists(object_ids, max_size=5).map(tuple),
    distance_changed=st.dictionaries(object_ids, distances, max_size=5),
    probability_changed=st.dictionaries(
        object_ids,
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        max_size=5,
    ),
)
records = st.one_of(
    specs,
    deltas,
    st.builds(
        DeltaBatch, deltas=st.lists(deltas, max_size=4).map(tuple)
    ),
    st.builds(wire.WatchRecord, query_id=object_ids, spec=specs),
    st.builds(
        wire.SnapshotRecord,
        query_id=object_ids,
        members=st.dictionaries(object_ids, distances, max_size=6),
    ),
)


class TestByteIdentity:
    @given(record=records)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_encode_is_byte_identical(self, record):
        line = wire.encode_record(record)
        decoded = wire.decode_record(line)
        assert wire.encode_record(decoded) == line

    @given(record=st.one_of(deltas, specs))
    @settings(max_examples=100, deadline=None)
    def test_decode_inverts_encode_as_values(self, record):
        assert wire.decode_record(wire.encode_record(record)) == record


class TestRejection:
    def test_bad_json_rejected(self):
        with pytest.raises(WireError):
            wire.decode_record("{not json")
        with pytest.raises(WireError):
            wire.decode_record('"just a string"')

    def test_unknown_version_and_type_rejected(self):
        line = wire.encode_record(ResultDelta("q", "move", {"a": 1.0}))
        assert '"v":2' in line  # the current wire version
        with pytest.raises(WireError):
            wire.decode_record(line.replace('"v":2', '"v":99'))
        with pytest.raises(WireError):
            wire.decode_record(
                line.replace('"type":"delta"', '"type":"mystery"')
            )

    def test_non_finite_distance_refused(self):
        with pytest.raises(WireError):
            wire.encode_record(
                ResultDelta("q", "move", {"a": float("inf")})
            )

    def test_boolean_distance_refused_on_decode(self):
        """bool is an int subclass; a JSON `true` distance must fail
        loudly, not decode as 1.0."""
        line = wire.encode_record(ResultDelta("q", "move", {"a": 1.0}))
        with pytest.raises(WireError):
            wire.decode_record(line.replace('"a":1.0', '"a":true'))

    def test_unknown_cause_refused_on_decode(self):
        line = wire.encode_record(ResultDelta("q", "move", {"a": 1.0}))
        with pytest.raises(WireError):
            wire.decode_record(
                line.replace('"cause":"move"', '"cause":"teleport"')
            )

    def test_unencodable_record_refused(self):
        with pytest.raises(WireError):
            wire.encode_record({"not": "a record"})


class TestV1Compatibility:
    """WIRE_VERSION is 2 (the ``prob_changed`` delta field); the
    decoder must keep reading version-1 feeds unchanged."""

    def _as_v1(self, line: str) -> str:
        """Strip a freshly encoded v2 line down to its v1 form."""
        import json

        data = json.loads(line)
        data["v"] = 1

        def strip(body):
            assert body.pop("prob_changed") == {}
            return body

        if data["type"] == "delta":
            strip(data)
        elif data["type"] == "batch":
            data["deltas"] = [strip(b) for b in data["deltas"]]
        return json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @given(record=records)
    @settings(max_examples=100, deadline=None)
    def test_v1_records_decode(self, record):
        from hypothesis import assume

        # Only records without probability annotations ever existed in
        # v1 feeds.
        if isinstance(record, ResultDelta):
            assume(not record.probability_changed)
        elif isinstance(record, DeltaBatch):
            assume(
                all(not d.probability_changed for d in record.deltas)
            )
        line = wire.encode_record(record)
        assert wire.decode_record(self._as_v1(line)) == \
            wire.decode_record(line)

    def test_v1_delta_decodes_with_empty_probabilities(self):
        line = (
            '{"cause":"move","changed":{"o2":3.5},"entered":{"o1":1.0},'
            '"left":["o3"],"query_id":"kiosk","type":"delta","v":1}'
        )
        delta = wire.decode_record(line)
        assert delta == ResultDelta(
            "kiosk", "move", {"o1": 1.0}, ("o3",), {"o2": 3.5}
        )
        assert delta.probability_changed == {}
        # Re-encoding yields the v2 form of the same value.
        v2 = wire.encode_record(delta)
        assert '"v":2' in v2 and '"prob_changed":{}' in v2
        assert wire.decode_record(v2) == delta

    def test_v1_feed_replays_like_v2(self):
        service_deltas = [
            ResultDelta("q", "register", {"a": 1.0, "b": 2.0}),
            ResultDelta("q", "move", {"c": 3.0}, ("a",), {"b": 1.5}),
            ResultDelta("q", "delete", {}, ("c",)),
        ]
        v2_lines = [wire.encode_record(d) for d in service_deltas]
        v1_lines = [self._as_v1(line) for line in v2_lines]
        want = wire.replay_feed(wire.read_feed(v2_lines))
        assert wire.replay_feed(wire.read_feed(v1_lines)) == want
        assert want == {"q": {"b": 1.5}}

    def test_v2_probability_delta_round_trips(self):
        delta = ResultDelta(
            "vip", "move", {"o1": None}, ("o2",),
            probability_changed={"o3": 0.75},
        )
        line = wire.encode_record(delta)
        assert '"prob_changed":{"o3":0.75}' in line
        decoded = wire.decode_record(line)
        assert decoded == delta
        assert wire.encode_record(decoded) == line
        state = {"o2": 0.9, "o3": 0.5}
        decoded.apply_to(state)
        assert state == {"o1": None, "o3": 0.75}


# ---------------------------------------------------------------------
# live replay fidelity
# ---------------------------------------------------------------------


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


@pytest.fixture
def five_rooms_index(five_rooms):
    pop = ObjectPopulation(five_rooms)
    pop.insert(_point_object("near", 4.0, 5.0))
    pop.insert(_point_object("mid", 8.0, 5.0))
    pop.insert(_point_object("far", 25.0, 5.0))
    return CompositeIndex.build(five_rooms, pop)


Q1 = Point(5.0, 5.0, 0)
Q3 = Point(25.0, 5.0, 0)


class TestFeedReplay:
    def test_replayed_feed_equals_live_results(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        a = service.watch(RangeSpec(Q1, 10.0))
        fp = io.StringIO()
        service.attach_feed(fp)  # header covers the pre-existing query
        b = service.watch(KNNSpec(Q3, 2))  # late watch rides the feed
        service.ingest([_point_move("far", 6.0, 6.0)])
        service.insert(_point_object("new", 24.0, 5.0))
        service.ingest([_point_move("near", 21.0, 5.0)])
        service.delete("mid")
        service.apply_event(CloseDoor("d12"))
        service.ingest([_point_move("far", 25.0, 5.0)])

        states = wire.replay_feed(
            wire.read_feed(fp.getvalue().splitlines())
        )
        live = {
            qid: service.result_distances(qid)
            for qid in service.query_ids()
        }
        assert states == live
        assert set(states) == {a, b}

        # Deregistration closes the query on the wire too.
        service.unwatch(a)
        states = wire.replay_feed(
            wire.read_feed(fp.getvalue().splitlines())
        )
        assert set(states) == {b}
        assert states[b] == service.result_distances(b)

    def test_detached_feed_gets_no_later_line(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        a = service.watch(RangeSpec(Q1, 10.0))
        kept, dropped = io.StringIO(), io.StringIO()
        service.attach_feed(kept)
        writer = service.attach_feed(dropped)
        service.ingest([_point_move("far", 6.0, 6.0)])
        cut = dropped.getvalue()
        assert cut == kept.getvalue()  # both carried the first batch

        service.detach_feed(writer)
        b = service.watch(KNNSpec(Q3, 2))
        service.ingest([_point_move("near", 21.0, 5.0)])
        service.insert(_point_object("new", 24.0, 5.0))
        assert dropped.getvalue() == cut
        assert kept.getvalue() != cut

        states = wire.replay_feed(
            wire.read_feed(kept.getvalue().splitlines())
        )
        assert states == {
            qid: service.result_distances(qid) for qid in (a, b)
        }

        service.detach_feed(writer)  # a second detach is a no-op
        service.ingest([_point_move("far", 25.0, 5.0)])
        assert dropped.getvalue() == cut
        states = wire.replay_feed(
            wire.read_feed(kept.getvalue().splitlines())
        )
        assert states[a] == service.result_distances(a)
        assert states[b] == service.result_distances(b)

    def test_feed_lines_round_trip_byte_identically(
        self, five_rooms_index
    ):
        service = QueryService(five_rooms_index)
        fp = io.StringIO()
        service.attach_feed(fp)
        service.watch(RangeSpec(Q1, 10.0))
        service.ingest([_point_move("far", 6.0, 6.0)])
        lines = fp.getvalue().splitlines()
        assert lines  # watch + register + move records at least
        for line in lines:
            assert wire.encode_record(wire.decode_record(line)) == line

    def test_blank_lines_skipped(self):
        delta = ResultDelta("q", "move", {"a": 1.0})
        text = "\n" + wire.encode_record(delta) + "\n\n"
        assert list(wire.read_feed(text.splitlines())) == [delta]


class TestTornTail:
    """A writer killed mid-record leaves a torn final line; tailing it
    must replay everything before the tear, skip the tear with a
    counter, and still crash loudly on *mid*-feed corruption."""

    LINES = [
        wire.encode_record(ResultDelta("q", "register", {"a": 1.0})),
        wire.encode_record(
            ResultDelta("q", "move", {"b": 2.0}, ("a",))
        ),
    ]

    def test_torn_final_record_skipped_and_counted(self):
        torn = self.LINES + [self.LINES[1][: len(self.LINES[1]) // 2]]
        stats = wire.FeedReadStats()
        records = list(wire.read_feed(torn, stats))
        assert records == list(wire.read_feed(self.LINES))
        assert stats.records == 2
        assert stats.torn_tail == 1
        assert wire.replay_feed(records) == {"q": {"b": 2.0}}

    def test_torn_tail_tolerated_without_stats(self):
        torn = self.LINES + ['{"half a reco']
        assert list(wire.read_feed(torn)) == \
            list(wire.read_feed(self.LINES))

    def test_trailing_blank_lines_after_tear_still_a_tail(self):
        torn = self.LINES + ['{"v":2,"type":"del', "", "  ", ""]
        stats = wire.FeedReadStats()
        assert len(list(wire.read_feed(torn, stats))) == 2
        assert stats.torn_tail == 1

    def test_mid_feed_corruption_still_raises(self):
        corrupt = [self.LINES[0], '{"not a record', self.LINES[1]]
        with pytest.raises(WireError):
            list(wire.read_feed(corrupt))

    def test_intact_feed_counts_no_tear(self):
        stats = wire.FeedReadStats()
        assert len(list(wire.read_feed(self.LINES, stats))) == 2
        assert stats == wire.FeedReadStats(records=2, torn_tail=0)

    def test_replay_feed_surfaces_stats_for_raw_lines(self):
        """One call does it all: raw lines in, folded states out, the
        decode pass (including a skipped tear) observable via stats."""
        torn = self.LINES + ['{"half a reco']
        stats = wire.FeedReadStats()
        assert wire.replay_feed(torn, stats) == {"q": {"b": 2.0}}
        assert stats == wire.FeedReadStats(records=2, torn_tail=1)

    def test_replay_feed_surfaces_stats_for_decoded_records(self):
        records = list(wire.read_feed(self.LINES))
        stats = wire.FeedReadStats()
        assert wire.replay_feed(records, stats) == {"q": {"b": 2.0}}
        assert stats == wire.FeedReadStats(records=2, torn_tail=0)

    def test_live_feed_with_torn_tail_replays_to_live_state(
        self, five_rooms_index
    ):
        """End to end: kill the writer mid-record, tail the feed — the
        replay equals the last fully written state."""
        service = QueryService(five_rooms_index)
        fp = io.StringIO()
        service.attach_feed(fp)
        a = service.watch(RangeSpec(Q1, 10.0))
        service.ingest([_point_move("far", 6.0, 6.0)])
        want = wire.replay_feed(wire.read_feed(
            fp.getvalue().splitlines()
        ))
        # the writer dies 10 bytes into the next record
        torn = fp.getvalue() + wire.encode_record(
            ResultDelta(a, "move", {"x": 1.0})
        )[:10]
        stats = wire.FeedReadStats()
        got = wire.replay_feed(wire.read_feed(
            torn.splitlines(), stats
        ))
        assert got == want
        assert stats.torn_tail == 1

    def test_standing_iprq_rides_the_feed(self, five_rooms_index):
        """A watched ProbRangeSpec flows through the v2 wire end to
        end: watch header, probability-annotated deltas, exact replay."""
        service = QueryService(five_rooms_index)
        fp = io.StringIO()
        service.attach_feed(fp)
        c = service.watch(ProbRangeSpec(Q1, 10.0, 0.5))
        service.ingest([_point_move("far", 6.0, 6.0)])
        service.insert(_point_object("new", 24.0, 5.0))
        service.delete("mid")
        service.ingest([_point_move("far", 25.0, 5.0)])
        records = list(wire.read_feed(fp.getvalue().splitlines()))
        watches = [
            r for r in records if isinstance(r, wire.WatchRecord)
        ]
        assert any(
            w.query_id == c and w.spec == ProbRangeSpec(Q1, 10.0, 0.5)
            for w in watches
        )
        states = wire.replay_feed(records)
        assert states[c] == service.result_distances(c)

    def test_lossy_subscription_writes_midstream_snapshot(
        self, five_rooms_index
    ):
        """Feed resumption after loss: a bounded subscription shedding
        deltas makes the server emit the query's current result as a
        snapshot record into every attached feed — so a consumer
        resuming at (or joining after) the loss point replays exactly."""
        service = QueryService(five_rooms_index)
        a = service.watch(RangeSpec(Q1, 10.0))
        fp = io.StringIO()
        service.attach_feed(fp)
        sub = service.subscribe(a, maxlen=2)  # holds its prime
        service.ingest([_point_move("far", 6.0, 6.0)])   # queue fills
        service.ingest([_point_move("far", 25.0, 5.0)])  # drops oldest
        service.ingest([_point_move("far", 6.5, 6.0)])   # drops again
        # Each lossy publish sheds twice: the oldest entry for its
        # delta, and the next for the re-prime queued after it.
        assert sub.dropped == 4
        records = list(wire.read_feed(fp.getvalue().splitlines()))
        snapshots = [
            (i, r)
            for i, r in enumerate(records)
            if isinstance(r, wire.SnapshotRecord) and r.query_id == a
        ]
        # The attach-time header snapshot plus one per lossy publish.
        assert len(snapshots) == 3
        last_index, last_snapshot = snapshots[-1]
        assert last_snapshot.members == service.result_distances(a)
        # A consumer that resumes from the latest snapshot alone — no
        # earlier history — still reconstructs the live result...
        resumed = wire.replay_feed(records[last_index:])
        assert resumed[a] == service.result_distances(a)
        # ...and a full replay remains exact, snapshots included.
        assert wire.replay_feed(records)[a] == \
            service.result_distances(a)

    def test_lossless_runs_write_no_extra_snapshots(
        self, five_rooms_index
    ):
        service = QueryService(five_rooms_index)
        a = service.watch(RangeSpec(Q1, 10.0))
        fp = io.StringIO()
        service.attach_feed(fp)
        service.subscribe(a)  # unbounded: never drops
        service.ingest([_point_move("far", 6.0, 6.0)])
        service.ingest([_point_move("far", 25.0, 5.0)])
        records = list(wire.read_feed(fp.getvalue().splitlines()))
        snapshots = [
            r for r in records if isinstance(r, wire.SnapshotRecord)
        ]
        assert len(snapshots) == 1  # the attach-time header only
