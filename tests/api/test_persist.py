"""The durable-state subsystem: checkpoint format, service round
trips, and store-driven crash recovery.

The contract under test, from :mod:`repro.persist`: a checkpoint plus
its WAL tail brings a service back **bit-identical** — same results,
same delta sequences from the same subsequent updates, same auto-id
allocation — and every corruption mode is either tolerated exactly
where the design says (one torn final WAL record) or raises
:class:`~repro.errors.PersistError` loudly (digest mismatch, unknown
version, mid-log corruption) with recovery falling back to the
previous manifest entry rather than restoring silently-wrong state.
"""

import base64
import errno
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.api.service import QueryService, ServiceConfig
from repro.api.specs import CountSpec, KNNSpec, ProbRangeSpec, RangeSpec
from repro.errors import PersistError, QueryError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    ObjectGenerator,
    ObjectPopulation,
    UncertainObject,
)
from repro.objects.generator import MovementStream
from repro.objects.population import ObjectMove
from repro.persist import (
    CheckpointStore,
    WalDelete,
    WalWriter,
    read_checkpoint,
    recover,
    write_checkpoint,
)
from repro.persist import wal as wal_module
from repro.persist.codec import object_from_dict, object_to_dict
from repro.queries import QueryMonitor
from repro.space.events import CloseDoor
from repro.space.mall import build_mall


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

FIXTURE_STORE = Path(__file__).resolve().parents[1] / "fixtures" / "store_v1"
WAL_OPS = {"watch", "unwatch", "moves", "insert", "delete", "event"}


def _delta_key(delta):
    """Everything a delta says, as a comparable value — bit-identity
    means these match one for one across a checkpoint boundary."""
    return (
        delta.query_id,
        delta.cause,
        dict(delta.entered),
        tuple(delta.left),
        dict(delta.distance_changed),
        dict(delta.probability_changed),
    )


def _batch_keys(batch):
    return [_delta_key(d) for d in batch if not d.is_empty]


def _list_form(record):
    """An object record as checkpoint versions 1 and 2 wrote it: the
    location as ``repr``-float lists instead of packed bytes."""
    obj = object_from_dict(record)
    record = dict(record)
    record["xy"] = obj.instances.xy.tolist()
    record["probs"] = obj.instances.probs.tolist()
    return record


def _canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _rewrite_header(path, config, header):
    """Add ``config`` keys and ``header`` keys to a checkpoint's header
    record and re-seal the file, as a build that wrote them would (an
    older version's file also carries its objects in the list form)."""
    lines = path.read_text().splitlines()
    head, digest = json.loads(lines[0]), json.loads(lines[-1])
    head["config"].update(config)
    head.update(header)
    lines[0] = _canonical(head)
    if head["v"] < 3:
        for i, line in enumerate(lines[1:-1], start=1):
            record = json.loads(line)
            if record["type"] == "object":
                lines[i] = _canonical(_list_form(record))
    body = "".join(line + "\n" for line in lines[:-1])
    digest["hex"] = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + _canonical(digest) + "\n")


def _mall_world(seed=7, n_objects=40):
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=2, floor_size=100.0,
        hallway_width=4.0, stair_size=10.0, seed=seed,
    )
    gen = ObjectGenerator(space, radius=3.0, n_instances=6, seed=seed)
    pop = gen.generate(n_objects)
    index = CompositeIndex.build(space, pop)
    stream = MovementStream(space, pop, gen, seed=seed)
    return space, stream, index


def _mall_specs(space, seed=7):
    rng = random.Random(seed)
    return [
        RangeSpec(space.random_point(rng=rng), 40.0),
        KNNSpec(space.random_point(rng=rng), 5),
        ProbRangeSpec(space.random_point(rng=rng), 30.0, 0.4),
        CountSpec(space.random_point(rng=rng), 35.0, 2),
    ]


# ---------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------


class TestCheckpointFormat:
    def _checkpoint(self, five_rooms_index, tmp_path):
        service = QueryService(five_rooms_index)
        service.watch(RangeSpec(Q1, 8.0), query_id="kiosk")
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        return path

    def test_file_is_sealed_and_tmp_free(
        self, five_rooms_index, tmp_path
    ):
        path = self._checkpoint(five_rooms_index, tmp_path)
        lines = path.read_text().splitlines()
        tail = json.loads(lines[-1])
        assert tail["type"] == "digest"
        assert tail["records"] == len(lines) - 1
        assert not list(tmp_path.glob("*.tmp"))
        state = read_checkpoint(path)
        assert state.queries[0]["query_id"] == "kiosk"
        assert [o["id"] for o in state.objects] == ["near", "mid", "far"]

    def test_flipped_bit_raises(self, five_rooms_index, tmp_path):
        path = self._checkpoint(five_rooms_index, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistError, match="digest mismatch"):
            read_checkpoint(path)

    def test_missing_digest_line_is_torn(
        self, five_rooms_index, tmp_path
    ):
        path = self._checkpoint(five_rooms_index, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(PersistError, match="torn"):
            read_checkpoint(path)

    def test_truncated_body_raises(self, five_rooms_index, tmp_path):
        path = self._checkpoint(five_rooms_index, tmp_path)
        lines = path.read_text().splitlines()
        del lines[1]  # drop an object record, keep the digest
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError):
            read_checkpoint(path)

    def test_unknown_version_rejected(
        self, five_rooms_index, tmp_path
    ):
        path = self._checkpoint(five_rooms_index, tmp_path)
        state = read_checkpoint(path)
        import repro.persist.checkpoint as cp

        original = cp.CHECKPOINT_VERSION
        cp.CHECKPOINT_VERSION = 99  # writer from the future
        try:
            write_checkpoint(path, state)
        finally:
            cp.CHECKPOINT_VERSION = original
        with pytest.raises(PersistError, match="version"):
            read_checkpoint(path)


# ---------------------------------------------------------------------
# service round trip
# ---------------------------------------------------------------------


class TestServiceRoundTrip:
    def test_restore_is_bit_identical(self, tmp_path):
        """Same results, same subsequent delta sequences, same auto-id
        allocation, across all three builtin maintainers plus the
        count watch."""
        space, stream, index = _mall_world()
        service = QueryService(index)
        ids = [service.watch(s) for s in _mall_specs(space)]
        for _ in range(6):
            service.ingest(list(stream.next_moves(10)))

        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)

        for qid in ids:
            assert restored.result_distances(qid) == \
                service.result_distances(qid)
        for _ in range(4):
            batch = list(stream.next_moves(10))
            assert _batch_keys(restored.ingest(batch)) == \
                _batch_keys(service.ingest(batch))
        a = service.watch(KNNSpec(space.random_point(seed=5), 3))
        b = restored.watch(KNNSpec(space.random_point(seed=5), 3))
        assert a == b
        service.close()
        restored.close()

    def test_knn_restored_mid_stream_emits_the_same_deltas(
        self, tmp_path
    ):
        """A checkpoint carries a standing ikNNQ's result, not its
        guard band: the restored maintainer resumes on the degenerate
        band (``rho`` = the k-th distance) and widens it on its first
        underflow, while the engine that never stopped keeps re-ranking
        inside its wide one — and both emit the same deltas, because
        the result is a function of the population alone."""
        space, stream, index = _mall_world()
        service = QueryService(index)
        rng = random.Random(11)
        ids = [
            service.watch(KNNSpec(space.random_point(rng=rng), k))
            for k in (3, 5, 12)
        ]
        for _ in range(5):
            service.ingest(list(stream.next_moves(10)))
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)
        refills_at_restore = restored.stats.full_recomputes

        for _ in range(25):
            batch = list(stream.next_moves(10))
            assert _batch_keys(restored.ingest(batch)) == \
                _batch_keys(service.ingest(batch))
        for qid in ids:
            assert restored.result_distances(qid) == \
                service.result_distances(qid)
        # The restored bands did have to be refilled to get there.
        assert restored.stats.full_recomputes > refills_at_restore
        service.close()
        restored.close()

    def test_restored_index_rebuilds_its_columnar_table(self, tmp_path):
        """A checkpoint carries no columnar table: the restored index
        builds its own (slots in checkpoint order), keeps it current
        under later moves, inserts and deletes, and answers one-shot
        queries like the engine that never stopped."""
        space, stream, index = _mall_world()
        service = QueryService(index)
        for spec in _mall_specs(space):
            service.watch(spec)
        for _ in range(3):
            service.ingest(list(stream.next_moves(10)))
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)
        newcomer = stream.generator.generate_one()
        for engine in (service, restored):
            assert engine.index.validate() == []
        for _ in range(3):
            batch = list(stream.next_moves(10))
            service.ingest(batch)
            restored.ingest(batch)
        victim = sorted(index.population.ids())[0]
        for engine in (service, restored):
            engine.insert(newcomer)
            engine.delete(victim)
            assert engine.index.columns.nbytes > 0
            assert engine.index.validate() == []
        for spec in _mall_specs(space, seed=11)[:3]:
            assert restored.run(spec).distances == \
                service.run(spec).distances
        service.close()
        restored.close()

    @pytest.mark.parametrize(
        "config, header",
        [
            ({"n_shards": 2, "kernel": "scalar"}, {}),
            ({"n_shards": 2, "kernel": "vector"}, {}),
            ({"n_shards": 4, "workers": 2, "backend": "thread"}, {}),
            ({"n_shards": 4, "workers": 2, "backend": "process"}, {}),
            (
                {"n_shards": 4, "workers": 2, "bucketed_router": True},
                {"v": 1, "reach_epoch": [0, 2, 0, 1]},
            ),
            ({"n_shards": 1}, {"v": 2}),
            ({"n_shards": 1, "maxlen": 4}, {}),
        ],
        ids=[
            "scalar",
            "vector",
            "thread",
            "process",
            "v1-sharded",
            "v2",
            "maxlen",
        ],
    )
    def test_checkpoint_naming_a_bounds_kernel_still_restores(
        self, tmp_path, config, header
    ):
        """Checkpoints written while ``ServiceConfig`` had a
        ``kernel``, ``backend``, ``bucketed_router`` or ``maxlen``
        field — and
        version-1 files, which also carry the shard router's
        ``reach_epoch`` — name engine shapes that no longer exist.  The
        keys are ignored on load, never a false "unusable config" or a
        ``KeyError``: the file restores onto the one engine, equal to
        a default service that was never checkpointed."""
        space, stream, index = _mall_world()
        service = QueryService(index)
        ids = [service.watch(s) for s in _mall_specs(space)]
        for _ in range(3):
            service.ingest(list(stream.next_moves(10)))
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        assert "reach_epoch" not in path.read_text()
        _rewrite_header(path, config, header)
        restored = QueryService.restore(path)
        assert isinstance(restored.monitor, QueryMonitor)
        assert restored.config == ServiceConfig(
            n_shards=config["n_shards"], workers=config.get("workers", 1)
        )
        for qid in ids:
            assert restored.result_distances(qid) == \
                service.result_distances(qid)
        batch = list(stream.next_moves(10))
        assert _batch_keys(restored.ingest(batch)) == \
            _batch_keys(service.ingest(batch))
        service.close()
        restored.close()

    def test_unknown_config_key_still_fails_closed(
        self, five_rooms_index, tmp_path
    ):
        service = QueryService(five_rooms_index)
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        state = read_checkpoint(path)
        state.config["kernal"] = "vector"
        with pytest.raises(PersistError, match="unusable config"):
            QueryService.from_state(state)
        service.close()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda objects: objects.append(dict(objects[0])),
            lambda objects: objects[0].update(
                object_to_dict(_point_object("near", 500.0, 500.0))
            ),
            lambda objects: objects[0].update(center=[4.0, 5.0, 9]),
            lambda objects: objects[0].update(xy="AAAA"),
            lambda objects: objects[0].update(probs=[1.0]),
            lambda objects: objects[0].pop("id"),
        ],
        ids=[
            "duplicate-id", "off-the-map", "no-such-floor", "bad-xy",
            "list-probs", "no-id",
        ],
    )
    def test_unusable_object_record_fails_closed(
        self, five_rooms_index, tmp_path, corrupt
    ):
        service = QueryService(five_rooms_index)
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        state = read_checkpoint(path)
        corrupt(state.objects)
        with pytest.raises(PersistError):
            QueryService.from_state(state)
        service.close()

    def test_count_watch_state_round_trips(
        self, five_rooms_index, tmp_path
    ):
        """The two-layer CountMaintainer state (private membership +
        published count) survives the trip: the next crossing emits
        the right delta, not a phantom re-entry."""
        service = QueryService(five_rooms_index)
        qid = service.watch(CountSpec(Q1, 8.0, 2), query_id="crowd")
        assert service.result_distances(qid) == {"count": 2.0}
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)
        assert restored.result_distances(qid) == {"count": 2.0}
        # Drop below threshold on both: identical "left" delta.
        move = _point_move("mid", 25.0, 5.0)
        assert _batch_keys(restored.ingest([move])) == \
            _batch_keys(service.ingest([move]))
        assert restored.result_distances(qid) == {}
        service.close()
        restored.close()

    def test_count_spec_is_watch_only(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        with pytest.raises(QueryError, match="watch"):
            service.run(CountSpec(Q1, 8.0, 2))
        service.close()

    def test_topology_version_survives(
        self, five_rooms_index, tmp_path
    ):
        """A restored engine must not trust pre-event caches: the
        space's topology version rides the checkpoint."""
        service = QueryService(five_rooms_index)
        qid = service.watch(RangeSpec(Q1, 8.0), query_id="kiosk")
        service.apply_event(CloseDoor("d12"))
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)
        assert restored.index.space.topology_version == \
            service.index.space.topology_version
        assert restored.result_distances(qid) == \
            service.result_distances(qid)
        service.close()
        restored.close()

    def test_extra_payload_round_trips(
        self, five_rooms_index, tmp_path
    ):
        service = QueryService(five_rooms_index)
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path, extra={"net_sessions": [{"token": "t"}]})
        state = read_checkpoint(path)
        assert state.extra == {"net_sessions": [{"token": "t"}]}
        service.close()


# ---------------------------------------------------------------------
# store: manifest, rotation, compaction, recovery
# ---------------------------------------------------------------------


class TestStoreRecovery:
    def _service(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        service.watch(RangeSpec(Q1, 8.0), query_id="kiosk")
        service.watch(KNNSpec(Q3, 2), query_id="board")
        return service

    @staticmethod
    def _close(*services):
        """Close each service and the WAL segment a store attached to
        it — the test's own store or the one inside ``recover()`` —
        so no descriptor is left for the collector."""
        for service in services:
            service.close()
            writer = service.detach_wal()
            if writer is not None:
                writer.rotate(None).close()

    def test_wal_tail_replays_onto_the_checkpoint(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        # Mutations of every kind land in the WAL, not a checkpoint.
        service.ingest([_point_move("far", 6.0, 5.0)])
        service.insert(_point_object("new", 24.0, 5.0))
        service.delete("mid")
        service.apply_event(CloseDoor("d12"))
        watched = service.watch(RangeSpec(Q3, 6.0))

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.restored_seq == 1
        assert report.wal_records == 5
        assert report.torn_tail == 0
        assert report.fell_back == 0
        for qid in ("kiosk", "board", watched):
            assert recovered.result_distances(qid) == \
                service.result_distances(qid)
        # Replay restored the auto-id counter too.
        assert recovered.watch(KNNSpec(Q1, 1)) == \
            service.watch(KNNSpec(Q1, 1))
        self._close(service, recovered)

    def test_corrupt_newest_falls_back_to_previous(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)                      # seq 1
        service.ingest([_point_move("far", 6.0, 5.0)])
        store.checkpoint(service)                  # seq 2
        service.ingest([_point_move("far", 25.0, 5.0)])

        newest = tmp_path / "checkpoint-000002.jsonl"
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        newest.write_bytes(bytes(raw))

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.fell_back == 1
        assert report.restored_seq == 1
        # Both WAL segments (>= seq 1) replay, so the post-seq-2
        # mutation is not lost with the bad checkpoint.
        assert report.wal_records == 2
        for qid in ("kiosk", "board"):
            assert recovered.result_distances(qid) == \
                service.result_distances(qid)
        self._close(service, recovered)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda records: records[1].update(
                xy=base64.b64encode(
                    np.array([math.nan, 5.0]).tobytes()
                ).decode()
            ),
            lambda records: records[-2].update(state={"ghost": None}),
        ],
        ids=["nan-instance", "ghost-member"],
    )
    def test_unrestorable_newest_falls_back_to_previous(
        self, five_rooms_index, tmp_path, edit
    ):
        """A newest checkpoint that reads clean (re-sealed, digest
        valid) but does not restore is skipped like a torn one: the
        previous generation restores and both WAL segments replay."""
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)                      # seq 1
        service.ingest([_point_move("far", 6.0, 5.0)])
        store.checkpoint(service)                  # seq 2
        service.ingest([_point_move("far", 25.0, 5.0)])

        newest = tmp_path / "checkpoint-000002.jsonl"
        records = [json.loads(x) for x in newest.read_text().splitlines()]
        assert records[1]["type"] == "object"
        assert records[-2]["query_id"] == "board"
        edit(records)
        body = "".join(_canonical(r) + "\n" for r in records[:-1])
        records[-1]["hex"] = hashlib.sha256(body.encode()).hexdigest()
        newest.write_text(body + _canonical(records[-1]) + "\n")
        read_checkpoint(newest)  # the digest passes

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.fell_back == 1
        assert report.restored_seq == 1
        assert report.wal_records == 2
        for qid in ("kiosk", "board"):
            assert recovered.result_distances(qid) == \
                service.result_distances(qid)
        self._close(service, recovered)

    def test_all_checkpoints_bad_raises(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        CheckpointStore(tmp_path).attach(service)
        path = tmp_path / "checkpoint-000001.jsonl"
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(PersistError, match="no readable checkpoint"):
            CheckpointStore(tmp_path).recover()
        self._close(service)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(PersistError, match="nothing to recover"):
            CheckpointStore(tmp_path).recover()

    def test_torn_wal_tail_tolerated(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        pre_tear = service.result_distances("kiosk")
        # The crash interrupts the next append mid-record.
        wal = tmp_path / "wal-000001.jsonl"
        with open(wal, "a", encoding="utf-8") as fp:
            fp.write('{"w":1,"op":"moves","moves":[{"id"')

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.torn_tail == 1
        assert report.wal_records == 1
        assert recovered.result_distances("kiosk") == pre_tear
        self._close(service, recovered)

    def test_mid_wal_corruption_raises(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        service.ingest([_point_move("far", 25.0, 5.0)])
        wal = tmp_path / "wal-000001.jsonl"
        lines = wal.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        wal.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError):
            CheckpointStore(tmp_path).recover()
        self._close(service)

    def test_compaction_keeps_the_last_two(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(4):
            store.checkpoint(service)
            service.ingest(
                [_point_move("far", 6.0 + i, 5.0)]
            )
        entries = store.read_manifest()
        assert [e["seq"] for e in entries] == [3, 4]
        names = sorted(p.name for p in tmp_path.glob("checkpoint-*"))
        assert names == [
            "checkpoint-000003.jsonl",
            "checkpoint-000004.jsonl",
        ]
        wal_names = sorted(p.name for p in tmp_path.glob("wal-*"))
        assert wal_names == ["wal-000003.jsonl", "wal-000004.jsonl"]
        self._close(service)

    def test_rotation_is_atomic_with_the_capture(
        self, five_rooms_index, tmp_path
    ):
        """No mutation lands astride a checkpoint: everything before
        the cut is in the old segment (and the snapshot), everything
        after in the new one."""
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        store.checkpoint(service)
        service.ingest([_point_move("far", 25.0, 5.0)])
        wal1 = (tmp_path / "wal-000001.jsonl").read_text().splitlines()
        wal2 = (tmp_path / "wal-000002.jsonl").read_text().splitlines()
        assert len(wal1) == 1
        assert len(wal2) == 1
        self._close(service)

    def test_orphan_segment_still_replays(
        self, five_rooms_index, tmp_path
    ):
        """Crash between rotation and manifest append: the new segment
        exists but no manifest entry references it.  Recovery globs by
        sequence number, so its records are not lost."""
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)                    # seq 1 (manifested)
        manifest = (tmp_path / "MANIFEST.jsonl").read_bytes()
        store.checkpoint(service)                # seq 2
        service.ingest([_point_move("far", 6.0, 5.0)])
        # Undo the manifest append — as if the crash hit before it.
        (tmp_path / "MANIFEST.jsonl").write_bytes(manifest)

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.restored_seq == 1
        assert report.wal_records == 1  # the orphan wal-000002 record
        assert recovered.result_distances("kiosk") == \
            service.result_distances("kiosk")
        self._close(service, recovered)

    def test_recovery_cuts_a_fresh_durable_point(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        CheckpointStore(tmp_path).attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.checkpoint_seq == report.restored_seq + 1
        # The fresh cut is immediately recoverable with no WAL tail.
        again, report2 = CheckpointStore(tmp_path).recover()
        assert report2.restored_seq == report.checkpoint_seq
        assert again.result_distances("kiosk") == \
            recovered.result_distances("kiosk")
        self._close(service, recovered, again)

    def test_module_level_recover_shorthand(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        CheckpointStore(tmp_path).attach(service)
        recovered, report = recover(tmp_path)
        assert report.restored_seq == 1
        assert recovered.result_distances("kiosk") == \
            service.result_distances("kiosk")
        self._close(service, recovered)


# ---------------------------------------------------------------------
# WAL durability and a store written before the packed format
# ---------------------------------------------------------------------


class TestWalFsync:
    def test_fsync_failure_raises_out_of_the_verb(
        self, five_rooms_index, tmp_path, monkeypatch
    ):
        """An ``EIO`` / ``ENOSPC`` from ``fsync`` on a real segment is
        not swallowed: the verb that logged the record raises
        ``PersistError`` instead of returning as if it were durable."""
        service = QueryService(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        writer = service._wal
        service.ingest([_point_move("far", 6.0, 5.0)])
        assert writer.records_written == 1

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(wal_module.os, "fsync", failing_fsync)
        with pytest.raises(PersistError, match="fsync"):
            service.ingest([_point_move("far", 25.0, 5.0)])
        with pytest.raises(PersistError, match="fsync"):
            service.watch(RangeSpec(Q3, 6.0))
        assert writer.records_written == 1
        TestStoreRecovery._close(service)

    def test_a_stream_without_a_descriptor_is_not_synced(
        self, monkeypatch
    ):
        synced = []
        monkeypatch.setattr(wal_module.os, "fsync", synced.append)
        stream = io.StringIO()
        writer = WalWriter(stream)
        writer.write(WalDelete("o1"))
        assert synced == []
        assert stream.getvalue() == '{"object_id":"o1","op":"delete","w":2}\n'


class TestPreChangeStore:
    """``tests/fixtures/store_v1`` was written by the list-form writer:
    a version-2 checkpoint and a version-1 WAL segment on the five-rooms
    world.  The checkpoint holds one watch of every kind (iRQ, ikNNQ,
    iPRQ, count, occupancy) over uniform and non-uniform objects; the
    segment holds more watches of every kind, moves (one with
    non-uniform probabilities), an insert, a delete, a door close and
    an unwatch.  ``expected.json`` is what the writing service held at
    the end."""

    def _copy(self, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(FIXTURE_STORE, root)
        return root, json.loads((root / "expected.json").read_text())

    def test_fixture_is_the_old_format(self, tmp_path):
        root, _ = self._copy(tmp_path)
        ckpt = (root / "checkpoint-000001.jsonl").read_text().splitlines()
        assert json.loads(ckpt[0])["v"] == 2
        objects = [json.loads(x) for x in ckpt if '"type":"object"' in x]
        assert all(isinstance(o["xy"], list) for o in objects)
        wal = (root / "wal-000001.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in wal]
        assert {r["w"] for r in records} == {1}
        assert {r["op"] for r in records} == WAL_OPS

    def test_recovers_to_the_recorded_results(self, tmp_path):
        root, expected = self._copy(tmp_path)
        service, report = CheckpointStore(root).recover()
        assert (report.restored_seq, report.wal_records) == (1, 13)
        assert report.torn_tail == report.fell_back == 0
        results = {
            qid: service.result_distances(qid) for qid in service.query_ids()
        }
        assert results == expected["results"]
        assert sorted(service.index.population.ids()) == expected["objects"]
        assert service.index.space.topology_version == \
            expected["topology_version"]
        assert service._id_counter.value == expected["next_auto_id"]

        # The fresh post-recovery checkpoint is the current, packed
        # format, and holds the same instance bytes the engine does.
        fresh = root / f"checkpoint-{report.checkpoint_seq:06d}.jsonl"
        state = read_checkpoint(fresh)
        assert state.version == 3
        assert json.loads(fresh.read_text().splitlines()[0])["v"] == 3
        assert all(isinstance(o["xy"], str) for o in state.objects)
        packed_probs = {o["id"] for o in state.objects if "probs" in o}
        assert packed_probs == {"late", "skew"}
        for obj in state.uncertain_objects():
            live = service.index.population.get(obj.object_id)
            assert obj.instances.xy.tobytes() == live.instances.xy.tobytes()
            assert obj.instances.probs.tobytes() == \
                live.instances.probs.tobytes()

        # ... and recovers again to the same results.
        again, report2 = CheckpointStore(root).recover()
        assert report2.restored_seq == report.checkpoint_seq
        results = {q: again.result_distances(q) for q in again.query_ids()}
        assert results == expected["results"]
        TestStoreRecovery._close(service, again)
