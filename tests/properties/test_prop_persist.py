"""Crash-recovery property: over fully randomized scenarios, a service
recovered from its checkpoint store (newest durable checkpoint + WAL
tail replay) is indistinguishable from a twin service that never
crashed.

Each example draws a random floorplan, a random standing-query set
(iRQ, ikNNQ, iPRQ, count watch), a random movement stream with
interleaved inserts/deletes, a *random checkpoint point* and a *random
kill point*.  The crashed service is simply abandoned mid-stream —
nothing is flushed or closed on its behalf, exactly like a process
death — and :meth:`CheckpointStore.recover` must rebuild a service
that (a) matches the uninterrupted twin on every maintained result,
(b) emits the *same deltas* for every subsequent batch, and (c) agrees
with from-scratch one-shot execution.
"""

import random
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import build_world
from repro.api.service import QueryService
from repro.api.specs import CountSpec, KNNSpec, ProbRangeSpec, RangeSpec
from repro.objects import MovementStream
from repro.persist import CheckpointStore


def _delta_key(d):
    return (
        d.query_id,
        d.cause,
        dict(d.entered),
        tuple(d.left),
        dict(d.distance_changed),
        dict(d.probability_changed),
    )


def _batch_keys(batch):
    return sorted(
        (_delta_key(d) for d in batch if not d.is_empty),
        key=repr,
    )


def _close(service):
    """Close ``service`` and the WAL segment its store attached."""
    service.close()
    writer = service.detach_wal()
    if writer is not None:
        writer.rotate(None).close()


def _random_specs(space, rng):
    return [
        RangeSpec(space.random_point(rng=rng), rng.uniform(15.0, 60.0)),
        KNNSpec(space.random_point(rng=rng), rng.randint(2, 8)),
        ProbRangeSpec(
            space.random_point(rng=rng),
            rng.uniform(10.0, 45.0),
            rng.uniform(0.25, 0.75),
        ),
        CountSpec(
            space.random_point(rng=rng), rng.uniform(15.0, 60.0),
            rng.randint(1, 5),
        ),
    ]


class TestCrashRecoveryProperty:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_recovered_equals_uninterrupted(self, seed):
        # Twin worlds: identical ids/positions, independent state.
        space, gen, pop, index = build_world(seed, n_objects=20)
        _space2, _gen2, _pop2, index2 = build_world(seed, n_objects=20)
        service = QueryService(index)
        twin = QueryService(index2)
        rng = random.Random(seed ^ 0xC4A5)
        specs = _random_specs(space, rng)
        ids = [service.watch(s) for s in specs]
        assert [twin.watch(s) for s in specs] == ids

        # Materialize the whole mutation script up front so the same
        # value objects drive both services (and, after the crash, the
        # recovered one).
        stream = MovementStream(space, pop, gen, seed=seed + 1)
        alive = set(pop.ids())
        script = []
        for batch in stream.batches(8, 6):
            # The stream pre-dates the scripted deletes: drop moves for
            # objects a previous step already removed.
            script.append(
                ("moves", [m for m in batch if m.object_id in alive])
            )
            action = rng.random()
            if action < 0.25:
                script.append(("insert", gen.generate_one()))
            elif action < 0.4 and len(alive) > 10:
                victim = rng.choice(sorted(alive))
                alive.discard(victim)
                script.append(("delete", victim))
        ckpt_at = rng.randrange(0, len(script) - 1)
        kill_at = rng.randrange(ckpt_at + 1, len(script))

        def apply(svc, step):
            kind, payload = step
            if kind == "moves":
                return svc.ingest(list(payload))
            if kind == "insert":
                return svc.insert(payload)
            return svc.delete(payload)

        root = Path(tempfile.mkdtemp(prefix="prop-persist-"))
        try:
            store = CheckpointStore(root)
            store.attach(service)  # first durable point + WAL
            for i, step in enumerate(script[:kill_at]):
                apply(service, step)
                apply(twin, step)
                if i == ckpt_at:
                    store.checkpoint(service)
            # Crash: `service` is abandoned exactly as it stands — no
            # flush, no close.  Every applied mutation already hit the
            # fsynced WAL, so recovery owes us all of them.
            recovered, report = store.recover()
            assert report.restored_seq >= 1

            for qid in ids:
                assert recovered.result_distances(qid) == \
                    twin.result_distances(qid)
            for step in script[kill_at:]:
                assert _batch_keys(apply(recovered, step)) == \
                    _batch_keys(apply(twin, step))
            for qid in ids:
                assert recovered.result_distances(qid) == \
                    twin.result_distances(qid)
            # From-scratch agreement on the recovered engine (set
            # semantics are exact for iRQ/iPRQ; ikNNQ and the count
            # watch are covered by the twin equality above).
            assert set(recovered.result_distances(ids[0])) == \
                recovered.run(specs[0]).ids()
            assert set(recovered.result_distances(ids[2])) == \
                recovered.run(specs[2]).ids()
            # Auto-id allocation converged too: the next watch lands on
            # the same id in both engines.
            probe = KNNSpec(space.random_point(seed=seed + 2), 3)
            assert recovered.watch(probe) == twin.watch(probe)
            _close(recovered)
        finally:
            # The crashed service's segment stays open until here, as
            # a dead process's would until the kernel reaped it.
            _close(service)
            shutil.rmtree(root, ignore_errors=True)
            twin.close()
