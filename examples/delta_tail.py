"""Delta tail: out-of-process consumers of the delta wire.

The ROADMAP's "delta transport" demo, in both transports:

* **File feed** — a positioning gateway (:class:`repro.QueryService`)
  attaches a JSONL feed, ingests movement/churn/topology, and a
  consumer replays the file (:func:`repro.api.wire.replay_feed`) into
  every standing query's exact live result.
* **Network** — the same service behind a
  :class:`~repro.api.net.NetServer`: a :class:`~repro.api.net.NetClient`
  negotiates a watch, is primed by a snapshot, folds the live delta
  stream, survives an unannounced disconnect via its resume token, and
  still ends bit-identical to the live results.

Run with::

    python examples/delta_tail.py                     # both demos
    python examples/delta_tail.py --checkpoint-every 0.5
                                  # durable TCP demo: periodic
                                  # checkpoints, a crash, a restart
    python examples/delta_tail.py --connect HOST:PORT --query-id ID
                                  # tail a remote server's query
    python examples/delta_tail.py --from-checkpoint DIR
                                  # recover a gateway's durable state

The ``--connect`` mode is a tiny operational tool: point it at any
running :class:`~repro.api.net.NetServer` and it prints the watched
query's result after every change (Ctrl-C to stop).  The
``--from-checkpoint`` mode is its durable sibling: point it at a
:class:`~repro.persist.store.CheckpointStore` directory and it
reconstructs every standing query's result from the newest readable
checkpoint plus the WAL tail — no server required.
"""

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro import (
    CompositeIndex,
    KNNSpec,
    MovementStream,
    ObjectGenerator,
    ProbRangeSpec,
    QueryService,
    RangeSpec,
    build_mall,
)
from repro.api import wire
from repro.space.events import CloseDoor


def produce(feed_path: Path) -> QueryService:
    """The gateway half: serve two standing queries, mirror every
    published delta onto the JSONL feed."""
    space = build_mall(
        floors=2,
        bands=2,
        rooms_per_band_side=3,
        floor_size=140.0,
        hallway_width=5.0,
        stair_size=12.0,
        seed=17,
    )
    generator = ObjectGenerator(space, radius=4.0, n_instances=12, seed=17)
    visitors = generator.generate(120)
    index = CompositeIndex.build(space, visitors)
    service = QueryService(index)
    print(f"Venue:    {space}")
    print(f"Visitors: {len(visitors)} moving objects")

    kiosk = service.watch(
        RangeSpec(space.random_point(seed=4), 55.0), query_id="kiosk"
    )
    with feed_path.open("w") as fp:
        feed = service.attach_feed(fp)  # header: watch + snapshot
        # Queries registered *after* the feed attached ride along via
        # their watch records + register deltas — the standing iPRQ
        # (wire v2: probability-annotated deltas) included.
        service.watch(
            KNNSpec(space.random_point(seed=9), 6), query_id="security"
        )
        service.watch(
            ProbRangeSpec(space.random_point(seed=21), 45.0, 0.7),
            query_id="vip",
        )
        stream = MovementStream(space, visitors, generator, seed=31)
        for _ in range(8):
            service.ingest(stream.next_moves(25))
        service.insert(generator.generate_one())         # a new visitor
        service.delete(sorted(index.population.ids())[0])  # one leaves
        blocked = sorted(space.doors)[len(space.doors) // 3]
        service.apply_event(CloseDoor(blocked))          # full resync
        service.ingest(stream.next_moves(25))
        fp.flush()
        print(
            f"Producer: {feed.records_written} wire records written to "
            f"{feed_path.name} ({feed_path.stat().st_size} bytes); "
            f"kiosk tracks {len(service.result_ids(kiosk))} visitors."
        )
    return service


def consume(feed_path: Path) -> dict[str, dict[str, float | None]]:
    """The tail half: decode + replay the feed — no service access."""
    with feed_path.open() as fp:
        records = list(wire.read_feed(fp))
    kinds = Counter(type(r).__name__ for r in records)
    deltas = sum(
        len(r.deltas) if isinstance(r, wire.DeltaBatch) else 0
        for r in records
    )
    print(
        f"Consumer: decoded {len(records)} records "
        f"({dict(sorted(kinds.items()))}), {deltas} deltas."
    )
    return wire.replay_feed(records)


def serve_over_tcp(checkpoint_every: float | None = None) -> None:
    """The network half: the same gateway served over a socket, with a
    subscriber that disconnects mid-stream and resumes.

    With ``checkpoint_every`` set, the server becomes durable: a
    :class:`~repro.persist.store.CheckpointStore` is attached
    (periodic checkpoints + WAL), the server is then *killed* —
    connections aborted, no goodbye — restarted from its manifest on
    the same port, and the same subscriber resumes across the crash."""
    from repro import CheckpointStore, NetClient, NetServer, ServerThread

    space = build_mall(
        floors=2,
        bands=2,
        rooms_per_band_side=3,
        floor_size=140.0,
        hallway_width=5.0,
        stair_size=12.0,
        seed=17,
    )
    generator = ObjectGenerator(space, radius=4.0, n_instances=12, seed=17)
    visitors = generator.generate(120)
    service = QueryService(CompositeIndex.build(space, visitors))
    stream = MovementStream(space, visitors, generator, seed=47)

    durable_dir = (
        tempfile.TemporaryDirectory() if checkpoint_every else None
    )
    store = None
    kwargs: dict = {}
    if durable_dir is not None:
        store = CheckpointStore(Path(durable_dir.name) / "gateway")
        kwargs = {"store": store, "checkpoint_every_s": checkpoint_every}
        print(
            f"Durable:  checkpointing every {checkpoint_every}s "
            f"to {store.root}"
        )

    server_thread = ServerThread(service, **kwargs).__enter__()
    host, port = server_thread.address
    print(f"Server:   {NetServer.__name__} listening on {host}:{port}")
    client = NetClient(host, port)
    client.connect()
    kiosk = client.watch(
        RangeSpec(space.random_point(seed=4), 55.0), query_id="kiosk"
    )
    client.sync()  # primed from the negotiation snapshot
    print(
        f"Client:   watching {kiosk!r} "
        f"({len(client.states[kiosk])} members at prime)"
    )
    for _ in range(4):
        server_thread.ingest(stream.next_moves(25))
    client.sync()

    # The resume contract: drop without a goodbye, miss updates,
    # reconnect with the token — the snapshot re-prime makes the
    # resumed state exact again.
    client.disconnect()
    server_thread.ingest(stream.next_moves(25))
    client.reconnect()
    client.sync()
    live = server_thread.run(service.result_distances, kiosk)
    assert client.states[kiosk] == live, "resumed client diverged"
    print(
        f"Client:   dropped, missed a batch, resumed with token — "
        f"{len(client.states[kiosk])} members, exact == live."
    )
    print(
        f"Client:   {client.state.records_received} records folded, "
        f"{client.state.resyncs} snapshot re-primes, "
        f"{client.reconnects} reconnect."
    )

    if store is None:
        client.close()
        server_thread.close()
        service.close()
        print(
            "Network contract holds: resumed subscriber == live results."
        )
        return

    # The crash contract: kill the process image (aborted sockets, no
    # final checkpoint), restart from the manifest on the same port —
    # the client's pre-crash resume token is still honoured.
    server_thread.checkpoint_now()
    server_thread.kill()
    print("Server:   killed mid-stream (connections aborted, no bye).")
    restarted = ServerThread.from_store(store, port=port).__enter__()
    report = restarted.recovery
    print(
        f"Server:   restarted from seq {report.restored_seq} "
        f"(+{report.wal_records} WAL records) on the same port."
    )
    restarted.ingest(stream.next_moves(25))
    client.poll()
    client.sync()
    live = restarted.run(restarted.service.result_distances, kiosk)
    assert client.states[kiosk] == live, "client diverged across crash"
    print(
        f"Client:   resumed across the crash "
        f"({client.reconnects} reconnects total) — "
        f"{len(client.states[kiosk])} members, exact == live."
    )
    client.close()
    restarted.close()
    service.close()
    restarted.service.close()
    durable_dir.cleanup()
    print("Crash contract holds: restarted subscriber == live results.")


def resume_from_checkpoint(directory: str) -> None:
    """``--from-checkpoint`` mode: one-shot recovery of a gateway's
    durable directory — newest readable checkpoint + WAL tail replay —
    then print every standing query's reconstructed result."""
    from repro import recover

    service, report = recover(directory)
    tail = f" + {report.wal_records} WAL records"
    if report.torn_tail:
        tail += f" ({report.torn_tail} torn record dropped)"
    if report.fell_back:
        tail += f", fell back past {report.fell_back} bad checkpoint(s)"
    print(f"Recovered: checkpoint seq {report.restored_seq}{tail}")
    for qid in sorted(service.query_ids()):
        spec = service.query_spec(qid)
        members = service.result_distances(qid)
        print(
            f"  {qid}: {len(members)} members "
            f"({type(spec).__name__}) — reconstructed exactly."
        )
    service.close()


def connect_and_tail(address: str, query_id: str) -> None:
    """``--connect`` mode: tail one standing query on a remote server."""
    from repro import NetClient

    host, _, port = address.rpartition(":")
    client = NetClient(host or "127.0.0.1", int(port))
    client.connect()
    qid = client.watch(query_id=query_id)
    client.sync()
    print(f"tailing {qid!r} — {len(client.states.get(qid, {}))} members")
    last: dict[str, float | None] | None = None
    try:
        while qid in client.states:
            client.poll(timeout=0.5)
            state = client.states.get(qid)
            if state != last and state is not None:
                last = dict(state)
                print(f"  {qid}: {len(last)} members")
    except KeyboardInterrupt:
        pass
    finally:
        client.close()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="tail a standing query on a running NetServer",
    )
    parser.add_argument(
        "--query-id",
        default=None,
        help="standing query to tail (required with --connect)",
    )
    parser.add_argument(
        "--from-checkpoint",
        metavar="DIR",
        help="recover a CheckpointStore directory and print every "
        "standing query's reconstructed result",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="N",
        help="make the TCP demo durable: checkpoint every N seconds, "
        "then kill the server and restart it from the manifest",
    )
    args = parser.parse_args(argv)
    if args.connect:
        if not args.query_id:
            parser.error("--connect requires --query-id")
        connect_and_tail(args.connect, args.query_id)
        return
    if args.from_checkpoint:
        resume_from_checkpoint(args.from_checkpoint)
        return

    with tempfile.TemporaryDirectory() as tmp:
        feed_path = Path(tmp) / "mall_feed.jsonl"
        service = produce(feed_path)
        states = consume(feed_path)

        # The acceptance check: the replayed feed reconstructs every
        # standing query's live result exactly.
        live = {
            qid: service.result_distances(qid)
            for qid in service.query_ids()
        }
        assert states == live, "replayed feed diverged from live results"
        for qid in sorted(live):
            spec = service.query_spec(qid)
            print(
                f"  {qid}: replayed {len(states[qid])} members == live "
                f"({type(spec).__name__}) — exact, distances included."
            )
        print("Wire contract holds: out-of-process replay == live results.")
        service.close()

    serve_over_tcp(checkpoint_every=args.checkpoint_every)


if __name__ == "__main__":
    main(sys.argv[1:])
