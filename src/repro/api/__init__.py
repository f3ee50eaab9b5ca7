"""`repro.api` — the unified public query surface.

One declarative vocabulary (:class:`RangeSpec`, :class:`KNNSpec`,
:class:`ProbRangeSpec`), one façade (:class:`QueryService`:
``run``/``watch``/``subscribe``/``ingest`` over one
:class:`~repro.index.composite.CompositeIndex` and one
:class:`~repro.queries.session.QuerySession`), and one versioned wire
protocol (:mod:`repro.api.wire`, JSON lines) so subscribers can live
out-of-process.  The legacy one-shot entry points remain, but every
standing registration funnels through ``register(spec)`` — one
pluggable :class:`~repro.queries.maintainers.StandingQuery` maintainer
per spec kind, iRQ/ikNNQ/iPRQ alike (the deprecated
``register_irq``/``register_iknn`` shims were removed).

Quickstart::

    from repro.api import KNNSpec, QueryService, RangeSpec

    service = QueryService(index)
    nearby = service.run(RangeSpec(q, 60.0))       # one-shot
    kiosk = service.watch(RangeSpec(q, 60.0))      # standing
    feed = service.subscribe(KNNSpec(desk, 8))     # async delta push
    service.ingest(moves)                          # drive updates

Serving over the network
------------------------

:mod:`repro.api.net` turns the facade into a TCP server: many remote
subscribers, each negotiating watches and folding the same wire
records the file feed carries, over length-prefixed sequence-numbered
frames (:mod:`repro.api.framing`)::

    # gateway process (owns the loop thread + all mutation)
    with ServerThread(service) as st:
        st.watch(RangeSpec(q, 60.0), query_id="kiosk")
        ...
        st.ingest(moves)

    # any other process / machine
    client = NetClient(host, port)
    client.connect()
    kiosk = client.watch(query_id="kiosk")   # ack + snapshot prime
    client.sync()                            # ping/pong drain barrier
    client.states[kiosk]                     # member -> annotation

The protocol's load-bearing records:

* **negotiation** — the client opens with a ``hello`` (or ``resume``)
  record; the server's ``hello`` reply carries a *resume token* and
  its *heartbeat cadence*.  Each ``watch_req`` (a
  ``SPEC_SCHEMA_VERSION``-tagged spec, an existing query id, or both)
  is acked by a ``watch`` record, then a priming ``snapshot``, then
  the live delta stream — the same fold rules as
  :func:`~repro.api.wire.replay_feed`.
* **heartbeats** — emitted whenever a connection has been silent for
  one cadence; a client hearing nothing for a few cadences should
  presume the server gone.  Connections holding no watches past the
  server's idle timeout are torn down with an ``error`` record.
* **reconnect tokens** — presenting the token on a fresh connection
  re-acks every watched query and re-primes each from a *current*
  snapshot, so a resumed client is bit-identical to an uninterrupted
  subscriber from that point on.  :class:`NetClient` does this
  automatically on dead connections (including duplicated/torn frames,
  surfaced via sequence numbers as
  :class:`~repro.errors.FramingError`); server ``error`` records are
  always surfaced as :class:`~repro.errors.NetError`, never retried.
* **backpressure** — each watch rides a bounded drop-oldest
  subscription, and every lossy publish is followed by a fresh
  full-result snapshot (loss means re-prime, never silent
  divergence).

Durability and recovery
-----------------------

:mod:`repro.persist` makes the whole engine crash-recoverable.  Two
complementary artifacts, one directory
(:class:`~repro.persist.store.CheckpointStore`):

* **checkpoints** — :meth:`QueryService.checkpoint` writes a
  versioned, schema-stamped, sha256-sealed snapshot (config, space
  topology, every object in insertion order, every standing query's
  spec *and exact maintainer state* in registration order, the auto-id
  counter) atomically — tmp + fsync + rename.
  :meth:`QueryService.restore` rebuilds the engine, with the config
  it recorded, *provably bit-identical*: the same subsequent updates
  produce the same delta sequences, and auto query-id allocation
  continues where it left off.  A checkpoint that does not restore
  raises :class:`~repro.errors.PersistError`.
* **write-ahead log** — with a WAL attached (the store does this at
  every checkpoint), each absorbed mutation (``watch``/``unwatch``/
  ``ingest``/``insert``/``delete``/``apply_event``) is appended and
  fsynced *before* its deltas are published, and the log rotates
  atomically with each snapshot capture.  Recovery
  (:meth:`CheckpointStore.recover <repro.persist.store.CheckpointStore.recover>`
  or the module-level :func:`repro.persist.store.recover`) replays the
  tail through the restored service's own verbs — torn final records
  tolerated, a corrupt or unrestorable checkpoint falling back to the
  previous manifest entry — and reconverges exactly.

The network layer rides the same machinery: ``ServerThread(service,
store=..., checkpoint_every_s=...)`` cuts durable points periodically
(plus at boot, on :meth:`~repro.api.net.ServerThread.checkpoint_now`,
on clean close, and on SIGTERM with ``install_sigterm=True``), each
carrying the resume-session table.  After a crash,
:meth:`ServerThread.from_store <repro.api.net.ServerThread.from_store>`
restarts on the old port with every pre-crash resume token honoured: a
reconnecting :class:`NetClient` re-primes and ends bit-identical to a
client whose server never died::

    store = CheckpointStore("gateway-state/")
    with ServerThread(service, store=store, checkpoint_every_s=30.0):
        ...                                  # crash here, then:
    st = ServerThread.from_store(store, port=port).__enter__()
    st.recovery.wal_records                  # tail replayed

Submodules are imported lazily (``repro.api.specs`` must stay
importable from :mod:`repro.queries.monitor` without dragging the whole
service stack in).
"""

import importlib

# Public name -> defining submodule, resolved lazily via __getattr__.
_EXPORTS = {
    "QuerySpec": "repro.api.specs",
    "RangeSpec": "repro.api.specs",
    "KNNSpec": "repro.api.specs",
    "ProbRangeSpec": "repro.api.specs",
    "CountSpec": "repro.api.specs",
    "OccupancySpec": "repro.api.specs",
    "SPEC_SCHEMA_VERSION": "repro.api.specs",
    "spec_from_dict": "repro.api.specs",
    "QueryService": "repro.api.service",
    "ServiceConfig": "repro.api.service",
    "CheckpointStore": "repro.persist",
    "RecoveryReport": "repro.persist",
    "recover": "repro.persist",
    "WIRE_VERSION": "repro.api.wire",
    "WatchRecord": "repro.api.wire",
    "SnapshotRecord": "repro.api.wire",
    "DeltaFeedWriter": "repro.api.wire",
    "FeedReadStats": "repro.api.wire",
    "encode_record": "repro.api.wire",
    "decode_record": "repro.api.wire",
    "read_feed": "repro.api.wire",
    "replay_feed": "repro.api.wire",
    "NetServer": "repro.api.net",
    "NetClient": "repro.api.net",
    "AsyncNetClient": "repro.api.net",
    "ServerThread": "repro.api.net",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.api' has no attribute {name!r}"
        )
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
