"""Layers: which callables the traced run wraps, and every metric.

The layers are the repo's modules.  *Time* comes from spans recorded by
the wrappers :func:`install` puts around coarse public callables;
*counts* come from the program's own public stats objects, read by the
workload before and after the measured pass.  :func:`end_to_end` and
:func:`per_layer` turn one pass into the metrics ``BENCHMARK.json``
names — the file is the single list of names and units; a computed
metric it does not name, or a named one nothing computes, is an error.
"""

from __future__ import annotations

import importlib
import resource
import statistics
from typing import Any

from spans import SpanTable, Tracer
from workloads import Samples, Workload


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles`` cut point,
    inclusive method); 0.0 with fewer than two samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------
# wrapper installation
# ---------------------------------------------------------------------

#: (module, class or None, attribute, span name).  A target a later
#: change removed is skipped — its metrics then read 0 — so deleting a
#: superseded code path cannot break the benchmark by accident.
_TARGETS = (
    ("repro.index.composite", "CompositeIndex", "update_objects",
     "index.update"),
    ("repro.index.composite", "CompositeIndex", "range_search",
     "index.range_search"),
    ("repro.queries.session", "QuerySession", "door_distances",
     "session.door_distances"),
    ("repro.distances.batch", None, "pack_block", "kernel.pack"),
    ("repro.distances.batch", None, "block_object_bounds",
     "kernel.bounds"),
    ("repro.distances.batch", None, "block_probability_bounds",
     "kernel.bounds"),
    ("repro.distances.bounds", None, "object_bounds",
     "bounds.object_bounds"),
    ("repro.distances.expected", None, "expected_indoor_distance",
     "expected.refine"),
    ("repro.queries.monitor", "QueryMonitor", "ingest_moves",
     "monitor.ingest"),
    ("repro.queries.serving", "MonitorServer", "publish",
     "serving.publish"),
    ("repro.api.wire", None, "encode_record", "wire.encode"),
    ("repro.api.wire", None, "decode_record", "wire.decode"),
    ("repro.api.framing", None, "encode_net_record",
     "framing.encode_record"),
    ("repro.api.framing", None, "decode_net_record",
     "framing.decode_record"),
    ("repro.api.framing", "FrameDecoder", "feed", "framing.feed"),
    ("repro.persist.wal", "WalWriter", "write", "persist.wal_write"),
    ("repro.persist.store", "CheckpointStore", "checkpoint",
     "persist.checkpoint"),
    ("repro.persist.store", "CheckpointStore", "recover",
     "persist.recover"),
)


class ByteCounts:
    """Bytes seen by the encoders the traced run wraps."""

    def __init__(self) -> None:
        self.frame_bytes = 0
        self.wal_bytes = 0

    def add_frame(self, frame: bytes) -> None:
        """Count one framed record put on a socket."""
        self.frame_bytes += len(frame)

    def add_wal(self, line: str) -> None:
        """Count one WAL line (plus its newline)."""
        self.wal_bytes += len(line) + 1


def _lookup(module_name: str, owner: str | None) -> Any:
    try:
        found = importlib.import_module(module_name)
    except ImportError:
        return None
    return found if owner is None else getattr(found, owner, None)


def install(tracer: Tracer) -> ByteCounts:
    """Wrap every layer boundary; returns the byte counters."""
    counts = ByteCounts()
    for module_name, owner, attr, span in _TARGETS:
        holder = _lookup(module_name, owner)
        if holder is None or not hasattr(holder, attr):
            continue
        if owner is None:
            tracer.patch_function(holder, attr, span)
        else:
            tracer.patch_method(holder, attr, span)
    # The router blocks while pool threads maintain its shards: their
    # spans are its children.
    shard = _lookup("repro.queries.shard", "ShardedMonitor")
    if shard is not None:
        tracer.patch_method(
            shard, "apply_moves", "shard.apply_moves", adopter=True
        )
    framing = _lookup("repro.api.framing", "FrameEncoder")
    if framing is not None:
        tracer.patch_method(
            framing, "encode", "framing.frame", on_result=counts.add_frame
        )
    wal = _lookup("repro.persist.wal", None)
    if wal is not None and hasattr(wal, "encode_wal_record"):
        tracer.patch_function(
            wal, "encode_wal_record", "persist.wal_encode",
            on_result=counts.add_wal,
        )
    # Standing-query re-execution, whichever kind: every maintainer
    # class that defines its own recompute().
    base = _lookup("repro.queries.maintainers", "StandingQuery")
    pending = list(base.__subclasses__()) if base is not None else []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "recompute" in cls.__dict__:
            tracer.patch_method(cls, "recompute", "maintainers.recompute")
    return counts


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------


def end_to_end(samples: Samples, setup_s: float) -> dict[str, float]:
    """The gated metrics: what a user of the workload sees, with every
    time divided by the machine slowdown measured around it (see
    :mod:`machine`)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latency = samples.latency_ms(normalised=True)
    return {
        "setup_s": setup_s,
        "throughput_per_s": _ratio(
            samples.units, sum(samples.service_s(normalised=True))
        ),
        "latency_ms_p50": percentile(latency, 50),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def workload_detail(samples: Samples) -> dict[str, float]:
    """User-visible numbers that cannot be gated — because only one
    workload has them (a gated metric must exist on all four) or, the
    tails, because they do not repeat within any allowed bound on a
    20 s window — machine-normalised like the gated ones; and the
    gated ones' unnormalised readings, so the normalisation hides
    nothing."""
    service = samples.service_s(normalised=True)
    service_ms = [s * 1e3 for s in service]
    latency = samples.latency_ms(normalised=True)
    raw_latency = samples.latency_ms(normalised=False)
    oneshot = bool(samples.kinds)  # only one-shot queries have kinds
    served = bool(samples.late_ms)  # only the open loop can run late
    rate = _ratio(samples.units, sum(service))
    return {
        "queries_per_s": rate if oneshot else 0.0,
        "updates_per_s": 0.0 if oneshot else rate,
        "run_irq_ms_p50": percentile(samples.kind_ms("irq", True), 50),
        "run_iknn_ms_p50": percentile(samples.kind_ms("iknn", True), 50),
        "run_iprq_ms_p50": percentile(samples.kind_ms("iprq", True), 50),
        "run_ms_p95": percentile(service_ms, 95) if oneshot else 0.0,
        "ingest_ms_p50": 0.0 if oneshot else percentile(service_ms, 50),
        "ingest_ms_p90": 0.0 if oneshot else percentile(service_ms, 90),
        "deliver_ms_p50": percentile(latency, 50) if served else 0.0,
        "deliver_ms_p95": percentile(latency, 95) if served else 0.0,
        "latency_ms_p90": percentile(latency, 90),
        "failed_ratio": _ratio(samples.failed, samples.attempted),
        "machine.slowdown_p50": samples.slowdown,
        "raw.throughput_per_s": _ratio(
            samples.units, sum(samples.service_s(normalised=False))
        ),
        "raw.latency_ms_p50": percentile(raw_latency, 50),
        "raw.latency_ms_p90": percentile(raw_latency, 90),
    }


def per_layer(
    workload: Workload,
    plain: Samples,
    traced: Samples,
    window: SpanTable,
    drills: SpanTable,
    bytes_seen: ByteCounts,
) -> dict[str, float]:
    """Every ungated metric of one traced run.

    ``plain`` is the same fixed operation sequence run untraced first
    (the base of ``trace.overhead_ratio``); ``window`` holds the traced
    pass's spans and ``drills`` those of the restart drills after it.
    """
    c = workload.counts
    net = workload.net_counts
    qs = traced.query_stats
    decided = c.get("shard_visits", 0) + c.get("shards_skipped", 0)
    lookups = c["session_hits"] + c["session_misses"]
    checkpoints = (
        window.durations_ns["persist.checkpoint"]
        + drills.durations_ns["persist.checkpoint"]
    )
    out = {
        "index.update_s": window.total_s("index.update"),
        "index.update_calls": window.count("index.update"),
        "index.range_search_s": window.total_s("index.range_search"),
        "index.range_search_calls": window.count("index.range_search"),
        "session.hit_rate": _ratio(c["session_hits"], lookups),
        "session.misses": c["session_misses"],
        "session.evictions": c["session_evictions"],
        "session.door_distances_s": window.total_s(
            "session.door_distances"
        ),
        "kernel.pack_s": window.total_s("kernel.pack"),
        "kernel.bounds_s": window.total_s("kernel.bounds"),
        "kernel.pairs": c["kernel_pairs"],
        "kernel.pruned_ratio": _ratio(
            c["kernel_pruned"], c["kernel_pairs"]
        ),
        "kernel.fallbacks": c["kernel_fallbacks"],
        "bounds.object_bounds_s": window.total_s("bounds.object_bounds"),
        "bounds.object_bounds_calls": window.count(
            "bounds.object_bounds"
        ),
        "expected.refine_s": window.total_s("expected.refine"),
        "expected.refine_calls": window.count("expected.refine"),
        "maintainers.recompute_s": window.total_s(
            "maintainers.recompute"
        ),
        "maintainers.full_recomputes": c["full_recomputes"],
        "maintainers.pairs_refined": c["pairs_refined"],
        "maintainers.skipped_ratio": _ratio(
            c["pairs_skipped"], c["pairs_evaluated"]
        ),
        "monitor.self_s": window.self_s("monitor.ingest"),
        "monitor.updates_seen": c["updates_seen"],
        "monitor.pairs_evaluated": c["pairs_evaluated"],
        "monitor.deltas_emitted": c["deltas_emitted"],
        "shard.self_s": window.self_s("shard.apply_moves"),
        "shard.skip_ratio": _ratio(c.get("shards_skipped", 0), decided),
        "shard.updates_filtered": c.get("updates_filtered", 0),
        "shard.bucket_skips": c.get("bucket_skips", 0),
        "shard.reach_cache_hits": c.get("reach_cache_hits", 0),
        "engine.filtering_s": qs.t_filtering,
        "engine.subgraph_s": qs.t_subgraph,
        "engine.pruning_s": qs.t_pruning,
        "engine.refinement_s": qs.t_refinement,
        "engine.candidates_per_result": _ratio(
            qs.candidates_after_filtering, qs.result_size
        ),
        "engine.refined_per_result": _ratio(qs.refined, qs.result_size),
        "engine.fallback_recomputes": qs.fallback_recomputes,
        "serving.publish_s": window.total_s("serving.publish"),
        "serving.deltas_published": c["deltas_published"],
        "serving.deltas_dropped": c["deltas_dropped"],
        "wire.encode_s": window.total_s("wire.encode"),
        "wire.decode_s": window.total_s("wire.decode"),
        "framing.encode_s": window.self_s("framing.encode_record")
        + window.total_s("framing.frame"),
        "framing.decode_s": window.self_s("framing.decode_record")
        + window.total_s("framing.feed"),
        "framing.records": window.count("framing.frame"),
        "framing.bytes": bytes_seen.frame_bytes,
        "net.overhead_ms_p50": percentile(traced.net_overhead_ms, 50),
        "net.records_sent": net.get("records_sent", 0),
        "net.resyncs": net.get("resyncs", 0),
        "net.reconnects": net.get("reconnects", 0),
        "persist.wal_write_s": window.total_s("persist.wal_write"),
        "persist.wal_records": window.count("persist.wal_write"),
        "persist.wal_bytes": bytes_seen.wal_bytes,
        "persist.checkpoint_ms": (
            statistics.median(checkpoints) / 1e6 if checkpoints else 0.0
        ),
        "persist.checkpoint_kb": workload.checkpoint_kb,
        "persist.recover_ms": (
            statistics.median(drills.durations_ns["persist.recover"]) / 1e6
            if drills.durations_ns["persist.recover"]
            else 0.0
        ),
        "gen.late_ms_p95": percentile(traced.late_ms, 95),
        "gen.offered_per_s": _ratio(traced.units, traced.wall_s),
        "process.cpu_s": traced.cpu_s,
        "trace.spans": sum(window.calls.values()),
        "trace.overhead_ratio": _ratio(
            sum(traced.service_s(normalised=True)),
            sum(plain.service_s(normalised=True)),
        )
        - 1.0,
    }
    out.update(workload_detail(plain))
    return out
