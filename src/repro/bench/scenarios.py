"""The scenario fleet: cell runners behind the experiment grids.

Three stress scenarios beyond the paper's steady-state random walk,
each exposed as a grid axis value so one xpfile sweeps them:

* **egress** — stadium-egress / evacuation surge: mass *correlated*
  movement toward the exit hallways (a
  :class:`~repro.objects.generator.DirectedMovementStream`), door
  closures mid-surge (``CloseDoor`` through the monitor, forcing
  reroutes), and per-exit :class:`~repro.api.specs.OccupancySpec`
  watches raising crowding alerts;
* **campus** — multi-building venues 10-100x the single mall
  (:func:`build_campus` composes malls with walkway hallways) under
  the standard random walk;
* **diurnal** — a day-shaped load curve: batch sizes swell from
  trough to peak and back following a sinusoid, so throughput is
  measured under load *variation*, not just steady state.

Also here: the generic ``stream`` runner (objects x update rate x
query mix).

Every runner takes ``(params, ctx)`` and returns a flat JSON dict;
``updates_per_sec`` / ``deltas_per_sec`` are common to all so tables
can pivot any mix of cells.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any

from repro.api.specs import KNNSpec, RangeSpec
from repro.bench.grid import CellContext, register_cell_runner
from repro.bench.workloads import (
    ScaleProfile,
    WorkloadFactory,
    active_profile,
)
from repro.errors import ReproError
from repro.index.composite import CompositeIndex
from repro.objects.generator import (
    DirectedMovementStream,
    MovementStream,
    ObjectGenerator,
)
from repro.queries.monitor import QueryMonitor
from repro.space.builder import SpaceBuilder
from repro.space.events import CloseDoor
from repro.space.floorplan import IndoorSpace
from repro.space.mall import MallParameters, add_mall

#: CI-smoke scale (``--quick``): the smallest venue the generators
#: accept with staircases and a middle hallway band.
QUICK = ScaleProfile(
    name="quick",
    floors_grid=(1, 2),
    default_floors=1,
    objects_grid=(20, 40),
    default_objects=20,
    radii_grid=(2.0,),
    default_radius=2.0,
    ranges_grid=(20.0,),
    default_range=20.0,
    k_grid=(3,),
    default_k=3,
    n_instances=5,
    n_queries=4,
    bands=2,
    rooms_per_band_side=2,
    floor_size=80.0,
    hallway_width=4.0,
    stair_size=10.0,
)


def scenario_profile(ctx: CellContext) -> ScaleProfile:
    """``--quick`` pins the CI-smoke profile; otherwise the usual
    ``REPRO_BENCH_SCALE`` selection applies."""
    return QUICK if ctx.quick else active_profile()


# ---------------------------------------------------------------------
# campus composition
# ---------------------------------------------------------------------


def build_campus(
    buildings: int,
    floors: int | None = None,
    profile: ScaleProfile | None = None,
    gap: float | None = None,
    seed: int | None = None,
) -> IndoorSpace:
    """A row of malls joined by ground-floor walkway hallways.

    Each building is one :func:`~repro.space.mall.add_mall` with its
    own origin and ``b<n>_`` id prefix; consecutive buildings are
    bridged by a walkway hallway spanning the gap at the height of a
    *middle* hallway band (the end bands are shortened for staircases
    when ``floors > 1``, so they don't reach the outer walls).  With
    the paper-scale profile this composes venues 10-100x the single
    mall of Section V-A.
    """
    p = profile or active_profile()
    floors = floors or p.default_floors
    if buildings < 1:
        raise ReproError("campus needs at least one building")
    if floors > 1 and p.bands < 2:
        raise ReproError(
            "multi-floor campus needs bands >= 2 (the end hallway "
            "bands are shortened for staircases and cannot host "
            "walkways)"
        )
    gap = 2.0 * p.hallway_width if gap is None else gap
    if gap <= 0:
        raise ReproError("building gap must be positive")
    pitch = p.floor_size + gap
    builder = SpaceBuilder()
    for b in range(buildings):
        add_mall(
            builder,
            MallParameters(
                floors=floors,
                bands=p.bands,
                rooms_per_band_side=p.rooms_per_band_side,
                floor_size=p.floor_size,
                hallway_width=p.hallway_width,
                stair_size=p.stair_size,
                seed=seed,
                origin_x=b * pitch,
                id_prefix=f"b{b}_",
            ),
        )
    band = max(1, p.bands // 2) if floors > 1 else p.bands // 2
    strip = (p.floor_size - (p.bands + 1) * p.hallway_width) / p.bands
    y0 = band * (p.hallway_width + strip)
    from repro.geometry.rect import Rect

    for b in range(buildings - 1):
        x0 = b * pitch + p.floor_size
        wid = f"walk{b}"
        builder.add_hallway(
            wid, Rect(x0, y0, x0 + gap, y0 + p.hallway_width), 0
        )
        builder.connect(wid, f"b{b}_f0_hall{band}", floor=0)
        builder.connect(wid, f"b{b + 1}_f0_hall{band}", floor=0)
    return builder.build(validate=True)


def egress_targets(space: IndoorSpace) -> list[str]:
    """The exit hallways of a venue: every building's ground-floor
    bottom hallway (id ``[prefix]f0_hall0``)."""
    targets = sorted(
        pid for pid in space.partitions if pid.endswith("f0_hall0")
    )
    if not targets:
        raise ReproError("venue has no ground-floor exit hallways")
    return targets


# ---------------------------------------------------------------------
# shared driving loop
# ---------------------------------------------------------------------


def _drive(
    monitor, stream: MovementStream, n_batches: int, batch_size: int
) -> dict[str, Any]:
    """Absorb ``n_batches`` and aggregate throughput; generation time
    is excluded (it models the positioning system, not the monitor)."""
    seen0 = monitor.stats.updates_seen
    elapsed = 0.0
    deltas = 0
    for _ in range(n_batches):
        batch = stream.next_moves(batch_size)
        t0 = time.perf_counter()
        out = monitor.apply_moves(batch)
        elapsed += time.perf_counter() - t0
        deltas += len(out)
    stats = monitor.stats
    updates = stats.updates_seen - seen0
    return {
        "updates": updates,
        "deltas": deltas,
        "elapsed_s": elapsed,
        "updates_per_sec": updates / elapsed if elapsed else 0.0,
        "deltas_per_sec": deltas / elapsed if elapsed else 0.0,
        "pairs_evaluated": stats.pairs_evaluated,
        "pairs_skipped": stats.pairs_skipped,
        "kernel_pairs": stats.kernel_pairs,
        "kernel_pruned": stats.kernel_pruned,
    }


def _merge(*parts: dict[str, Any], **extra: Any) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for part in parts:
        out.update(part)
    out.update(extra)
    return out


# ---------------------------------------------------------------------
# generic runners
# ---------------------------------------------------------------------


@register_cell_runner("stream")
def run_stream_cell(params: dict, ctx: CellContext) -> dict:
    """Generic continuous-monitoring cell: objects x update rate x
    query mix, each an optional param with profile defaults."""
    profile = scenario_profile(ctx)
    factory = WorkloadFactory(profile, seed=ctx.seed)
    repeat = int(params.get("repeat", 1))
    timings: list[dict] = []
    result: dict[str, Any] = {}
    for _ in range(max(1, repeat)):
        scenario = factory.stream_scenario(
            n_irq=int(params.get("n_irq", 2)),
            n_iknn=int(params.get("n_iknn", 1)),
            n_iprq=int(params.get("n_iprq", 0)),
            floors=params.get("floors"),
            n_objects=params.get("objects"),
            seed=ctx.seed,
        )
        result = _drive(
            scenario.monitor,
            scenario.stream,
            int(params.get("batches", 4)),
            int(params.get("batch_size", 10)),
        )
        timings.append(result)
        ctx.log(f"pass: {result['updates_per_sec']:.0f} upd/s")
    # Surface the repeat structure the way `time_call` does: min/mean
    # of the measured wall-clock, plus the count.
    samples = [t["elapsed_s"] for t in timings]
    return _merge(
        timings[-1],
        timing={
            "min_s": min(samples),
            "mean_s": sum(samples) / len(samples),
            "repeat": len(samples),
        },
    )


# ---------------------------------------------------------------------
# the scenario runner
# ---------------------------------------------------------------------


@register_cell_runner("scenario")
def run_scenario_cell(params: dict, ctx: CellContext) -> dict:
    """Dispatch on ``params['scenario']`` so a grid can sweep the
    fleet as one axis."""
    kind = params.get("scenario")
    runners = {
        "egress": _run_egress,
        "campus": _run_campus,
        "diurnal": _run_diurnal,
    }
    try:
        fn = runners[kind]
    except KeyError:
        raise ReproError(
            f"unknown scenario {kind!r}; choose from {sorted(runners)}"
        ) from None
    return fn(params, ctx)


def _run_egress(params: dict, ctx: CellContext) -> dict:
    """Evacuation surge: random warmup, then a directed crowd pushing
    toward the exits while doors close under it."""
    profile = scenario_profile(ctx)
    # Fresh factory per cell: the egress churn closes doors on the
    # factory's space, which must not leak into other cells.
    factory = WorkloadFactory(profile, seed=ctx.seed)
    scenario = factory.stream_scenario(
        n_irq=1,
        n_iknn=1,
        n_objects=params.get("objects"),
        seed=ctx.seed,
    )
    monitor = scenario.monitor
    space = factory.space()
    targets = egress_targets(space)
    threshold = int(params.get("threshold", 2))
    from repro.api.specs import OccupancySpec

    occ_ids = [
        monitor.register(OccupancySpec(pid, threshold))
        for pid in targets
    ]
    batches = int(params.get("batches", 4))
    batch_size = int(params.get("batch_size", 10))

    warmup = _drive(monitor, scenario.stream, batches, batch_size)
    ctx.log(f"warmup: {warmup['updates_per_sec']:.0f} upd/s")

    surge_stream = DirectedMovementStream(
        space,
        scenario.index.population,
        scenario.stream.generator,
        hop_probability=1.0,
        seed=ctx.seed + 101,
        targets=tuple(targets),
        compliance=float(params.get("compliance", 0.9)),
    )
    surge_a = _drive(monitor, surge_stream, batches, batch_size)

    # Mid-surge door closures: shut doors of the first exit hallway
    # (deterministic pick), forcing the BFS router to re-plan.
    closed: list[str] = []
    doors = sorted(
        (d.door_id for d in space.doors_of(targets[0]) if d.is_open),
    )
    for door_id in doors[: int(params.get("close_doors", 1))]:
        monitor.apply_event(CloseDoor(door_id))
        closed.append(door_id)
    ctx.log(f"closed doors: {closed}")

    surge_b = _drive(monitor, surge_stream, batches, batch_size)
    surge = {
        k: surge_a[k] + surge_b[k]
        for k in ("updates", "deltas", "elapsed_s")
    }
    alerts = _alert_count(monitor, occ_ids)
    occupancy = _occupancy_snapshot(monitor, occ_ids)
    return {
        "updates": warmup["updates"] + surge["updates"],
        "deltas": warmup["deltas"] + surge["deltas"],
        "elapsed_s": warmup["elapsed_s"] + surge["elapsed_s"],
        "updates_per_sec": _rate(
            warmup["updates"] + surge["updates"],
            warmup["elapsed_s"] + surge["elapsed_s"],
        ),
        "deltas_per_sec": _rate(
            warmup["deltas"] + surge["deltas"],
            warmup["elapsed_s"] + surge["elapsed_s"],
        ),
        "surge_updates_per_sec": _rate(
            surge["updates"], surge["elapsed_s"]
        ),
        "exits": len(targets),
        "doors_closed": len(closed),
        "occupancy_alerts": alerts,
        "exit_occupancy": occupancy,
    }


def _rate(n: int, s: float) -> float:
    return n / s if s else 0.0


def _alert_count(monitor, occ_ids: list[str]) -> int:
    """How many exit watches currently publish a crowding alert."""
    return sum(
        1 for qid in occ_ids if monitor.result_distances(qid)
    )


def _occupancy_snapshot(monitor, occ_ids: list[str]) -> int:
    """Total population the alerting exit watches currently report."""
    from repro.queries.maintainers import OCCUPANCY_KEY

    total = 0
    for qid in occ_ids:
        result = monitor.result_distances(qid)
        total += int(result.get(OCCUPANCY_KEY, 0.0))
    return total


def _run_campus(params: dict, ctx: CellContext) -> dict:
    """The standard random walk over a multi-building campus."""
    profile = scenario_profile(ctx)
    buildings = int(params.get("buildings", 2))
    floors = int(params.get("floors", profile.default_floors))
    space = build_campus(
        buildings, floors=floors, profile=profile, seed=ctx.seed
    )
    gen = ObjectGenerator(
        space,
        radius=profile.default_radius,
        n_instances=profile.n_instances,
        seed=ctx.seed + 4242,
        id_prefix="s",
    )
    # Objects scale with the venue unless pinned: same density as one
    # building's default population.
    objects = int(
        params.get("objects", profile.default_objects * buildings)
    )
    population = gen.generate(objects)
    index = CompositeIndex.build(space, population, fanout=profile.fanout)
    monitor = QueryMonitor(index)
    rng = random.Random(ctx.seed + 17)
    n_irq = int(params.get("n_irq", 2))
    n_iknn = int(params.get("n_iknn", 1))
    points = [space.random_point(rng=rng) for _ in range(n_irq + n_iknn)]
    for q in points[:n_irq]:
        monitor.register(RangeSpec(q, profile.default_range))
    for q in points[n_irq:]:
        monitor.register(KNNSpec(q, profile.default_k))
    stream = MovementStream(space, population, gen, seed=ctx.seed + 7)
    result = _drive(
        monitor,
        stream,
        int(params.get("batches", 4)),
        int(params.get("batch_size", 10)),
    )
    ctx.log(
        f"{buildings} buildings, {len(space.partitions)} partitions: "
        f"{result['updates_per_sec']:.0f} upd/s"
    )
    return _merge(
        result,
        buildings=buildings,
        partitions=len(space.partitions),
        objects=objects,
    )


def _run_diurnal(params: dict, ctx: CellContext) -> dict:
    """A day of load: per-hour batch sizes follow a trough-to-peak
    sinusoid, so the cell reports throughput under swelling and
    ebbing update rates (plus the hourly series for plotting)."""
    profile = scenario_profile(ctx)
    factory = WorkloadFactory(profile, seed=ctx.seed)
    scenario = factory.stream_scenario(
        n_irq=int(params.get("n_irq", 2)),
        n_iknn=int(params.get("n_iknn", 1)),
        n_objects=params.get("objects"),
        seed=ctx.seed,
    )
    hours = int(params.get("hours", 8))
    trough = int(params.get("trough_batch", 4))
    peak = int(params.get("peak_batch", 20))
    batches_per_hour = int(params.get("batches_per_hour", 2))
    hourly: list[dict[str, Any]] = []
    totals = {"updates": 0, "deltas": 0, "elapsed_s": 0.0}
    for hour in range(hours):
        # 0 at midnight and midday's mirror, 1 at the single peak.
        phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * hour / hours))
        size = trough + round((peak - trough) * phase)
        r = _drive(
            scenario.monitor, scenario.stream, batches_per_hour, size
        )
        hourly.append(
            {
                "hour": hour,
                "batch_size": size,
                "updates_per_sec": r["updates_per_sec"],
            }
        )
        for key in totals:
            totals[key] += r[key]
    ctx.log(
        f"{hours}h curve, batch {trough}..{peak}: "
        f"{_rate(totals['updates'], totals['elapsed_s']):.0f} upd/s"
    )
    return {
        "updates": totals["updates"],
        "deltas": totals["deltas"],
        "elapsed_s": totals["elapsed_s"],
        "updates_per_sec": _rate(
            totals["updates"], totals["elapsed_s"]
        ),
        "deltas_per_sec": _rate(totals["deltas"], totals["elapsed_s"]),
        "hours": hours,
        "hourly": hourly,
    }
