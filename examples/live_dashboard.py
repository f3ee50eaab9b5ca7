"""Live dashboard: delta subscriptions through the QueryService façade.

A mall operations desk watches three standing queries while visitors
walk around: an information kiosk's "who is within 60 m" range query,
a security desk's 8 nearest visitors, and a VIP lounge's
probabilistic-threshold watch ("at least 70% likely to be within
40 m" — a standing iPRQ, maintained incrementally by the pluggable
ProbRangeMaintainer through the very same ``watch(spec)`` path).
Everything goes through one :class:`repro.QueryService`: declarative
specs (:class:`repro.RangeSpec` / :class:`repro.KNNSpec` /
:class:`repro.ProbRangeSpec`) instead of per-class registration calls,
and :meth:`subscribe` feeds that push every result **delta** — who
entered, who left, whose distance (or appearance probability) changed
— into the dashboard's queues, absorbing a corridor-door closure (a
cleaning blockage) without missing a beat.

Run with::

    python examples/live_dashboard.py
"""

import asyncio

from repro import (
    CompositeIndex,
    KNNSpec,
    MovementStream,
    ObjectGenerator,
    ProbRangeSpec,
    QueryService,
    RangeSpec,
    build_mall,
    replay_deltas,
)
from repro.space.events import CloseDoor, OpenDoor


async def watch(name: str, sub, log: list) -> None:
    """One dashboard widget: folds its delta feed into a live view."""
    state: dict = {}
    async for delta in sub:
        delta.apply_to(state)
        if delta.entered or delta.left:
            log.append(
                f"  [{name}] {'+' + ','.join(sorted(delta.entered)) if delta.entered else ''}"
                f"{' ' if delta.entered and delta.left else ''}"
                f"{'-' + ','.join(sorted(delta.left)) if delta.left else ''}"
                f"  ({len(state)} tracked, cause={delta.cause})"
            )


async def main() -> None:
    space = build_mall(
        floors=2,
        bands=2,
        rooms_per_band_side=4,
        floor_size=160.0,
        hallway_width=5.0,
        stair_size=12.0,
        seed=23,
    )
    generator = ObjectGenerator(space, radius=4.0, n_instances=16, seed=23)
    visitors = generator.generate(150)
    index = CompositeIndex.build(space, visitors)
    print(f"Venue:    {space}")
    print(f"Visitors: {len(visitors)} moving objects\n")

    # One façade: the dashboard below never mentions monitors or
    # servers again.
    service = QueryService(index)
    kiosk_q = space.random_point(seed=4)
    desk_q = space.random_point(seed=9)
    vip_q = space.random_point(seed=14)
    kiosk_spec = RangeSpec(kiosk_q, 60.0)
    desk_spec = KNNSpec(desk_q, 8)
    vip_spec = ProbRangeSpec(vip_q, 40.0, 0.7)  # standing iPRQ
    kiosk = service.watch(kiosk_spec, query_id="kiosk")
    desk = service.watch(desk_spec, query_id="security")
    vip = service.watch(vip_spec, query_id="vip")
    print(f"Standing queries: kiosk iRQ(60 m) at "
          f"({kiosk_q.x:.0f},{kiosk_q.y:.0f}) floor {kiosk_q.floor}; "
          f"security 8-NN at ({desk_q.x:.0f},{desk_q.y:.0f}) "
          f"floor {desk_q.floor}; "
          f"vip iPRQ(40 m, p>=0.7) at ({vip_q.x:.0f},{vip_q.y:.0f}) "
          f"floor {vip_q.floor}\n")

    kiosk_sub = service.subscribe(kiosk)     # primed with a snapshot
    desk_sub = service.subscribe(desk)
    vip_sub = service.subscribe(vip)
    replay_feed_sub = service.subscribe(kiosk)  # independent audit feed
    feed_log: list[str] = []
    watchers = [
        asyncio.ensure_future(watch("kiosk", kiosk_sub, feed_log)),
        asyncio.ensure_future(watch("security", desk_sub, feed_log)),
        asyncio.ensure_future(watch("vip", vip_sub, feed_log)),
    ]

    stream = MovementStream(space, visitors, generator, seed=31)
    # A corridor door near the kiosk gets blocked mid-stream.
    blocked_door = sorted(space.doors)[len(space.doors) // 2]

    print("tick | updates |  kiosk | security | vip |  skip%  | note")
    print("-----+---------+--------+----------+-----+---------+-----")

    published_before = service.deltas_published
    for tick in range(1, 11):
        service.ingest(stream.next_moves(30))
        await asyncio.sleep(0)  # the widgets drain their feeds
        note = ""
        if tick == 4:
            service.apply_event(CloseDoor(blocked_door))
            note = f"door {blocked_door} closed (cleaning)"
        elif tick == 7:
            service.apply_event(OpenDoor(blocked_door))
            note = f"door {blocked_door} reopened"
        s = service.stats
        print(
            f"{tick:4d} | {s.updates_seen:7d} | "
            f"{len(service.result_ids(kiosk)):6d} | "
            f"{len(service.result_ids(desk)):8d} | "
            f"{len(service.result_ids(vip)):3d} | "
            f"{100 * s.skip_ratio:6.1f}% | {note}"
        )
    published = service.deltas_published - published_before
    service.close()
    await asyncio.gather(*watchers)

    print("\nDelta feed (first 12 changes the widgets saw):")
    for line in feed_log[:12]:
        print(line)

    # The audit feed proves the delta contract: replaying everything the
    # kiosk subscription received — snapshot included — reconstructs
    # the live result exactly.
    audit = []
    while (delta := await replay_feed_sub.next_delta()) is not None:
        audit.append(delta)
    assert replay_deltas(audit) == service.result_distances(kiosk)
    print(f"\nReplayed {len(audit)} kiosk deltas == live result "
          f"({len(service.result_ids(kiosk))} members): delta contract holds.")

    stats = service.stats
    print(
        f"Processed {stats.updates_seen} updates against "
        f"{len(service)} standing queries: "
        f"{stats.pairs_skipped} pairs decided without exact distance work, "
        f"{stats.pairs_refined} refined, "
        f"{stats.full_recomputes} ikNNQ guard-band refills, "
        f"{stats.event_recomputes} topology resyncs."
    )
    print(
        f"Published {published} deltas, "
        f"{service.deltas_dropped} dropped (all queues unbounded here)."
    )
    assert stats.recompute_ratio < 1.0  # the monitor provably skips work
    print(
        f"Recompute ratio {stats.recompute_ratio:.3f} — standing queries "
        f"re-executed for only {100 * stats.recompute_ratio:.1f}% of "
        f"update/query pairs."
    )


if __name__ == "__main__":
    asyncio.run(main())
