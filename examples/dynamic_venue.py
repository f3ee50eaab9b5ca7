"""Temporal topology changes: the sliding-wall conference hall
(Figure 1's room 21, Section I).

A banquet hall is split into two meeting rooms by a sliding wall, and
later merged back.  Pre-computed door-to-door distances would be
invalidated by each change (Figure 15(d) shows the half-hour rebuild);
the composite index absorbs the events in milliseconds and queries stay
correct throughout.

Run with::

    python examples/dynamic_venue.py
"""

import time

from repro import CompositeIndex, ObjectGenerator, iRQ
from repro.reference import PrecomputedDistanceIndex
from repro.geometry import Point, Rect
from repro.space import MergePartitions, SpaceBuilder, SplitPartition


def build_venue(wings: int = 60):
    """A conference centre: the banquet hall (room21) plus two rows of
    meeting rooms along a long hallway — enough doors that the
    pre-computation baseline's rebuild cost is visible."""
    b = SpaceBuilder()
    width = 100.0 + wings * 20.0
    b.add_hallway("hall", Rect(0, 40, width, 50))
    b.add_room("room21", Rect(0, 0, 100, 40))  # the banquet hall
    b.connect("room21", "hall", at=Point(20, 40), door_id="d41")
    b.connect("room21", "hall", at=Point(80, 40), door_id="d42")
    for i in range(wings):
        south = Rect(100 + 20 * i, 0, 120 + 20 * i, 40)
        north = Rect(100 + 20 * i, 50, 120 + 20 * i, 90)
        b.add_room(f"meet_s{i}", south)
        b.add_room(f"meet_n{i}", north)
        b.connect(f"meet_s{i}", "hall")
        b.connect(f"meet_n{i}", "hall")
    b.add_room("lounge", Rect(0, 50, 100, 90))
    b.connect("lounge", "hall")
    return b.build()


def main() -> None:
    space = build_venue()
    gen = ObjectGenerator(space, radius=4.0, n_instances=25, seed=31)
    guests = gen.generate(400)
    index = CompositeIndex.build(space, guests)
    # Seat a banquet table group in the east half of room21.
    for i in range(12):
        seat = Point(60.0 + (i % 4) * 10.0, 10.0 + (i // 4) * 10.0, 0)
        index.insert_object(gen.generate_one(center=seat))

    # A catering trolley at the west end of the banquet hall.
    q = Point(25.0, 20.0, 0)
    r = 70.0

    before = iRQ(q, r, index)
    print(f"Banquet style: iRQ({r:g} m) -> {len(before)} guests")

    # Mount the sliding wall: room21 becomes two meeting rooms.
    t0 = time.perf_counter()
    index.apply_event(SplitPartition("room21", axis="x", coord=50.0))
    split_ms = 1000 * (time.perf_counter() - t0)
    after_split = iRQ(q, r, index)
    print(
        f"Meeting style (wall mounted in {split_ms:.2f} ms): "
        f"iRQ -> {len(after_split)} guests"
    )
    print(
        "  guests east of the wall now need the d41/d42 detour, so "
        f"{len(before) - len(after_split)} dropped out of range"
    )

    # Dismount the wall again.
    t0 = time.perf_counter()
    index.apply_event(MergePartitions(("room21_a", "room21_b"), "room21"))
    merge_ms = 1000 * (time.perf_counter() - t0)
    after_merge = iRQ(q, r, index)
    print(
        f"Banquet style again (wall dismounted in {merge_ms:.2f} ms): "
        f"iRQ -> {len(after_merge)} guests"
    )
    assert after_merge.ids() == before.ids()

    # The same change under the pre-computation design: full rebuild.
    pre = PrecomputedDistanceIndex(space)
    t0 = time.perf_counter()
    pre.rebuild()
    rebuild_ms = 1000 * (time.perf_counter() - t0)
    doors = len(space.doors)
    print(
        f"\nMaintenance comparison for one topology change "
        f"({len(space.partitions)} partitions, {doors} doors):\n"
        f"  composite index update: {split_ms:.2f} ms\n"
        f"  door-to-door pre-computation rebuild: {rebuild_ms:.2f} ms\n"
        f"The rebuild runs one Dijkstra per door, so it grows "
        f"quadratically with the building while the index update stays "
        f"local (Figure 15(c) vs 15(d))."
    )


if __name__ == "__main__":
    main()
