"""Synthetic shopping-mall generator.

The paper's evaluation uses a real mall floor plan (600 m x 600 m x 4 m
per floor, ~100 rooms, 4 staircases, connecting hallways; Section V-A).
The plan image is not available, so this module generates a floor plan
with the same statistics — this is the substitution documented in
DESIGN.md §4.  Queries and objects are placed randomly in both the paper
and here, so only the plan's aggregate shape matters.

Layout per floor (bottom to top):

* ``bands + 1`` horizontal hallways spanning the floor's width (the
  bottom and top ones shortened to make room for corner staircases);
* between consecutive hallways a *room strip*, split by a central
  *spine* hallway segment into a left and a right row of rooms;
* every room has a door onto the hallway below its strip; every spine
  segment has doors onto the hallways below and above it;
* four staircase shafts in the floor corners (SW/SE attach to the bottom
  hallway, NW/NE to the top one); a shaft spans two consecutive floors
  and has one entrance door per floor.

With the defaults (``bands=5``, ``rooms_per_band_side=10``) a floor has
100 rooms + 6 hallways + 5 spines = 111 partitions, matching the paper's
"100 rooms and 4 staircases" per 600 m x 600 m floor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SpaceError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.space.builder import SpaceBuilder
from repro.space.door import DoorDirection
from repro.space.floorplan import IndoorSpace
from repro.space.partition import PartitionKind


@dataclass(frozen=True)
class MallParameters:
    """Generator knobs; the defaults reproduce the paper's plan."""

    floors: int = 1
    bands: int = 5
    rooms_per_band_side: int = 10
    floor_size: float = 600.0
    hallway_width: float = 6.0
    stair_size: float = 20.0
    floor_height: float = 4.0
    #: Fraction of room doors that are one-way (into the room); 0 in the
    #: paper's experiments, available for topology-sensitivity studies.
    one_way_fraction: float = 0.0
    seed: int | None = None
    #: Planar offset of the building's south-west corner — several
    #: buildings generated into one shared builder (a campus) each get
    #: their own origin so footprints never overlap.
    origin_x: float = 0.0
    origin_y: float = 0.0
    #: Prepended to every partition/door id; distinct prefixes keep
    #: multi-building ids collision-free (e.g. ``"b0_"``).
    id_prefix: str = ""

    @property
    def rooms_per_floor(self) -> int:
        return 2 * self.bands * self.rooms_per_band_side

    @property
    def partitions_per_floor(self) -> int:
        # rooms + hallways + spine segments (staircase shafts span floors
        # and are counted separately).
        return self.rooms_per_floor + (self.bands + 1) + self.bands


def build_mall(
    floors: int = 1,
    bands: int = 5,
    rooms_per_band_side: int = 10,
    floor_size: float = 600.0,
    hallway_width: float = 6.0,
    stair_size: float = 20.0,
    floor_height: float = 4.0,
    one_way_fraction: float = 0.0,
    seed: int | None = None,
) -> IndoorSpace:
    """Generate a multi-floor mall; see the module docstring for layout."""
    params = MallParameters(
        floors,
        bands,
        rooms_per_band_side,
        floor_size,
        hallway_width,
        stair_size,
        floor_height,
        one_way_fraction,
        seed,
    )
    return generate_mall(params)


def generate_mall(params: MallParameters) -> IndoorSpace:
    builder = SpaceBuilder(floor_height=params.floor_height)
    add_mall(builder, params)
    return builder.build(validate=True)


def add_mall(builder: SpaceBuilder, params: MallParameters) -> None:
    """Generate one mall *into* an existing builder.

    The composition primitive behind multi-building campuses
    (:func:`repro.bench.scenarios.build_campus`): each building is
    offset by its ``origin_x``/``origin_y`` and namespaced by its
    ``id_prefix``, and the caller wires the buildings together (e.g.
    with walkway hallways) before building the space.
    """
    if params.floors < 1:
        raise SpaceError("need at least one floor")
    if params.bands < 1:
        raise SpaceError("need at least one room band")
    wh = params.hallway_width
    bands = params.bands
    strip_height = (params.floor_size - (bands + 1) * wh) / bands
    if strip_height <= 0:
        raise SpaceError("hallways too wide for the floor size")
    rng = random.Random(params.seed)

    for floor in range(params.floors):
        _build_floor(builder, params, floor, strip_height, rng)

    for floor in range(params.floors - 1):
        _build_staircases(builder, params, floor)


# ---------------------------------------------------------------------------
# per-floor construction
# ---------------------------------------------------------------------------


def _strip_height(params: MallParameters) -> float:
    return (
        params.floor_size - (params.bands + 1) * params.hallway_width
    ) / params.bands


def _rect(params: MallParameters, x0: float, y0: float, x1: float, y1: float) -> Rect:
    """A building-local rect, shifted to the building's origin."""
    ox, oy = params.origin_x, params.origin_y
    return Rect(ox + x0, oy + y0, ox + x1, oy + y1)


def _hallway_id(params: MallParameters, floor: int, band: int) -> str:
    return f"{params.id_prefix}f{floor}_hall{band}"


def _spine_id(params: MallParameters, floor: int, band: int) -> str:
    return f"{params.id_prefix}f{floor}_spine{band}"


def _room_id(
    params: MallParameters, floor: int, band: int, side: str, index: int
) -> str:
    return f"{params.id_prefix}f{floor}_room_{band}{side}{index}"


def _build_floor(
    builder: SpaceBuilder,
    params: MallParameters,
    floor: int,
    strip_height: float,
    rng: random.Random,
) -> None:
    wh = params.hallway_width
    size = params.floor_size
    s = params.stair_size
    bands = params.bands
    k = params.rooms_per_band_side
    left_max = (size - wh) / 2.0
    right_min = (size + wh) / 2.0
    room_w = left_max / k

    # Hallways: bands+1 horizontal strips.  When the building has
    # staircases (floors > 1), the bottom (0) and top (bands) strips are
    # shortened to leave the corner shafts free.
    shorten = params.floors > 1
    if shorten and s >= room_w:
        raise SpaceError(
            "stair_size must be smaller than a room width so corner rooms "
            "still touch the shortened end hallways"
        )
    hallway_rects = []
    for band in range(bands + 1):
        y0 = band * (wh + strip_height)
        if shorten and band in (0, bands):
            rect = _rect(params, s, y0, size - s, y0 + wh)
        else:
            rect = _rect(params, 0.0, y0, size, y0 + wh)
        hallway_rects.append(rect)
        builder.add_hallway(_hallway_id(params, floor, band), rect, floor)

    # Room strips + spine segments.
    for band in range(bands):
        y0 = wh + band * (wh + strip_height)
        y1 = y0 + strip_height
        spine = _rect(params, left_max, y0, right_min, y1)
        builder.add_hallway(_spine_id(params, floor, band), spine, floor)
        builder.connect(
            _spine_id(params, floor, band),
            _hallway_id(params, floor, band),
            floor=floor,
        )
        builder.connect(
            _spine_id(params, floor, band),
            _hallway_id(params, floor, band + 1),
            floor=floor,
        )
        for side, x_start in (("L", 0.0), ("R", right_min)):
            for i in range(k):
                x0 = x_start + i * room_w
                room = _rect(params, x0, y0, x0 + room_w, y1)
                rid = _room_id(params, floor, band, side, i)
                builder.add_room(rid, room, floor)
                hall = _hallway_id(params, floor, band)
                direction = (
                    DoorDirection.ONE_WAY
                    if rng.random() < params.one_way_fraction
                    else DoorDirection.BIDIRECTIONAL
                )
                at = _door_on_shared_bottom_wall(
                    room, hallway_rects[band], floor
                )
                builder.connect(
                    hall, rid, at=at, direction=direction, floor=floor
                )


def _door_on_shared_bottom_wall(
    room: Rect, hallway: Rect, floor: int
) -> Point:
    """Door midpoint on the x-overlap of the room's bottom wall and the
    hallway's top wall (they touch by construction)."""
    lo = max(room.minx, hallway.minx)
    hi = min(room.maxx, hallway.maxx)
    if lo >= hi:
        raise SpaceError("room does not touch its hallway")
    return Point((lo + hi) / 2.0, room.miny, floor)


def _build_staircases(
    builder: SpaceBuilder, params: MallParameters, floor: int
) -> None:
    """Four corner shafts spanning ``floor .. floor+1``.

    Each shaft occupies the corner segment of the (shortened) bottom or
    top hallway strip, so shafts never overlap rooms: the only planar
    overlaps in the model are between stacked shafts of the same corner
    on consecutive floor gaps, which share no floor partition ambiguity
    for query points (queries and objects are placed outside
    staircases).
    """
    size = params.floor_size
    s = params.stair_size
    wh = params.hallway_width
    top_y = params.bands * (wh + _strip_height(params))
    corners = {
        # attaches to bottom hallway
        "sw": (_rect(params, 0.0, 0.0, s, wh), 0),
        "se": (_rect(params, size - s, 0.0, size, wh), 0),
        "nw": (_rect(params, 0.0, top_y, s, top_y + wh), params.bands),
        "ne": (
            _rect(params, size - s, top_y, size, top_y + wh),
            params.bands,
        ),
    }
    for name, (rect, band) in corners.items():
        sid = f"{params.id_prefix}stair_{name}_{floor}"
        builder.add_staircase(sid, rect, floor, floor + 1)
        for entrance_floor in (floor, floor + 1):
            builder.connect(
                sid,
                _hallway_id(params, entrance_floor, band),
                floor=entrance_floor,
                door_id=f"{sid}_e{entrance_floor}",
            )


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def mall_statistics(space: IndoorSpace) -> dict[str, int]:
    """Aggregate counts, used by the benchmarks (benchmarks/README.md)."""
    kinds = {kind: 0 for kind in PartitionKind}
    for p in space.partitions.values():
        kinds[p.kind] += 1
    return {
        "partitions": len(space.partitions),
        "doors": len(space.doors),
        "rooms": kinds[PartitionKind.ROOM],
        "hallways": kinds[PartitionKind.HALLWAY],
        "staircases": kinds[PartitionKind.STAIRCASE],
        "floors": space.num_floors,
    }
