"""Shared fixtures: small canonical spaces used across the test suite."""

import pytest

from repro.geometry import Circle, Point, Rect
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.space import SpaceBuilder
from repro.space.mall import build_mall


@pytest.fixture
def five_rooms():
    """One floor: a hallway with three rooms below and two above.

    Layout (y grows upward)::

        +--------r4-------+----r5----+
        |   (0,14,15,24)  |(15,14,30,24)
        +-----------h-(0,10,30,14)---+
        | r1(0..10) | r2(10..20) | r3(20..30) |   y in [0, 10]
        +-----------+------------+------------+

    Doors: each room onto the hallway, plus a direct door r1<->r2.
    """
    b = SpaceBuilder()
    b.add_hallway("h", Rect(0, 10, 30, 14))
    b.add_room("r1", Rect(0, 0, 10, 10))
    b.add_room("r2", Rect(10, 0, 20, 10))
    b.add_room("r3", Rect(20, 0, 30, 10))
    b.add_room("r4", Rect(0, 14, 15, 24))
    b.add_room("r5", Rect(15, 14, 30, 24))
    b.connect("r1", "h", door_id="d1")
    b.connect("r2", "h", door_id="d2")
    b.connect("r3", "h", door_id="d3")
    b.connect("r4", "h", door_id="d4")
    b.connect("r5", "h", door_id="d5")
    b.connect("r1", "r2", door_id="d12")
    return b.build()


@pytest.fixture
def crowded_index(five_rooms):
    """``five_rooms`` indexed with twelve radius-0 objects, enough for
    ``KNNSpec(Point(5, 5, 0), 2)`` (margin 8) to keep a finite guard
    band: ``near`` (1 m) and ``mid`` (3 m) are its members,
    ``b0``..``b7`` fill the band at 3.2 .. 4.6 m (``rho``), ``far`` and
    ``far2`` sit in r3 well beyond it."""
    spots = {"near": (4.0, 5.0), "mid": (8.0, 5.0)}
    spots.update((f"b{i}", (5.0, 1.8 - 0.2 * i)) for i in range(8))
    spots.update(far=(25.0, 5.0), far2=(27.0, 2.0))
    pop = ObjectPopulation(five_rooms)
    for object_id, (x, y) in spots.items():
        p = Point(x, y, 0)
        pop.insert(
            UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))
        )
    return CompositeIndex.build(five_rooms, pop)


@pytest.fixture
def one_way_space():
    """Figure-1-style check: r2 reachable from r1 only via the hallway,
    because the direct r1->r2 door is one-way (r2 -> r1)."""
    b = SpaceBuilder()
    b.add_hallway("h", Rect(0, 10, 20, 14))
    b.add_room("r1", Rect(0, 0, 10, 10))
    b.add_room("r2", Rect(10, 0, 20, 10))
    b.connect("r1", "h", door_id="dh1")
    b.connect("r2", "h", door_id="dh2")
    b.one_way("r2", "r1", door_id="d21")  # movement allowed r2 -> r1 only
    return b.build()


@pytest.fixture
def two_floor_space():
    """Two floors, one staircase: room-hall on each floor, shaft on the
    right edge connecting the two hallways."""
    b = SpaceBuilder()
    for f in range(2):
        b.add_room(f"room{f}", Rect(0, 0, 10, 10), floor=f)
        b.add_hallway(f"hall{f}", Rect(10, 0, 20, 10), floor=f)
        b.connect(f"room{f}", f"hall{f}", door_id=f"dr{f}", floor=f)
    b.add_staircase("stair", Rect(20, 0, 24, 10), 0, 1)
    b.connect("stair", "hall0", door_id="se0", floor=0)
    b.connect("stair", "hall1", door_id="se1", floor=1)
    return b.build()


@pytest.fixture(scope="session")
def small_mall():
    """A small but full-featured mall: 2 floors, 2 bands, 3 rooms/side."""
    return build_mall(
        floors=2, bands=2, rooms_per_band_side=3, floor_size=120.0,
        hallway_width=4.0, stair_size=10.0, seed=42,
    )


@pytest.fixture(scope="session")
def medium_mall():
    """3 floors, paper-like structure scaled down; session-scoped because
    construction is not free."""
    return build_mall(
        floors=3, bands=3, rooms_per_band_side=5, floor_size=300.0,
        hallway_width=5.0, stair_size=15.0, seed=7,
    )


@pytest.fixture
def q_center():
    """A query point in the middle of the five_rooms hallway."""
    return Point(15.0, 12.0, 0)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test's
    duration and returns the list its call arguments are appended to —
    for guards of the "this loop cannot come back unnoticed" kind."""

    def count(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count
