"""The two benchmark worlds and the query mixes drawn over them.

Worlds are built from explicit numbers (never from a bench profile
name) through the public constructors only, so the benchmark keeps
measuring the same venue whatever happens to ``repro.bench``.  Every
random choice — where people stand, where queries are asked from, how
the crowd moves — derives from the ``--seed`` argument; the program
under test only ever sees the generated inputs.  *Which* partitions the
crowd and the queries occupy is stratified rather than drawn, so that
two seeds give two samples of one workload, not two workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro import (
    CompositeIndex,
    CountSpec,
    KNNSpec,
    MovementStream,
    ObjectGenerator,
    ObjectPopulation,
    Point,
    ProbRangeSpec,
    RangeSpec,
    build_mall,
)


@dataclass(frozen=True)
class WorldShape:
    """Everything that sizes one world."""

    mall: dict[str, Any] = field(default_factory=dict)
    n_objects: int = 0
    radius: float = 0.0
    n_instances: int = 0
    fanout: int = 20


#: World A — the paper-shaped "medium" mall of Figs. 12-13.
WORLD_A = WorldShape(
    mall=dict(
        floors=4, bands=5, rooms_per_band_side=10, floor_size=600,
        hallway_width=6, stair_size=20,
    ),
    n_objects=2000,
    radius=10.0,
    n_instances=50,
)

#: World B — a small venue, sized so the served stack runs at ~0.4
#: utilisation under the open-loop offered rate.
WORLD_B = WorldShape(
    mall=dict(
        floors=2, bands=3, rooms_per_band_side=5, floor_size=300,
        hallway_width=5, stair_size=15,
    ),
    n_objects=600,
    radius=5.0,
    n_instances=20,
)


#: How far from its partition's centre a query point may stand, metres.
KIOSK_JITTER_M = 3.0


@dataclass
class World:
    """One built world: space, population, generator and index."""

    seed: int
    space: Any
    population: Any
    generator: Any
    index: Any

    @classmethod
    def build(cls, shape: WorldShape, seed: int) -> "World":
        """Build the mall, place the crowd, index it.

        Placement is stratified like the query points: object ``j``
        goes to partition ``j mod |partitions|`` and the seed picks
        the spot inside, so every seed's crowd has the same density
        per partition (the stock generator picks a partition at random
        per object, which leaves some wings twice as crowded as others
        and made the same workload cost 60-100 updates/s by seed)."""
        space = build_mall(**shape.mall)
        generator = ObjectGenerator(
            space,
            radius=shape.radius,
            n_instances=shape.n_instances,
            seed=seed,
        )
        rng = random.Random(seed)
        places = _places(space)
        population = ObjectPopulation(space, grid=generator.grid)
        for j in range(shape.n_objects):
            center = _point_in(places[j % len(places)], rng)
            population.insert(generator.generate_one(center))
        index = CompositeIndex.build(
            space, population, fanout=shape.fanout
        )
        return cls(seed, space, population, generator, index)

    def points(self, n: int, salt: int) -> list:
        """``n`` query points — kiosks.  The i-th kiosk always stands
        in the same partition (an even stride over the venue, visited
        in a fixed shuffled order), within :data:`KIOSK_JITTER_M` of
        its centre; the seed picks the exact spot.  What a query costs
        depends heavily on where it is asked from (an ikNNQ from a
        corner room costs ten times one from mid-floor, and twice as
        much from one end of the room as from the other), so freely
        drawn points made one workload cost 54-76 updates/s by seed;
        fixed kiosks make two seeds two samples of one workload."""
        rng = random.Random(self.seed * 7919 + salt)
        places = _places(self.space)
        order = random.Random(salt).sample(range(n), n)
        return [
            _kiosk_in(places[(slot * len(places)) // n], rng)
            for slot in order
        ]

    def stream(self, salt: int = 1) -> MovementStream:
        """The random-walk movement stream over this world."""
        return MovementStream(
            self.space,
            self.population,
            self.generator,
            hop_probability=0.5,
            seed=self.seed * 7919 + salt,
        )


def _places(space: Any) -> list:
    """The partitions people and queries can stand in, in the mall
    builder's own (deterministic) order."""
    return [p for p in space.partitions.values() if not p.is_staircase]


def _point_in(partition: Any, rng: random.Random) -> Point:
    """A uniform point inside ``partition``'s footprint."""
    while True:
        x, y = partition.bounds.random_xy(rng)
        if partition.contains_xy(x, y):
            return Point(x, y, partition.floor)


def _kiosk_in(partition: Any, rng: random.Random) -> Point:
    """A point within ``KIOSK_JITTER_M`` of ``partition``'s centre
    (less where the partition is narrower), inside its footprint."""
    box = partition.bounds
    cx, cy = 0.5 * (box.minx + box.maxx), 0.5 * (box.miny + box.maxy)
    jx = min(KIOSK_JITTER_M, 0.4 * (box.maxx - box.minx))
    jy = min(KIOSK_JITTER_M, 0.4 * (box.maxy - box.miny))
    while True:
        x, y = cx + rng.uniform(-jx, jx), cy + rng.uniform(-jy, jy)
        if partition.contains_xy(x, y):
            return Point(x, y, partition.floor)


def stream_over(service: Any, shape: WorldShape, seed: int):
    """A movement stream over a *recovered* service's own space and
    population (a restart rebuilds both as new objects)."""
    space = service.index.space
    generator = ObjectGenerator(
        space,
        radius=shape.radius,
        n_instances=shape.n_instances,
        seed=seed,
    )
    return MovementStream(
        space,
        service.index.population,
        generator,
        hop_probability=0.5,
        seed=seed,
    )


def range_stream_specs(points: list) -> list:
    """48 standing queries the Eq. 7/8 bounds decide almost alone."""
    return (
        [RangeSpec(q, 100.0) for q in points[:16]]
        + [RangeSpec(q, 50.0) for q in points[16:32]]
        + [ProbRangeSpec(q, 100.0, 0.5) for q in points[32:48]]
    )


def knn_stream_specs(points: list) -> list:
    """12 standing queries dominated by ikNNQ recomputation."""
    return [KNNSpec(q, 50) for q in points[:9]] + [
        RangeSpec(q, 100.0) for q in points[9:12]
    ]


def served_specs(points: list) -> list:
    """16 standing queries of every watchable kind a client follows."""
    return (
        [RangeSpec(q, 60.0) for q in points[:3]]
        + [RangeSpec(q, 30.0) for q in points[3:6]]
        + [KNNSpec(q, 10) for q in points[6:10]]
        + [ProbRangeSpec(q, 60.0, 0.5) for q in points[10:13]]
        + [CountSpec(q, 60.0, 5) for q in points[13:16]]
    )


#: (kind, constructor) round-robin of the one-shot mix; the level
#: cycles each kind through its three parameter values.
ONESHOT_KINDS = (
    ("irq", lambda q, level: RangeSpec(q, (50.0, 100.0, 150.0)[level])),
    ("iknn", lambda q, level: KNNSpec(q, (25, 50, 75)[level])),
    ("iprq", lambda q, level: ProbRangeSpec(q, 100.0, 0.5)),
)
