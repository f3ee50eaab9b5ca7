"""Workload construction for the benchmark harness.

The paper's grid (Section V-A, defaults bolded there):

* building: 600 m x 600 m x 4 m floors, 100 rooms + 4 staircases per
  floor; 10 / **20** / 30 floors (~1K / 2K / 3K partitions);
* objects: 10K / **20K** / 30K, uncertainty radii 5 / **10** / 15 m
  (the paper's Figure 12(c) x-axis shows diameters 10 / 20 / 30),
  100 Gaussian instances each;
* queries: 50 random query points; iRQ ranges 50 / **100** / 150 m;
  ikNNQ k = 50 / **100** / 150; fanout 20.

Scaled profiles shrink every axis proportionally so the harness runs in
minutes in pure Python while preserving the *shape* of each figure.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.objects.generator import MovementStream, ObjectGenerator
from repro.objects.population import ObjectPopulation
from repro.queries.monitor import QueryMonitor
from repro.space.floorplan import IndoorSpace
from repro.space.mall import build_mall


@dataclass(frozen=True)
class ScaleProfile:
    """One benchmark scale: the swept axes of the paper's grid."""

    name: str
    floors_grid: tuple[int, ...]      # partition sweep (Figs 12d/13d/15b/15d)
    default_floors: int
    objects_grid: tuple[int, ...]     # |O| sweep (Figs 12a/13a/14)
    default_objects: int
    radii_grid: tuple[float, ...]     # uncertainty sweep (Figs 12c/13c)
    default_radius: float
    ranges_grid: tuple[float, ...]    # iRQ r sweep
    default_range: float
    k_grid: tuple[int, ...]           # ikNNQ k sweep
    default_k: int
    n_instances: int
    n_queries: int
    bands: int
    rooms_per_band_side: int
    floor_size: float
    hallway_width: float
    stair_size: float
    fanout: int = 20
    seed: int = 2013  # the paper's year; fixed for reproducibility


SMALL = ScaleProfile(
    name="small",
    floors_grid=(1, 2, 3),
    default_floors=2,
    objects_grid=(300, 600, 900),
    default_objects=600,
    radii_grid=(2.5, 5.0, 7.5),
    default_radius=5.0,
    ranges_grid=(25.0, 50.0, 75.0),
    default_range=50.0,
    k_grid=(10, 20, 30),
    default_k=20,
    n_instances=20,
    n_queries=5,
    bands=3,
    rooms_per_band_side=5,
    floor_size=300.0,
    hallway_width=5.0,
    stair_size=15.0,
)

MEDIUM = ScaleProfile(
    name="medium",
    floors_grid=(2, 4, 6),
    default_floors=4,
    objects_grid=(1000, 2000, 3000),
    default_objects=2000,
    radii_grid=(5.0, 10.0, 15.0),
    default_radius=10.0,
    ranges_grid=(50.0, 100.0, 150.0),
    default_range=100.0,
    k_grid=(25, 50, 75),
    default_k=50,
    n_instances=50,
    n_queries=10,
    bands=5,
    rooms_per_band_side=10,
    floor_size=600.0,
    hallway_width=6.0,
    stair_size=20.0,
)

PAPER = ScaleProfile(
    name="paper",
    floors_grid=(10, 20, 30),
    default_floors=20,
    objects_grid=(10_000, 20_000, 30_000),
    default_objects=20_000,
    radii_grid=(5.0, 10.0, 15.0),
    default_radius=10.0,
    ranges_grid=(50.0, 100.0, 150.0),
    default_range=100.0,
    k_grid=(50, 100, 150),
    default_k=100,
    n_instances=100,
    n_queries=50,
    bands=5,
    rooms_per_band_side=10,
    floor_size=600.0,
    hallway_width=6.0,
    stair_size=20.0,
)

_PROFILES = {p.name: p for p in (SMALL, MEDIUM, PAPER)}


def active_profile() -> ScaleProfile:
    """The profile selected by ``REPRO_BENCH_SCALE`` (default small)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE={name!r}; "
            f"choose from {sorted(_PROFILES)}"
        ) from None


class WorkloadFactory:
    """Builds and caches spaces, populations, indexes and query points.

    Construction dominates benchmark wall-clock, so everything is memoised
    by its parameter tuple.
    """

    def __init__(
        self,
        profile: ScaleProfile | None = None,
        seed: int | None = None,
    ) -> None:
        self.profile = profile or active_profile()
        #: The single base seed every derived stream of randomness
        #: (space layout, population, query points, movement) hangs off
        #: — profile default unless the caller pins one (the grid
        #: runner records it in each cell's ``params.json``, so a cell
        #: is reproducible from that file alone).
        self.seed = self.profile.seed if seed is None else int(seed)
        self._spaces: dict[int, IndoorSpace] = {}
        self._populations: dict[tuple[int, int, float], ObjectPopulation] = {}
        self._indexes: dict[tuple[int, int, float], CompositeIndex] = {}

    # ------------------------------------------------------------------

    def space(self, floors: int | None = None) -> IndoorSpace:
        p = self.profile
        if floors is None:
            floors = p.default_floors
        if floors not in self._spaces:
            self._spaces[floors] = build_mall(
                floors=floors,
                bands=p.bands,
                rooms_per_band_side=p.rooms_per_band_side,
                floor_size=p.floor_size,
                hallway_width=p.hallway_width,
                stair_size=p.stair_size,
                seed=self.seed,
            )
        return self._spaces[floors]

    def population(
        self,
        floors: int | None = None,
        n_objects: int | None = None,
        radius: float | None = None,
    ) -> ObjectPopulation:
        p = self.profile
        key = (
            floors or p.default_floors,
            n_objects or p.default_objects,
            radius or p.default_radius,
        )
        if key not in self._populations:
            space = self.space(key[0])
            gen = ObjectGenerator(
                space,
                radius=key[2],
                n_instances=p.n_instances,
                seed=self.seed + key[1],
            )
            self._populations[key] = gen.generate(key[1])
        return self._populations[key]

    def index(
        self,
        floors: int | None = None,
        n_objects: int | None = None,
        radius: float | None = None,
    ) -> CompositeIndex:
        p = self.profile
        key = (
            floors or p.default_floors,
            n_objects or p.default_objects,
            radius or p.default_radius,
        )
        if key not in self._indexes:
            self._indexes[key] = CompositeIndex.build(
                self.space(key[0]),
                self.population(*key),
                fanout=p.fanout,
            )
        return self._indexes[key]

    def query_points(
        self, floors: int | None = None, n: int | None = None
    ) -> list[Point]:
        p = self.profile
        space = self.space(floors)
        rng = random.Random(self.seed + 17)
        return [
            space.random_point(rng=rng) for _ in range(n or p.n_queries)
        ]

    # ------------------------------------------------------------------
    # streaming (continuous-monitoring) workloads
    # ------------------------------------------------------------------

    def stream_scenario(
        self,
        n_irq: int = 4,
        n_iknn: int = 2,
        n_iprq: int = 0,
        floors: int | None = None,
        n_objects: int | None = None,
        seed: int | None = None,
    ) -> "StreamScenario":
        """A continuous-monitoring scenario: standing queries + stream.

        Streaming *mutates* the population, so this builds a dedicated
        population and index (never the factory's cached ones — those
        must stay pristine for the one-shot benchmarks).  The space is
        shared read-only; streaming scenarios must not apply topology
        events to it.

        The standing queries take the profile's defaults: iRQ range
        ``default_range``, ikNNQ ``default_k``, and iPRQ (``n_iprq``
        of them) the same range at threshold 0.5.  ``floors`` and
        ``n_objects`` fall back to the profile only when ``None``: an
        explicit 0 builds what it says.  ``seed`` overrides the
        factory's base seed for this scenario's population and
        movement stream only (the shared space keeps the factory seed —
        grid cells vary workloads without rebuilding venues).
        """
        p = self.profile
        if n_objects is None:
            n_objects = p.default_objects
        space = self.space(floors)
        base_seed = self.seed if seed is None else int(seed)
        gen = ObjectGenerator(
            space,
            radius=p.default_radius,
            n_instances=p.n_instances,
            seed=base_seed + 4242,
            id_prefix="s",
        )
        population = gen.generate(n_objects)
        index = CompositeIndex.build(space, population, fanout=p.fanout)
        stream = MovementStream(space, population, gen, seed=base_seed + 7)
        monitor = QueryMonitor(index)
        r = p.default_range
        points = self.query_points(floors, n=n_irq + n_iknn + n_iprq)
        irq_ids = [monitor.register(RangeSpec(q, r)) for q in points[:n_irq]]
        knn_ids = [
            monitor.register(KNNSpec(q, p.default_k))
            for q in points[n_irq:n_irq + n_iknn]
        ]
        iprq_ids = [
            monitor.register(ProbRangeSpec(q, r, 0.5))
            for q in points[n_irq + n_iknn:]
        ]
        return StreamScenario(
            index, monitor, stream, irq_ids, knn_ids, iprq_ids
        )


@dataclass
class StreamScenario:
    """One continuous-monitoring setup: a dedicated mutable index, the
    monitor with its standing queries, and the movement stream."""

    index: CompositeIndex
    monitor: QueryMonitor
    stream: MovementStream
    irq_ids: list[str]
    knn_ids: list[str]
    iprq_ids: list[str] = field(default_factory=list)

    @property
    def query_ids(self) -> list[str]:
        """Every standing query id, in registration order."""
        return self.irq_ids + self.knn_ids + self.iprq_ids
