"""Object population generator (Section V-A parameters).

The paper generates objects "randomly distributed in a given building",
with circular uncertainty regions of radius 5/10/15 m and a pdf of 100
Gaussian sampling points (mean = circle center, standard deviation =
diameter / 6, i.e. the circle is the 3-sigma boundary).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from typing import Iterator

from repro.errors import ReproError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.objects.instances import InstanceSet
from repro.objects.population import ObjectMove, ObjectPopulation
from repro.objects.uncertain import UncertainObject, _contains_many
from repro.space.floorplan import IndoorSpace
from repro.space.grid import PartitionGrid
from repro.space.partition import Partition, PartitionKind


@dataclass
class ObjectGenerator:
    """Generate uncertain objects inside a space.

    Parameters
    ----------
    space:
        The building to populate.
    radius:
        Uncertainty-region radius in metres (paper: 5 / **10** / 15).
    n_instances:
        Sampling points per object (paper: 100).
    seed:
        RNG seed for reproducibility.
    """

    space: IndoorSpace
    radius: float = 10.0
    n_instances: int = 100
    seed: int | None = None
    #: object ids are ``f"{id_prefix}{n}"``; override to avoid clashes
    #: when several generators feed one population/index.
    id_prefix: str = "o"

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ReproError("radius must be non-negative")
        if self.n_instances < 1:
            raise ReproError("need at least one instance per object")
        self._rng = np.random.default_rng(self.seed)
        self._grid = PartitionGrid.build(self.space)
        self._placeable = [
            p
            for p in self.space.partitions.values()
            if p.kind is not PartitionKind.STAIRCASE
        ]
        if not self._placeable:
            raise ReproError("space has no non-staircase partitions")
        self._id_counter = itertools.count(1)

    @property
    def grid(self) -> PartitionGrid:
        """The partition grid (reusable by callers, e.g. for subregion
        resolution)."""
        return self._grid

    # ------------------------------------------------------------------

    def generate(self, n: int) -> ObjectPopulation:
        """Generate ``n`` objects as a population."""
        population = ObjectPopulation(self.space, grid=self._grid)
        for _ in range(n):
            population.insert(self.generate_one())
        return population

    def generate_one(self, center: Point | None = None) -> UncertainObject:
        """Generate a single object (optionally at a given center)."""
        if center is None:
            center = self._random_center()
        object_id = f"{self.id_prefix}{next(self._id_counter)}"
        region = Circle(center, self.radius)
        instances = self.sample_instances(region)
        return UncertainObject(object_id, region, instances)

    # ------------------------------------------------------------------

    def _random_center(self) -> Point:
        for _ in range(1000):
            partition = self._placeable[
                int(self._rng.integers(len(self._placeable)))
            ]
            x, y = partition.bounds.random_xy(self._rng)
            if partition.contains_xy(x, y):
                return Point(x, y, partition.floor)
        raise ReproError("failed to place an object center")

    def sample_instances(self, region: Circle) -> InstanceSet:
        """Gaussian sampling points, truncated to the region and to the
        building's partitions.

        sigma = diameter / 6 per the paper, so ~99.7% of raw draws land
        inside the circle; draws outside the circle or inside walls are
        rejected and redrawn.  If rejection starves (tiny rooms), the
        remaining instances collapse to the nearest accepted sample or
        the center — mass is always preserved.
        """
        n = self.n_instances
        if region.radius == 0.0:
            xy = np.tile([region.center.x, region.center.y], (n, 1))
            xy.flags.writeable = False  # ours alone: the set shares it
            return InstanceSet.uniform(xy, region.floor)
        sigma = region.diameter / 6.0
        candidates = self._grid.candidates_for_rect(
            region.bounds(), region.floor
        )
        inside_any = None
        accepted = np.empty((0, 2))
        for _attempt in range(12):
            need = n - accepted.shape[0]
            if need <= 0:
                break
            draw = self._rng.normal(
                loc=(region.center.x, region.center.y),
                scale=sigma,
                size=(max(need * 2, 16), 2),
            )
            in_circle = (
                (draw[:, 0] - region.center.x) ** 2
                + (draw[:, 1] - region.center.y) ** 2
            ) <= region.radius**2
            draw = draw[in_circle]
            if draw.shape[0] == 0:
                continue
            inside_any = np.zeros(draw.shape[0], dtype=bool)
            for partition in candidates:
                inside_any |= _contains_many(partition, draw)
                if inside_any.all():
                    break
            draw = draw[inside_any]
            accepted = np.vstack([accepted, draw[:need]])
        if accepted.shape[0] < n:
            filler = (
                accepted[-1]
                if accepted.shape[0]
                else np.array([region.center.x, region.center.y])
            )
            pad = np.tile(filler, (n - accepted.shape[0], 1))
            accepted = np.vstack([accepted, pad])
        accepted.flags.writeable = False  # ours alone: the set shares it
        return InstanceSet.uniform(accepted, region.floor)


@dataclass
class MovementStream:
    """Random-walk position updates over a population (streaming
    workload).

    Each emitted :class:`~repro.objects.population.ObjectMove`
    re-observes one object: with probability ``hop_probability`` the
    object crosses a door into an adjacent partition (staircase shafts
    are walked *through*, so objects change floors), otherwise it drifts
    to a fresh spot inside its current partition.  The instance pdf is
    re-sampled from ``generator``'s Gaussian model around the new
    center, so every move is a full positioning update — the paper's
    delete+insert object workload (Section III-C.2), expressed as a
    stream for :meth:`repro.index.composite.CompositeIndex.update_objects`
    and the continuous query monitor.

    The stream only *creates* moves; callers apply them (via the index)
    so that generation and absorption can be timed separately.
    """

    space: IndoorSpace
    population: ObjectPopulation
    generator: ObjectGenerator
    hop_probability: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.hop_probability <= 1.0:
            raise ReproError("hop_probability must lie in [0, 1]")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------

    def next_moves(self, n: int) -> list[ObjectMove]:
        """One batch: updates for ``n`` distinct randomly chosen objects."""
        ids = self.population.ids()
        if not ids:
            raise ReproError("cannot stream moves over an empty population")
        picks = self._rng.choice(
            len(ids), size=min(n, len(ids)), replace=False
        )
        return [self.move_for(ids[int(i)]) for i in picks]

    def batches(
        self, n_batches: int, batch_size: int
    ) -> Iterator[list[ObjectMove]]:
        """Lazily yield ``n_batches`` batches of ``batch_size`` moves.

        Each batch reflects the population state after the caller applied
        the previous one, so the walk genuinely progresses."""
        for _ in range(n_batches):
            yield self.next_moves(batch_size)

    # ------------------------------------------------------------------

    def move_for(self, object_id: str) -> ObjectMove:
        """A single random-walk step for one object."""
        obj = self.population.get(object_id)
        center = obj.region.center
        current = self.space.locate(center)
        target = current
        if current is not None and self._rng.random() < self.hop_probability:
            target = self._hop_target(current)
        new_center = (
            self._point_inside(target) if target is not None else None
        )
        if new_center is None:
            new_center = center  # stay put, but re-observe the pdf
        region = Circle(new_center, obj.region.radius)
        return ObjectMove(
            object_id, region, self.generator.sample_instances(region)
        )

    def _hop_target(self, current: Partition) -> Partition:
        """A door-adjacent partition; staircases are traversed, not
        occupied (objects never dwell inside a shaft)."""
        pid = current.partition_id
        nbrs = self.space.adjacent_partitions(pid)
        if not nbrs:
            return current
        choice = self.space.partition(
            nbrs[int(self._rng.integers(len(nbrs)))]
        )
        if not choice.is_staircase:
            return choice
        exits = [
            x
            for x in self.space.adjacent_partitions(choice.partition_id)
            if x != pid and not self.space.partition(x).is_staircase
        ]
        if not exits:
            return current
        return self.space.partition(
            exits[int(self._rng.integers(len(exits)))]
        )

    def _point_inside(self, partition: Partition) -> Point | None:
        for _ in range(64):
            x, y = partition.bounds.random_xy(self._rng)
            if partition.contains_xy(x, y):
                return Point(x, y, partition.floor)
        return None


@dataclass
class DirectedMovementStream(MovementStream):
    """Correlated movement toward target partitions (egress surge).

    The evacuation/stadium-egress workload: each chosen object, with
    probability ``compliance``, takes one door-hop along a shortest
    door-count path toward the nearest partition in ``targets`` (exits,
    gathering points); otherwise it falls back to the base random walk.
    Objects already inside a target dwell there, re-observing their pdf
    — so the population drains toward the targets and *stays* drained,
    the mass-correlated pattern a uniform random walk never produces.

    Routing hops are a multi-source BFS over the door-adjacency graph,
    recomputed whenever the space's ``topology_version`` moves — a
    door closure mid-scenario (``CloseDoor``) genuinely reroutes the
    crowd, exactly the churn the evacuation scenario injects.  One-way
    doors are honoured (the BFS expands against door direction, so a
    hop is only suggested where the object could actually traverse).
    An object standing where every target is unreachable falls back to
    the random walk.
    """

    #: Partition ids the crowd converges on.  Must be non-empty.
    targets: tuple[str, ...] = ()
    #: Probability a move follows the route; the rest stays brownian.
    compliance: float = 0.9

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.targets:
            raise ReproError("directed movement needs at least one target")
        for pid in self.targets:
            self.space.partition(pid)  # raises on unknown ids
        if not 0.0 <= self.compliance <= 1.0:
            raise ReproError("compliance must lie in [0, 1]")
        self._hops: dict[str, int] = {}
        self._hops_version = -1

    # ------------------------------------------------------------------

    def _ensure_routes(self) -> None:
        if self._hops_version != self.space.topology_version:
            self._hops = self._bfs_from_targets()
            self._hops_version = self.space.topology_version

    def _bfs_from_targets(self) -> dict[str, int]:
        """Door-count distance to the nearest target, per partition.

        Expands from the targets *backwards*: an edge ``other -> pid``
        exists when ``other`` may exit through a shared open door into
        ``pid``, so the stored hop counts always describe traversable
        forward routes."""
        from collections import deque

        dist = {pid: 0 for pid in self.targets}
        queue = deque(self.targets)
        while queue:
            pid = queue.popleft()
            for door in self.space.doors_of(pid):
                other = door.other_side(pid)
                if other not in dist and door.allows_exit(other):
                    dist[other] = dist[pid] + 1
                    queue.append(other)
        return dist

    def _step_toward(self, current: Partition) -> Partition | None:
        """The door-adjacent partition one routed hop closer to a
        target, staircases traversed like the base walk; ``None`` when
        no open route exists."""
        here = self._hops.get(current.partition_id)
        if here is None:
            return None
        best, best_d = None, here
        for nbr in self.space.adjacent_partitions(current.partition_id):
            d = self._hops.get(nbr)
            if d is not None and d < best_d:
                best, best_d = nbr, d
        if best is None:
            return None
        choice = self.space.partition(best)
        if not choice.is_staircase:
            return choice
        exits = [
            x
            for x in self.space.adjacent_partitions(choice.partition_id)
            if x != current.partition_id
            and not self.space.partition(x).is_staircase
            and self._hops.get(x) is not None
        ]
        if not exits:
            return None
        return self.space.partition(
            min(exits, key=lambda x: (self._hops[x], x))
        )

    def move_for(self, object_id: str) -> ObjectMove:
        obj = self.population.get(object_id)
        center = obj.region.center
        current = self.space.locate(center)
        if current is None or self._rng.random() >= self.compliance:
            return super().move_for(object_id)
        self._ensure_routes()
        if current.partition_id in self.targets:
            target: Partition | None = current  # dwell at the exit
        else:
            target = self._step_toward(current)
        if target is None:
            return super().move_for(object_id)
        new_center = self._point_inside(target)
        if new_center is None:
            new_center = center
        region = Circle(new_center, obj.region.radius)
        return ObjectMove(
            object_id, region, self.generator.sample_instances(region)
        )
