"""repro — reproduction of *Efficient Distance-Aware Query Evaluation on
Indoor Moving Objects* (Xie, Lu, Pedersen; ICDE 2013).

The package implements the paper's full stack:

* :mod:`repro.geometry` — planar/3-D primitives and partition
  decomposition (Algorithm 3);
* :mod:`repro.space` — the indoor-space model (partitions, doors,
  staircases), the doors graph, a synthetic mall generator and topology
  events;
* :mod:`repro.objects` — uncertain indoor moving objects with discrete
  instance sets (Section II-B);
* :mod:`repro.index` — the composite index: index units (the tree
  tier's leaves), skeleton tier, topological layer and object layer
  (Section III);
* :mod:`repro.distances` — the bounds kernel (Lemmas 1-2, 5) and exact
  refinement (Eqs. 2-6) over whole query x object blocks;
* :mod:`repro.queries` — the iRQ and ikNNQ processors (Algorithms 1-2);
* :mod:`repro.reference` — what checks the system: the naive
  evaluator, the pre-computation alternative and the scalar form of
  every step above (Table II bisectors, Table III bounds, the indR-tree
  and Algorithm 4's walk over it);
* :mod:`repro.bench` — the experiment harness regenerating Figures 12-15.

Quickstart::

    from repro import build_mall, ObjectGenerator, CompositeIndex, iRQ

    space = build_mall(floors=2, seed=7)
    objects = ObjectGenerator(space, seed=7).generate(200)
    index = CompositeIndex.build(space, objects)
    q = space.random_point(seed=1)
    hits = iRQ(q, r=80.0, index=index)
"""

import importlib

__version__ = "1.0.0"

# Public name -> defining module.  Resolved lazily via __getattr__ so that
# importing `repro` stays cheap and avoids import cycles between the
# subpackages.
_EXPORTS = {
    "Point": "repro.geometry",
    "Rect": "repro.geometry",
    "Box3": "repro.geometry",
    "Circle": "repro.geometry",
    "Polygon": "repro.geometry",
    "Door": "repro.space",
    "DoorDirection": "repro.space",
    "IndoorSpace": "repro.space",
    "Partition": "repro.space",
    "PartitionKind": "repro.space",
    "SpaceBuilder": "repro.space",
    "build_mall": "repro.space.mall",
    "InstanceSet": "repro.objects",
    "UncertainObject": "repro.objects",
    "MovementStream": "repro.objects",
    "ObjectGenerator": "repro.objects",
    "ObjectMove": "repro.objects",
    "ObjectPopulation": "repro.objects",
    "CompositeIndex": "repro.index",
    "IndRTree": "repro.reference",
    "RStarTree": "repro.reference",
    "SkeletonTier": "repro.index",
    "DistanceInterval": "repro.distances",
    "euclidean": "repro.distances",
    "expected_indoor_distance": "repro.reference",
    "object_bounds": "repro.reference",
    "iRQ": "repro.queries",
    "ikNNQ": "repro.queries",
    "iPRQ": "repro.queries",
    "QuerySpec": "repro.api",
    "RangeSpec": "repro.api",
    "KNNSpec": "repro.api",
    "ProbRangeSpec": "repro.api",
    "CountSpec": "repro.api",
    "OccupancySpec": "repro.api",
    "QueryService": "repro.api",
    "ServiceConfig": "repro.api",
    "CheckpointStore": "repro.persist",
    "RecoveryReport": "repro.persist",
    "recover": "repro.persist",
    "NetServer": "repro.api",
    "NetClient": "repro.api",
    "AsyncNetClient": "repro.api",
    "ServerThread": "repro.api",
    "QueryStats": "repro.queries",
    "QuerySession": "repro.queries",
    "QueryMonitor": "repro.queries",
    "MonitorStats": "repro.queries",
    "StandingQuery": "repro.queries",
    "register_maintainer": "repro.queries",
    "ResultDelta": "repro.queries",
    "DeltaBatch": "repro.queries",
    "replay_deltas": "repro.queries",
    "MonitorServer": "repro.queries",
    "Subscription": "repro.queries",
    "NaiveEvaluator": "repro.reference",
    "PrecomputedDistanceIndex": "repro.reference",
    "render_floor": "repro.viz",
    "render_building": "repro.viz",
    "save_space": "repro.space.io",
    "load_space": "repro.space.io",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
    "Point",
    "Rect",
    "Box3",
    "Circle",
    "Polygon",
    "Door",
    "DoorDirection",
    "IndoorSpace",
    "Partition",
    "PartitionKind",
    "SpaceBuilder",
    "build_mall",
    "InstanceSet",
    "UncertainObject",
    "MovementStream",
    "ObjectGenerator",
    "ObjectMove",
    "ObjectPopulation",
    "CompositeIndex",
    "IndRTree",
    "RStarTree",
    "SkeletonTier",
    "DistanceInterval",
    "euclidean",
    "expected_indoor_distance",
    "object_bounds",
    "iRQ",
    "ikNNQ",
    "iPRQ",
    "QuerySpec",
    "RangeSpec",
    "KNNSpec",
    "ProbRangeSpec",
    "CountSpec",
    "OccupancySpec",
    "QueryService",
    "ServiceConfig",
    "CheckpointStore",
    "RecoveryReport",
    "recover",
    "NetServer",
    "NetClient",
    "AsyncNetClient",
    "ServerThread",
    "QueryStats",
    "QuerySession",
    "QueryMonitor",
    "MonitorStats",
    "StandingQuery",
    "register_maintainer",
    "ResultDelta",
    "DeltaBatch",
    "replay_deltas",
    "MonitorServer",
    "Subscription",
    "NaiveEvaluator",
    "PrecomputedDistanceIndex",
    "render_floor",
    "render_building",
    "save_space",
    "load_space",
    "__version__",
]
