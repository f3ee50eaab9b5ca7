"""The paper's evaluation: one function per panel of Figures 12-15,
plus three design ablations, and the ``figure`` cell runner.

Each function drives the workload factory through the profile's
parameter grid and returns an :class:`ExperimentResult` whose table is
the panel's data (same x axis, same series as the paper's plot).  A
grid cell is one panel (``param("panel", ...)`` in
``benchmarks/grids/fig12.xp`` ... ``fig15.xp`` and ``ablation.xp``),
run on a world of its own at the cell's scale and seed.
"""

from __future__ import annotations

import math
import time

from repro.bench.grid import CellContext, register_cell_runner
from repro.bench.runner import ExperimentResult, run_queries
from repro.bench.workloads import WorkloadFactory
from repro.errors import ReproError
from repro.index.composite import CompositeIndex
from repro.objects.generator import ObjectGenerator
from repro.space.mall import mall_statistics

# ---------------------------------------------------------------------------
# Figure 12 — iRQ execution time
# ---------------------------------------------------------------------------


def fig12a(factory: WorkloadFactory) -> ExperimentResult:
    """iRQ time vs |O|, one series per query range r."""
    p = factory.profile
    out = ExperimentResult("Fig 12(a): iRQ Tq vs #objects", "|O|")
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        for r in p.ranges_grid:
            m = run_queries(index, queries, "irq", r)
            out.add(f"r={r:g}", m.mean_ms)
    return out


def fig12b(factory: WorkloadFactory) -> ExperimentResult:
    """iRQ phase breakdown vs |O| at the default range."""
    p = factory.profile
    out = ExperimentResult("Fig 12(b): iRQ phase breakdown", "|O|")
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        m = run_queries(index, queries, "irq", p.default_range)
        for phase, ms in m.mean_phase_ms.items():
            out.add(phase, ms)
    return out


def fig12c(factory: WorkloadFactory) -> ExperimentResult:
    """iRQ time vs uncertainty-region size (diameters, like the paper's
    x axis), one series per query range."""
    p = factory.profile
    out = ExperimentResult(
        "Fig 12(c): iRQ Tq vs uncertainty diameter", "diameter"
    )
    out.x_values = [2.0 * radius for radius in p.radii_grid]
    queries = factory.query_points()
    for radius in p.radii_grid:
        index = factory.index(radius=radius)
        for r in p.ranges_grid:
            m = run_queries(index, queries, "irq", r)
            out.add(f"r={r:g}", m.mean_ms)
    return out


def fig12d(factory: WorkloadFactory) -> ExperimentResult:
    """iRQ time vs #partitions (more floors, fixed |O|)."""
    p = factory.profile
    out = ExperimentResult("Fig 12(d): iRQ Tq vs #partitions", "#partitions")
    for floors in p.floors_grid:
        space = factory.space(floors)
        out.x_values.append(mall_statistics(space)["partitions"])
        index = factory.index(floors=floors)
        queries = factory.query_points(floors=floors)
        for r in p.ranges_grid:
            m = run_queries(index, queries, "irq", r)
            out.add(f"r={r:g}", m.mean_ms)
    return out


# ---------------------------------------------------------------------------
# Figure 13 — ikNNQ execution time
# ---------------------------------------------------------------------------


def fig13a(factory: WorkloadFactory) -> ExperimentResult:
    p = factory.profile
    out = ExperimentResult("Fig 13(a): ikNNQ Tq vs #objects", "|O|")
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        for k in p.k_grid:
            m = run_queries(index, queries, "iknn", k)
            out.add(f"k={k}", m.mean_ms)
    return out


def fig13b(factory: WorkloadFactory) -> ExperimentResult:
    p = factory.profile
    out = ExperimentResult("Fig 13(b): ikNNQ phase breakdown", "|O|")
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        m = run_queries(index, queries, "iknn", p.default_k)
        for phase, ms in m.mean_phase_ms.items():
            out.add(phase, ms)
    return out


def fig13c(factory: WorkloadFactory) -> ExperimentResult:
    p = factory.profile
    out = ExperimentResult(
        "Fig 13(c): ikNNQ Tq vs uncertainty diameter", "diameter"
    )
    out.x_values = [2.0 * radius for radius in p.radii_grid]
    queries = factory.query_points()
    for radius in p.radii_grid:
        index = factory.index(radius=radius)
        for k in p.k_grid:
            m = run_queries(index, queries, "iknn", k)
            out.add(f"k={k}", m.mean_ms)
    return out


def fig13d(factory: WorkloadFactory) -> ExperimentResult:
    p = factory.profile
    out = ExperimentResult("Fig 13(d): ikNNQ Tq vs #partitions", "#partitions")
    for floors in p.floors_grid:
        space = factory.space(floors)
        out.x_values.append(mall_statistics(space)["partitions"])
        index = factory.index(floors=floors)
        queries = factory.query_points(floors=floors)
        for k in p.k_grid:
            m = run_queries(index, queries, "iknn", k)
            out.add(f"k={k}", m.mean_ms)
    return out


# ---------------------------------------------------------------------------
# Figure 14 — effectiveness of the distance bounds
# ---------------------------------------------------------------------------


def fig14a(factory: WorkloadFactory) -> ExperimentResult:
    """iRQ filtering/pruning ratios vs |O| (paper: >97.3% / >99.4%)."""
    p = factory.profile
    out = ExperimentResult(
        "Fig 14(a): iRQ filtering & pruning ratio", "|O|", unit="%"
    )
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        m = run_queries(index, queries, "irq", p.default_range)
        out.add("filtering", 100.0 * m.stats.filtering_ratio)
        out.add("pruning", 100.0 * m.stats.pruning_ratio)
    return out


def fig14b(factory: WorkloadFactory) -> ExperimentResult:
    """iRQ with vs without the pruning phase."""
    p = factory.profile
    out = ExperimentResult("Fig 14(b): iRQ pruning phase effect", "|O|")
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        with_p = run_queries(index, queries, "irq", p.default_range)
        without_p = run_queries(
            index, queries, "irq", p.default_range, with_pruning=False
        )
        out.add("withPruning", with_p.mean_ms)
        out.add("withoutPruning", without_p.mean_ms)
    return out


def fig14c(factory: WorkloadFactory) -> ExperimentResult:
    p = factory.profile
    out = ExperimentResult(
        "Fig 14(c): ikNNQ filtering & pruning ratio", "|O|", unit="%"
    )
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        m = run_queries(index, queries, "iknn", p.default_k)
        out.add("filtering", 100.0 * m.stats.filtering_ratio)
        out.add("pruning", 100.0 * m.stats.pruning_ratio)
    return out


def fig14d(factory: WorkloadFactory) -> ExperimentResult:
    p = factory.profile
    out = ExperimentResult("Fig 14(d): ikNNQ pruning phase effect", "|O|")
    out.x_values = list(p.objects_grid)
    queries = factory.query_points()
    for n in p.objects_grid:
        index = factory.index(n_objects=n)
        with_p = run_queries(index, queries, "iknn", p.default_k)
        without_p = run_queries(
            index, queries, "iknn", p.default_k, with_pruning=False
        )
        out.add("withPruning", with_p.mean_ms)
        out.add("withoutPruning", without_p.mean_ms)
    return out


# ---------------------------------------------------------------------------
# Figure 15 — composite index
# ---------------------------------------------------------------------------


def fig15a(factory: WorkloadFactory) -> ExperimentResult:
    """Partitions retrieved by RangeSearch with vs without the skeleton
    tier, per query range."""
    p = factory.profile
    out = ExperimentResult(
        "Fig 15(a): partitions retrieved vs query range",
        "range",
        unit="#",
    )
    out.x_values = list(p.ranges_grid)
    index = factory.index()
    queries = factory.query_points()
    for r in p.ranges_grid:
        with_sk = run_queries(index, queries, "irq", r, use_skeleton=True)
        without_sk = run_queries(index, queries, "irq", r, use_skeleton=False)
        n = max(1, len(queries))
        out.add("withSkeleton", with_sk.stats.partitions_retrieved / n)
        out.add("withoutSkeleton", without_sk.stats.partitions_retrieved / n)
    return out


def fig15b(factory: WorkloadFactory) -> ExperimentResult:
    """Composite-index construction time per layer vs #partitions.

    ``tree_tier`` is the unit decomposition (Algorithm 3), all the
    system builds of the tree tier; ``rstar_bulk_load`` packs the
    paper's R*-tree over those units with the reference builder."""
    from repro.reference.tree import IndRTree

    p = factory.profile
    out = ExperimentResult(
        "Fig 15(b): index construction time", "#partitions"
    )
    for floors in p.floors_grid:
        space = factory.space(floors)
        out.x_values.append(mall_statistics(space)["partitions"])
        population = factory.population(floors=floors)
        index = CompositeIndex.build(space, population, fanout=p.fanout)
        for layer in (
            "tree_tier", "object_layer", "topological_layer", "skeleton_tier"
        ):
            out.add(layer, 1000.0 * index.build_times[layer])
        t0 = time.perf_counter()
        IndRTree(index.units.values(), space.floor_height, fanout=p.fanout)
        out.add("rstar_bulk_load", 1000.0 * (time.perf_counter() - t0))
    return out


def fig15c(factory: WorkloadFactory, op_counts=(10, 50, 100)) -> ExperimentResult:
    """Mean cost of dynamic operations (ms per op) vs #operations."""
    p = factory.profile
    out = ExperimentResult(
        "Fig 15(c): dynamic operation cost", "#operations"
    )
    out.x_values = list(op_counts)
    space = factory.space()
    population = factory.population()
    index = CompositeIndex.build(space, population, fanout=p.fanout)
    gen = ObjectGenerator(
        space, radius=p.default_radius, n_instances=p.n_instances,
        seed=p.seed + 999, id_prefix="f15c_",
    )
    rooms = [
        pid for pid in space.partitions
        if space.partitions[pid].kind.value == "room"
    ]
    for count in op_counts:
        victims = rooms[:count]
        snapshots = []
        t0 = time.perf_counter()
        for pid in victims:
            partition = space.partitions[pid]
            doors = [space.doors[d] for d in list(partition.door_ids)]
            space.remove_partition(pid)
            index.delete_partition(pid)
            snapshots.append((partition, doors))
        t_del = (time.perf_counter() - t0) / count
        t0 = time.perf_counter()
        for partition, doors in snapshots:
            from repro.space.partition import Partition
            restored = Partition(
                partition.partition_id, partition.footprint,
                partition.floor, partition.kind,
                upper_floor=partition.upper_floor,
            )
            space.add_partition(restored)
            for door in doors:
                space.add_door(door)
            index.insert_partition(restored)
        t_ins = (time.perf_counter() - t0) / count
        objs = [gen.generate_one() for _ in range(count)]
        t0 = time.perf_counter()
        for obj in objs:
            index.insert_object(obj)
        t_insobj = (time.perf_counter() - t0) / count
        t0 = time.perf_counter()
        for obj in objs:
            index.delete_object(obj.object_id)
        t_delobj = (time.perf_counter() - t0) / count
        out.add("insertPartition", 1000.0 * t_ins)
        out.add("deletePartition", 1000.0 * t_del)
        out.add("insertObj", 1000.0 * t_insobj)
        out.add("deleteObj", 1000.0 * t_delobj)
    return out


def fig15d(factory: WorkloadFactory) -> ExperimentResult:
    """Door-to-door pre-computation time vs #partitions — what one
    topology change costs the prior-work baseline."""
    from repro.reference.precompute import PrecomputedDistanceIndex

    p = factory.profile
    out = ExperimentResult(
        "Fig 15(d): distance pre-computation time",
        "#partitions",
        unit="s",
    )
    for floors in p.floors_grid:
        space = factory.space(floors)
        out.x_values.append(mall_statistics(space)["partitions"])
        pre = PrecomputedDistanceIndex(space)
        out.add("pre-computation", pre.build_seconds)
    return out


# ---------------------------------------------------------------------------
# Ablations of design choices the paper leaves open
# ---------------------------------------------------------------------------


def ablation_a1(factory: WorkloadFactory) -> ExperimentResult:
    """Path-case classification of the first 40 objects' subregions:
    the bisector fast path against the direct argmin.  The fast path
    is conservative — a ``contradiction`` (single path claimed, argmin
    disagrees) must never happen."""
    from repro.reference import classify_subregion_paths, subregions

    space, pop = factory.space(), factory.population()
    q = factory.query_points()[0]
    dd = factory.index().doors_graph.dijkstra_from_point(q)
    split = [
        s for obj in list(pop)[:40] for s in subregions(obj, space, pop.grid)
    ]
    exact = [classify_subregion_paths(q, s, dd, space) for s in split]
    fast = [
        classify_subregion_paths(q, s, dd, space, use_bisectors=True)
        for s in split
    ]
    out = ExperimentResult(
        "Ablation A1: path classification agreement", "subregions", unit="#"
    )
    out.x_values = [len(split)]
    out.add("agreements", sum(f == e for f, e in zip(fast, exact)))
    out.add("total", len(split))
    out.add("contradictions", sum(f and not e for f, e in zip(fast, exact)))
    return out


def ablation_a2(factory: WorkloadFactory) -> ExperimentResult:
    """The decomposition threshold T_shape: index-unit count and iRQ
    time on the default world."""
    p = factory.profile
    space, population = factory.space(), factory.population()
    queries = factory.query_points()
    out = ExperimentResult(
        "Ablation A2: T_shape sweep", "T_shape", unit="mixed"
    )
    out.x_values = [0.0, 0.3, 0.5, 0.8]
    for t_shape in out.x_values:
        index = CompositeIndex.build(
            space, population, fanout=p.fanout, t_shape=t_shape
        )
        m = run_queries(index, queries, "irq", p.default_range)
        out.add("index_units", len(index.units))
        out.add("iRQ_ms", m.mean_ms)
    return out


def ablation_a3(factory: WorkloadFactory) -> ExperimentResult:
    """Mean bound-interval width over the first 60 multi-partition
    objects: plain topological (Lemmas 1-2), probabilistic (Lemma 5)
    and mass-weighted bounds."""
    from repro.distances.bounds import probabilistic_bounds
    from repro.reference import (
        subregion_stats,
        subregions,
        topological_bounds,
        weighted_topological_bounds,
    )

    bounds = {
        "topological": topological_bounds,
        "probabilistic": probabilistic_bounds,
        "weighted": weighted_topological_bounds,
    }
    space, pop = factory.space(), factory.population()
    q = factory.query_points()[0]
    dd = factory.index().doors_graph.dijkstra_from_point(q)
    widths: dict[str, list[float]] = {name: [] for name in bounds}
    multi = 0
    for obj in pop:
        subs = subregions(obj, space, pop.grid)
        if len(subs) < 2:
            continue
        multi += 1
        stats = [subregion_stats(q, s, dd, space) for s in subs]
        if all(math.isfinite(s.tmax) for s in stats):
            for name, fn in bounds.items():
                iv = fn(stats)
                widths[name].append(iv.upper - iv.lower)
        if multi >= 60:
            break
    out = ExperimentResult(
        "Ablation A3: bound interval width", "bound", unit="m"
    )
    out.x_values = ["mean width"]
    for name, values in widths.items():
        out.add(name, sum(values) / max(1, len(values)))
    return out


PANELS = {
    "fig12a": fig12a, "fig12b": fig12b, "fig12c": fig12c, "fig12d": fig12d,
    "fig13a": fig13a, "fig13b": fig13b, "fig13c": fig13c, "fig13d": fig13d,
    "fig14a": fig14a, "fig14b": fig14b, "fig14c": fig14c, "fig14d": fig14d,
    "fig15a": fig15a, "fig15b": fig15b, "fig15c": fig15c, "fig15d": fig15d,
    "ablation_a1": ablation_a1, "ablation_a2": ablation_a2,
    "ablation_a3": ablation_a3,
}


@register_cell_runner("figure")
def run_figure_cell(params: dict, ctx: CellContext) -> dict:
    """One panel per cell, on a fresh factory: a panel that mutates its
    world (``fig15c`` deletes and restores partitions) leaves no trace
    in another's."""
    try:
        panel = PANELS[params["panel"]]
    except KeyError:
        raise ReproError(
            f"unknown panel {params.get('panel')!r}; "
            f"choose from {sorted(PANELS)}"
        ) from None
    return panel(WorkloadFactory(ctx.profile, seed=ctx.seed)).to_json()
