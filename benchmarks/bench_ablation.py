"""Ablation benchmarks for design choices DESIGN.md calls out.

A1 — bisector fast-path vs direct argmin for path-case classification;
A2 — decomposition threshold T_shape: index-unit count and query time;
A3 — bounds tightness: probabilistic vs plain topological pruning;
A4 — query-session Dijkstra reuse for repeated query points (the
     paper's future-work item on computation reuse).
"""

import numpy as np

from repro.bench.runner import ExperimentResult, run_queries
from repro.distances.bounds import probabilistic_bounds
from repro.index import CompositeIndex, IndRTree
from repro.reference import (
    classify_subregion_paths,
    subregion_stats,
    subregions,
    topological_bounds,
    weighted_topological_bounds,
)

def test_bisector_fastpath(factory, save_table, benchmark):
    """A1: both classification routes agree; benchmark the bisector one."""
    index = factory.index()
    space = factory.space()
    q = factory.query_points()[0]
    dd = index.doors_graph.dijkstra_from_point(q)
    pop = factory.population()
    split = []
    for obj in list(pop)[:40]:
        split.extend(subregions(obj, space, pop.grid))
    agree = 0
    for s in split:
        exact = classify_subregion_paths(q, s, dd, space)
        fast = classify_subregion_paths(q, s, dd, space, use_bisectors=True)
        # The bisector route is conservative: fast=True implies
        # exact=True (never claims single-path wrongly).
        assert not fast or exact
        agree += fast == exact
    result = ExperimentResult(
        "Ablation A1: path classification agreement", "subregions", unit="#"
    )
    result.x_values = [len(split)]
    result.add("agreements", agree)
    result.add("total", len(split))
    save_table("ablation_a1", result)
    # The fast path should settle the bulk of the subregions.
    assert agree >= 0.5 * len(split)
    benchmark(
        lambda: [
            classify_subregion_paths(q, s, dd, space, use_bisectors=True)
            for s in split[:10]
        ]
    )


def test_tshape_sweep(factory, save_table, benchmark):
    """A2: T_shape controls the unit count / query time trade-off."""
    space = factory.space()
    population = factory.population()
    queries = factory.query_points()
    p = factory.profile
    result = ExperimentResult(
        "Ablation A2: T_shape sweep", "T_shape", unit="mixed"
    )
    sweep = (0.0, 0.3, 0.5, 0.8)
    result.x_values = list(sweep)
    unit_counts = []
    for t_shape in sweep:
        index = CompositeIndex.build(
            space, population, fanout=p.fanout, t_shape=t_shape
        )
        m = run_queries(index, queries, "irq", p.default_range)
        unit_counts.append(len(index.indr.units))
        result.add("index_units", len(index.indr.units))
        result.add("iRQ_ms", m.mean_ms)
    save_table("ablation_a2", result)
    # Stricter regularity means at least as many units.
    assert unit_counts == sorted(unit_counts)
    benchmark(
        lambda: IndRTree.from_space(space, fanout=p.fanout, t_shape=0.5)
    )


def test_prob_bounds_tightness(factory, save_table, benchmark):
    """A3: interval widths — probabilistic <= topological, weighted
    tightest — over real multi-partition objects."""
    index = factory.index()
    space = factory.space()
    pop = factory.population()
    q = factory.query_points()[0]
    dd = index.doors_graph.dijkstra_from_point(q)
    widths = {"topological": [], "probabilistic": [], "weighted": []}
    multi = 0
    for obj in pop:
        subs = subregions(obj, space, pop.grid)
        if len(subs) < 2:
            continue
        multi += 1
        stats = [subregion_stats(q, s, dd, space) for s in subs]
        if any(not np.isfinite(s.tmax) for s in stats):
            continue
        widths["topological"].append(
            topological_bounds(stats).upper - topological_bounds(stats).lower
        )
        prob = probabilistic_bounds(stats)
        widths["probabilistic"].append(prob.upper - prob.lower)
        w = weighted_topological_bounds(stats)
        widths["weighted"].append(w.upper - w.lower)
        if multi >= 60:
            break
    result = ExperimentResult(
        "Ablation A3: bound interval width", "bound", unit="m"
    )
    result.x_values = ["mean width"]
    for name, values in widths.items():
        result.add(name, sum(values) / max(1, len(values)))
    save_table("ablation_a3", result)
    mean = {k: sum(v) / max(1, len(v)) for k, v in widths.items()}
    assert mean["probabilistic"] <= mean["topological"] + 1e-9
    assert mean["weighted"] <= mean["probabilistic"] + 1e-9
    sample = list(pop)[0]
    benchmark(
        lambda: [
            subregion_stats(q, s, dd, space)
            for s in subregions(sample, space, pop.grid)
        ]
    )


def test_session_reuse(factory, save_table, benchmark):
    """A4: repeated queries from one point — the session amortises the
    single-source search; results stay identical."""
    import time as _time

    from repro.queries import QuerySession, iRQ as _irq

    index = factory.index()
    p = factory.profile
    q = factory.query_points()[0]
    repeats = 6
    radii = [p.default_range * (0.5 + 0.1 * i) for i in range(repeats)]

    t0 = _time.perf_counter()
    plain = [_irq(q, r, index).ids() for r in radii]
    t_plain = 1000.0 * (_time.perf_counter() - t0)

    session = QuerySession(index)
    t0 = _time.perf_counter()
    reused = [session.irq(q, r).ids() for r in radii]
    t_session = 1000.0 * (_time.perf_counter() - t0)

    assert plain == reused
    assert session.hits == repeats - 1

    result = ExperimentResult(
        "Ablation A4: session reuse over repeated queries",
        "#queries",
    )
    result.x_values = [repeats]
    result.add("independent", t_plain)
    result.add("session", t_session)
    save_table("ablation_a4", result)

    benchmark(lambda: session.irq(q, p.default_range))
