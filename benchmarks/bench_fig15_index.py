"""Figure 15 — the composite index: skeleton effectiveness,
construction cost, dynamic-operation cost, and the pre-computation
baseline's maintenance bill."""

from repro.bench import figures
from repro.reference import PrecomputedDistanceIndex
from repro.index import CompositeIndex


def _mean(series):
    return sum(series) / len(series)


def test_fig15a(factory, save_table, benchmark):
    result = figures.fig15a(factory)
    save_table("fig15a", result)
    with_sk = result.series["withSkeleton"]
    without_sk = result.series["withoutSkeleton"]
    # The skeleton tier retrieves no more (typically far fewer)
    # partitions than the Euclidean bound.
    assert all(w <= wo + 1e-9 for w, wo in zip(with_sk, without_sk))
    index = factory.index()
    q = factory.query_points()[0]
    benchmark(
        lambda: index.range_search(q, factory.profile.default_range)
    )


def test_fig15b(factory, save_table, benchmark):
    result = figures.fig15b(factory)
    save_table("fig15b", result)
    # Skeleton construction is orders cheaper than the tree tier
    # (paper: one millisecond vs seconds).
    assert _mean(result.series["skeleton_tier"]) <= _mean(
        result.series["tree_tier"]
    )
    space = factory.space()
    population = factory.population()
    benchmark(lambda: CompositeIndex.build(space, population))


def test_fig15c(factory, save_table, benchmark):
    result = figures.fig15c(factory)
    save_table("fig15c", result)
    # Object updates are cheaper than partition updates (paper V-B.4).
    assert _mean(result.series["insertObj"]) <= 10 * _mean(
        result.series["insertPartition"]
    ) + 1.0
    index = factory.index()
    gen_space = factory.space()
    from repro.objects import ObjectGenerator
    gen = ObjectGenerator(
        gen_space, radius=factory.profile.default_radius,
        n_instances=factory.profile.n_instances, seed=4242,
        id_prefix="ops_",
    )

    def insert_delete():
        obj = gen.generate_one()
        index.insert_object(obj)
        index.delete_object(obj.object_id)

    benchmark(insert_delete)


def test_fig15d(factory, save_table, benchmark):
    result = figures.fig15d(factory)
    save_table("fig15d", result)
    # Pre-computation grows with the building and dwarfs the per-op
    # composite-index costs of Fig 15(c).
    series = result.series["pre-computation"]
    assert series[-1] >= series[0]
    small_space = factory.space(factory.profile.floors_grid[0])
    benchmark(lambda: PrecomputedDistanceIndex(small_space).build_seconds)
