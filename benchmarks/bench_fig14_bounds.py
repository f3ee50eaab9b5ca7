"""Figure 14 — effectiveness of the indoor distance bounds.

Shape expectations: filtering discards the bulk of the objects,
pruning pushes the ratio higher still (paper: >97.3% and >99.4% at
building scale; thresholds here are scaled to the profile's smaller
buildings), and disabling the pruning phase slows both query types —
most dramatically ikNNQ (paper: >= 4x).
"""

from repro.bench import figures
from repro.queries import iRQ, ikNNQ


def _mean(series):
    return sum(series) / len(series)


def test_fig14a(factory, save_table, benchmark):
    result = figures.fig14a(factory)
    save_table("fig14a", result)
    filtering = result.series["filtering"]
    pruning = result.series["pruning"]
    # Pruning ratio dominates filtering ratio everywhere.
    assert all(p >= f - 1e-9 for f, p in zip(filtering, pruning))
    # Most objects never reach refinement.
    assert _mean(pruning) > 50.0
    index = factory.index()
    q = factory.query_points()[0]
    benchmark(lambda: iRQ(q, factory.profile.default_range, index))


def test_fig14b(factory, save_table, benchmark):
    result = figures.fig14b(factory)
    save_table("fig14b", result)
    with_p = result.series["withPruning"]
    without_p = result.series["withoutPruning"]
    # At paper scale (100 instances/object) the pruning phase clearly
    # pays for itself; at the scaled-down profiles refinement is cheap
    # enough that interval computation roughly breaks even, so only a
    # loose sanity band is asserted here.  See benchmarks/README.md.
    assert _mean(without_p) >= 0.5 * _mean(with_p)
    index = factory.index()
    q = factory.query_points()[0]
    benchmark(
        lambda: iRQ(q, factory.profile.default_range, index, with_pruning=False)
    )


def test_fig14c(factory, save_table, benchmark):
    result = figures.fig14c(factory)
    save_table("fig14c", result)
    filtering = result.series["filtering"]
    pruning = result.series["pruning"]
    assert all(p >= f - 1e-9 for f, p in zip(filtering, pruning))
    index = factory.index()
    q = factory.query_points()[0]
    benchmark(lambda: ikNNQ(q, factory.profile.default_k, index))


def test_fig14d(factory, save_table, benchmark):
    result = figures.fig14d(factory)
    save_table("fig14d", result)
    with_p = result.series["withPruning"]
    without_p = result.series["withoutPruning"]
    # The pruning phase matters more for ikNNQ (paper: >= 4x; we only
    # assert the direction at reduced scale).
    assert _mean(without_p) >= _mean(with_p)
    index = factory.index()
    q = factory.query_points()[0]
    benchmark(
        lambda: ikNNQ(q, factory.profile.default_k, index, with_pruning=False)
    )
