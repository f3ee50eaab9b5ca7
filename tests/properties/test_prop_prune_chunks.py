"""One-shot prune across candidate chunk boundaries: with
``engine.PRUNE_CHUNK`` cut to 7, so that candidates and ikNNQ's seeds
span several gathers and kernel calls, iRQ, ikNNQ, iPRQ and
``estimate_irq_result_size`` return what they return with one chunk —
the same results, in the same order, with the same distances, and the
same ``QueryStats`` counters."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import QueryStats, engine, iPRQ, iRQ, ikNNQ
from repro.queries.selectivity import estimate_irq_result_size
from repro.space.mall import build_mall

SMALL_CHUNK = 7


@functools.lru_cache(maxsize=None)
def _mall(seed, radius):
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=3, floor_size=80.0,
        hallway_width=4.0, stair_size=8.0, seed=seed,
    )
    pop = ObjectGenerator(
        space, radius=radius, n_instances=6, seed=seed
    ).generate(90)
    return space, CompositeIndex.build(space, pop)


def _counters(stats):
    """Every ``QueryStats`` field but the timings."""
    return {
        name: value
        for name, value in dataclasses.asdict(stats).items()
        if not name.startswith("t_")
    }


def _answers(index, q, r, k, theta):
    out = []
    for run in (
        lambda s: iRQ(q, r, index, stats=s),
        lambda s: ikNNQ(q, k, index, stats=s),
        lambda s: iPRQ(q, r, theta, index, stats=s),
    ):
        stats = QueryStats()
        result = run(stats)
        out.append(
            (
                [o.object_id for o in result.objects],
                result.distances,
                _counters(stats),
            )
        )
    out.append(estimate_irq_result_size(index, q, r))
    return out


@given(
    seed=st.integers(0, 3),
    radius=st.sampled_from([2.0, 5.0]),
    point=st.integers(0, 200),
    r=st.floats(5.0, 80.0),
    k=st.integers(1, 40),
    theta=st.sampled_from([0.2, 0.5, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_small_chunks_answer_as_one(seed, radius, point, r, k, theta):
    space, index = _mall(seed, radius)
    q = space.random_point(seed=point)
    whole = _answers(index, q, r, k, theta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "PRUNE_CHUNK", SMALL_CHUNK)
        chunked = _answers(index, q, r, k, theta)
    assert chunked == whole


def test_a_query_crosses_a_chunk_boundary():
    """The drawn malls give candidate sets longer than one small
    chunk (the property above would otherwise test one chunk twice)."""
    space, index = _mall(0, 5.0)
    q = space.random_point(seed=0)
    stats = QueryStats()
    iRQ(q, 40.0, index, stats=stats)
    assert stats.candidates_after_filtering > 2 * SMALL_CHUNK
