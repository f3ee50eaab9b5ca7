"""The Eq. 8 body over float lists (``probabilistic_pair``) against the
printed formula: a verbatim copy of the ``SubregionStats`` body the
reference ran before the list body replaced it, float for float.

The property draws what an object's rows can read: ties in ``tmin``
(the stable sort decides which row leads), zero and tiny masses,
infinite extrema and the iPRQ floor ``r + 1.0`` standing in for an
unreached ``tmin``, inside a longer row list (the span ``a : b``)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distances import SubregionStats, probabilistic_bounds
from repro.distances.bounds import probabilistic_pair


def printed_probabilistic_bounds(stats):
    """Lemma 5 as the scalar path computed it, returning ``(lower,
    upper)``; kept verbatim apart from the return."""
    ordered = sorted(stats, key=lambda s: s.tmin)
    m = len(ordered)
    total_mass = sum(s.mass for s in ordered)
    suffix_min = [0.0] * m
    suffix_max = [0.0] * m
    running_min, running_max = math.inf, -math.inf
    for i in range(m - 1, -1, -1):
        running_min = min(running_min, ordered[i].tmin)
        running_max = max(running_max, ordered[i].tmax)
        suffix_min[i] = running_min
        suffix_max[i] = running_max
    best_lo = suffix_min[0]  # i = 0 split: plain topological LB
    best_hi = suffix_max[0]
    prefix_min, prefix_max = math.inf, -math.inf
    p_hat = 0.0
    for i in range(m - 1):
        p_hat += ordered[i].mass / total_mass
        prefix_min = min(prefix_min, ordered[i].tmin)
        prefix_max = max(prefix_max, ordered[i].tmax)
        lo_i = _mul(p_hat, prefix_min) + _mul(1.0 - p_hat, suffix_min[i + 1])
        hi_i = _mul(p_hat, prefix_max) + _mul(1.0 - p_hat, suffix_max[i + 1])
        best_lo = max(best_lo, lo_i)
        best_hi = min(best_hi, hi_i)
    return best_lo, max(best_lo, best_hi)


def _mul(mass, bound):
    if mass == 0.0:
        return 0.0
    return mass * bound


@st.composite
def rows(draw):
    """``(tmin, tmax, mass)`` rows of one object; ``tmin`` values
    repeat, so ties are common."""
    r = draw(st.floats(0.0, 200.0))
    pool = draw(
        st.lists(
            st.one_of(st.floats(0.0, 300.0), st.just(math.inf)),
            min_size=1,
            max_size=3,
        )
    )
    mass = st.one_of(
        st.just(0.0),
        st.just(5e-324),
        st.floats(1e-300, 1e-290),
        st.floats(0.0, 1.0),
    )
    out = []
    for _ in range(draw(st.integers(1, 6))):
        tmin = draw(st.sampled_from(pool))
        tmax = tmin + draw(st.one_of(st.floats(0.0, 50.0), st.just(math.inf)))
        if math.isinf(tmin) and draw(st.booleans()):
            tmin = r + 1.0  # the iPRQ floor of an unreached subregion
        out.append((tmin, tmax, draw(mass)))
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:  # every mass zero, two rows or more
        return ZeroDivisionError


@given(
    entries=rows(),
    before=st.integers(0, 3),
    after=st.integers(0, 3),
)
@example(
    entries=[(1.0, 2.0, 1.0), (1.0, 9.0, 3.0), (4.0, 5.0, 0.5)],
    before=1,
    after=1,
)
@example(
    entries=[(0.0, 1.0, 1.0), (2.0, 3.0, 1e-16), (3.0, 4.0, 1e-16)],
    before=0,
    after=0,
)
@settings(max_examples=500, deadline=None)
def test_list_body_is_the_printed_formula(entries, before, after):
    stats = [
        SubregionStats(f"p{i}", tmin, tmax, mass)
        for i, (tmin, tmax, mass) in enumerate(entries)
    ]
    want = _outcome(printed_probabilistic_bounds, stats)
    pad = [(7.0, 8.0, 0.25)]
    table = pad * before + entries + pad * after
    tmin, tmax, mass = (list(col) for col in zip(*table))
    span = (before, before + len(entries))
    assert _outcome(probabilistic_pair, tmin, tmax, mass, *span) == want
    got = _outcome(probabilistic_bounds, stats)
    if want is ZeroDivisionError:
        assert got is want
    else:
        assert (got.lower, got.upper) == want
