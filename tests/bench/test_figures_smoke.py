"""Smoke tests for the figure generators on a tiny profile — every
panel function (Figures 12-15 and the ablations) must produce a
well-formed ExperimentResult."""

import pytest

from repro.bench import figures
from repro.bench.workloads import ScaleProfile, WorkloadFactory

TINY = ScaleProfile(
    name="tiny",
    floors_grid=(1, 2), default_floors=1,
    objects_grid=(15, 30), default_objects=15,
    radii_grid=(2.0, 3.0), default_radius=2.0,
    ranges_grid=(15.0, 30.0), default_range=15.0,
    k_grid=(2, 4), default_k=2,
    n_instances=4, n_queries=2,
    bands=2, rooms_per_band_side=2,
    floor_size=80.0, hallway_width=4.0, stair_size=10.0,
)


@pytest.fixture(scope="module")
def tiny():
    return WorkloadFactory(TINY)


@pytest.mark.parametrize("name", sorted(figures.PANELS))
def test_panel_produces_table(tiny, name):
    result = figures.PANELS[name](tiny)
    assert result.x_values, name
    assert result.series, name
    for series_name, values in result.series.items():
        assert len(values) == len(result.x_values), (name, series_name)
        assert all(v >= 0 or v != v for v in values), (name, series_name)
    table = result.to_table()
    assert result.title in table


def test_fig14a_ratios_in_percent(tiny):
    result = figures.fig14a(tiny)
    for values in result.series.values():
        assert all(0.0 <= v <= 100.0 for v in values)


def test_fig15b_measures_all_layers(tiny):
    result = figures.fig15b(tiny)
    assert set(result.series) == {
        "tree_tier", "object_layer", "topological_layer", "skeleton_tier",
    }
