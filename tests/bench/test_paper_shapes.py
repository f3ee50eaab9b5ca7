"""The paper's shape claims on Figures 12-15, and the design
ablations', asserted on the panels the experiment grid computes:
``benchmarks/grids/fig12.xp`` ... ``fig15.xp`` and ``ablation.xp``
run through :class:`GridRunner` at ``small`` into a temporary
directory.

Claims over counts (ratios, partitions retrieved, unit counts, x
values) are tier-1.  Claims over timings are tier-2: on a shared
machine they are noise.
"""

from pathlib import Path

import pytest

from repro.bench.grid import Axis, ExperimentGrid, GridRunner, load_xpfile
from repro.bench.workloads import SMALL

GRIDS = Path(__file__).resolve().parents[2] / "benchmarks" / "grids"


def run_panels(out, xpfile, panels=None):
    """The xpfile's grid, cut down to ``panels`` if given, at ``small``;
    its tables by panel name."""
    grid = load_xpfile(GRIDS / xpfile)
    if panels is not None:
        grid = ExperimentGrid(
            grid.name,
            grid.runner,
            [Axis("panel", "{}", tuple(panels))],
            tables=grid.tables,
        )
    return GridRunner(grid, out, profile=SMALL).run().tables()


def _mean(series):
    return sum(series) / len(series)


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """The panels whose claims are counts."""
    out = tmp_path_factory.mktemp("grids")
    tables = {}
    for xpfile, panels in (
        ("fig12.xp", ["fig12d"]),
        ("fig13.xp", ["fig13b", "fig13d"]),
        ("fig14.xp", ["fig14a", "fig14c"]),
        ("fig15.xp", ["fig15a"]),
        ("ablation.xp", None),
    ):
        tables.update(run_panels(out, xpfile, panels))
    return tables


@pytest.fixture(scope="module")
def timed(tmp_path_factory):
    """All sixteen panels of Figures 12-15."""
    out = tmp_path_factory.mktemp("grids")
    tables = {}
    for xpfile in ("fig12.xp", "fig13.xp", "fig14.xp", "fig15.xp"):
        tables.update(run_panels(out, xpfile))
    return tables


class TestCounts:
    @pytest.mark.parametrize("panel", ["fig14a", "fig14c"])
    def test_pruning_ratio_dominates_filtering(self, counted, panel):
        series = counted[panel].series
        assert all(
            p >= f - 1e-9
            for f, p in zip(series["filtering"], series["pruning"])
        )

    def test_fig14a_most_objects_never_reach_refinement(self, counted):
        assert _mean(counted["fig14a"].series["pruning"]) > 50.0

    def test_fig15a_skeleton_retrieves_no_more_partitions(self, counted):
        """The skeleton tier retrieves no more (typically far fewer)
        partitions than the Euclidean bound."""
        series = counted["fig15a"].series
        assert all(
            w <= wo + 1e-9
            for w, wo in zip(
                series["withSkeleton"], series["withoutSkeleton"]
            )
        )

    @pytest.mark.parametrize("panel", ["fig12d", "fig13d"])
    def test_one_x_value_per_floor_count(self, counted, panel):
        assert len(counted[panel].x_values) == len(SMALL.floors_grid)

    def test_fig13b_phases_non_negative(self, counted):
        assert all(
            v >= 0 for s in counted["fig13b"].series.values() for v in s
        )

    def test_a1_bisector_fast_path_is_conservative(self, counted):
        series = counted["ablation_a1"].series
        assert series["contradictions"] == [0]
        # The fast path settles the bulk of the subregions.
        assert series["agreements"][0] >= 0.5 * series["total"][0]

    def test_a2_stricter_t_shape_means_more_units(self, counted):
        units = counted["ablation_a2"].series["index_units"]
        assert units == sorted(units)

    def test_a3_probabilistic_and_weighted_bounds_are_tighter(
        self, counted
    ):
        width = {
            name: value
            for name, (value,) in counted["ablation_a3"].series.items()
        }
        assert width["probabilistic"] <= width["topological"] + 1e-9
        assert width["weighted"] <= width["probabilistic"] + 1e-9


@pytest.mark.tier2
class TestTimings:
    def test_fig12a_larger_ranges_cost_more(self, timed):
        series = timed["fig12a"].series
        lo = series[f"r={SMALL.ranges_grid[0]:g}"]
        hi = series[f"r={SMALL.ranges_grid[-1]:g}"]
        assert _mean(hi) >= _mean(lo)

    def test_fig12b_filtering_stays_flat(self, timed):
        """Topology-dependent phases stay flat as |O| grows (paper
        V-B.1): generous noise, but filtering must not scale like
        refinement."""
        filtering = timed["fig12b"].series["filtering"]
        assert max(filtering) <= 10 * (min(filtering) + 0.1)

    @pytest.mark.parametrize(
        "panel, series",
        [
            ("fig12c", f"r={SMALL.default_range:g}"),
            ("fig13c", f"k={SMALL.default_k}"),
        ],
    )
    def test_largest_uncertainty_not_cheaper(self, timed, panel, series):
        values = timed[panel].series[series]
        assert values[-1] >= 0.5 * values[0]

    def test_fig13a_larger_k_costs_more(self, timed):
        series = timed["fig13a"].series
        lo = series[f"k={SMALL.k_grid[0]}"]
        hi = series[f"k={SMALL.k_grid[-1]}"]
        assert _mean(hi) >= _mean(lo)

    def test_fig14b_pruning_phase_roughly_breaks_even(self, timed):
        """At the scaled-down profiles refinement is cheap enough that
        the pruning phase roughly breaks even for iRQ (it clearly pays
        at the paper's 100 instances per object): a loose band."""
        series = timed["fig14b"].series
        assert _mean(series["withoutPruning"]) >= 0.5 * _mean(
            series["withPruning"]
        )

    def test_fig14d_pruning_phase_pays_for_iknnq(self, timed):
        """Paper: >= 4x; only the direction at reduced scale."""
        series = timed["fig14d"].series
        assert _mean(series["withoutPruning"]) >= _mean(
            series["withPruning"]
        )

    def test_fig15b_skeleton_cheaper_than_tree(self, timed):
        series = timed["fig15b"].series
        assert _mean(series["skeleton_tier"]) <= _mean(series["tree_tier"])

    def test_fig15c_object_updates_cheaper_than_partitions(self, timed):
        series = timed["fig15c"].series
        assert (
            _mean(series["insertObj"])
            <= 10 * _mean(series["insertPartition"]) + 1.0
        )

    def test_fig15d_precomputation_grows_with_the_building(self, timed):
        series = timed["fig15d"].series["pre-computation"]
        assert series[-1] >= series[0]
