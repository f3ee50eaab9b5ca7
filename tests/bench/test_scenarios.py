"""Tests for the scenario fleet (`repro.bench.scenarios`): campus
composition, directed egress movement, and the registered cell
runners end-to-end at CI-smoke scale."""

import pytest

from repro.bench.grid import Axis, CellContext, ExperimentGrid, GridRunner
from repro.bench.scenarios import (
    QUICK,
    build_campus,
    egress_targets,
)
from repro.errors import ReproError
from repro.index.composite import CompositeIndex
from repro.objects.generator import DirectedMovementStream, ObjectGenerator
from repro.queries.monitor import QueryMonitor
from repro.space.events import CloseDoor


def _ctx(tmp_path, quick=True, seed=7):
    return CellContext(
        quick=quick, seed=seed, cell_dir=tmp_path, log=lambda line: None
    )


class TestCampus:
    def test_compose_two_buildings(self):
        space = build_campus(2, floors=1, profile=QUICK)
        stats = {"b0": 0, "b1": 0}
        for pid in space.partitions:
            for prefix in stats:
                if pid.startswith(prefix + "_"):
                    stats[prefix] += 1
        per_building = 13  # 8 rooms + 3 hallways + 2 spines at QUICK
        assert stats == {"b0": per_building, "b1": per_building}
        assert "walk0" in space.partitions
        # The walkway genuinely bridges the buildings.
        band = QUICK.bands // 2
        assert set(space.adjacent_partitions("walk0")) == {
            f"b0_f0_hall{band}",
            f"b1_f0_hall{band}",
        }

    def test_multifloor_campus_keeps_staircases(self):
        space = build_campus(2, floors=2, profile=QUICK)
        assert space.num_floors == 2
        assert any(pid.startswith("b1_stair_") for pid in space.partitions)

    def test_scales_far_beyond_one_mall(self):
        space = build_campus(4, floors=2, profile=QUICK)
        single = build_campus(1, floors=1, profile=QUICK)
        assert len(space.partitions) > 8 * len(single.partitions)

    def test_validation(self):
        with pytest.raises(ReproError, match="at least one building"):
            build_campus(0, profile=QUICK)
        with pytest.raises(ReproError, match="gap must be positive"):
            build_campus(2, floors=1, profile=QUICK, gap=0.0)

    def test_egress_targets_per_building(self):
        campus = build_campus(3, floors=1, profile=QUICK)
        assert egress_targets(campus) == [
            "b0_f0_hall0", "b1_f0_hall0", "b2_f0_hall0"
        ]


class TestDirectedMovement:
    @pytest.fixture()
    def world(self):
        space = build_campus(2, floors=1, profile=QUICK, seed=3)
        gen = ObjectGenerator(
            space, radius=1.0, n_instances=4, seed=3
        )
        population = gen.generate(30)
        return space, gen, population

    def test_validation(self, world):
        space, gen, population = world
        with pytest.raises(ReproError, match="at least one target"):
            DirectedMovementStream(space, population, gen, targets=())
        with pytest.raises(ReproError, match="compliance"):
            DirectedMovementStream(
                space, population, gen,
                targets=("b0_f0_hall0",), compliance=1.5,
            )

    def test_crowd_converges_on_targets(self, world):
        space, gen, population = world
        index = CompositeIndex.build(space, population, fanout=8)
        targets = tuple(egress_targets(space))
        stream = DirectedMovementStream(
            space, population, gen,
            hop_probability=1.0, seed=11,
            targets=targets, compliance=1.0,
        )

        def in_targets() -> int:
            return sum(
                1
                for obj in population
                if space.locate(obj.region.center) is not None
                and space.locate(obj.region.center).partition_id
                in targets
            )

        before = in_targets()
        for _ in range(12):
            index.update_objects(stream.next_moves(30))
        after = in_targets()
        assert after > before
        assert after >= len(population) // 2  # the crowd piled up

    def test_reroutes_after_door_closure(self, world):
        """Closing a door invalidates the BFS plan (topology_version
        bump) — the stream must re-plan, not walk through it."""
        space, gen, population = world
        targets = ("b0_f0_hall0",)
        stream = DirectedMovementStream(
            space, population, gen,
            targets=targets, compliance=1.0, seed=11,
        )
        stream._ensure_routes()
        hops_before = dict(stream._hops)
        # Close every door of the target except one: reachability
        # survives, but the plan must be rebuilt.
        doors = [d for d in space.doors_of(targets[0]) if d.is_open]
        for door in doors[1:]:
            CloseDoor(door.door_id).apply(space)
        stream._ensure_routes()
        assert stream._hops_version == space.topology_version
        assert stream._hops != hops_before


def _run_one(tmp_path, runner_name, params):
    grid = ExperimentGrid(
        name="one",
        runner=runner_name,
        axes=[Axis("cell", "{}", ("only",))],
        fixed=params,
    )
    report = GridRunner(grid, tmp_path, quick=True, seed=7).run()
    return report.results["only"]


class TestCellRunners:
    def test_stream_cell_reports_timing(self, tmp_path):
        result = _run_one(
            tmp_path, "stream",
            {"batches": 2, "batch_size": 5, "repeat": 2},
        )
        assert result["updates"] == 10
        assert result["timing"]["repeat"] == 2
        assert result["timing"]["min_s"] <= result["timing"]["mean_s"]

    def test_egress_cell_alerts_and_closures(self, tmp_path):
        result = _run_one(
            tmp_path, "scenario",
            {"scenario": "egress", "batches": 3, "batch_size": 8,
             "threshold": 2, "close_doors": 1, "compliance": 1.0},
        )
        assert result["doors_closed"] == 1
        assert result["exits"] == 1
        # A fully compliant crowd piles into the exit hallway: the
        # occupancy watch must be alerting by the end of the surge.
        assert result["occupancy_alerts"] == 1
        assert result["exit_occupancy"] >= 2
        assert result["deltas_per_sec"] > 0

    def test_campus_cell(self, tmp_path):
        result = _run_one(
            tmp_path, "scenario",
            {"scenario": "campus", "buildings": 2, "batches": 2,
             "batch_size": 5},
        )
        assert result["buildings"] == 2
        assert result["partitions"] == 27  # 2 x 13 + walkway
        assert result["updates_per_sec"] > 0

    def test_diurnal_cell_traces_load_curve(self, tmp_path):
        result = _run_one(
            tmp_path, "scenario",
            {"scenario": "diurnal", "hours": 4, "trough_batch": 2,
             "peak_batch": 8, "batches_per_hour": 1},
        )
        sizes = [h["batch_size"] for h in result["hourly"]]
        assert sizes[0] == 2  # trough at hour 0
        assert max(sizes) == 8  # peak mid-day
        assert result["updates"] == sum(sizes)

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="unknown scenario"):
            _run_one(tmp_path, "scenario", {"scenario": "bogus"})
