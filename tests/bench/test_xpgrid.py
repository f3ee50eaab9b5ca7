"""Tests for the declarative experiment-grid subsystem
(`repro.bench.grid`): declaration, xpfile loading, the resumable
runner's skip/recompute semantics, and reporting."""

import itertools
import json

import pytest

from repro.bench import grid as grid_mod
from repro.bench.grid import (
    Axis,
    CellContext,
    ExperimentGrid,
    GridError,
    GridInterrupted,
    GridRunner,
    cell_runner,
    load_xpfile,
    register_cell_runner,
    series_table,
    write_cells_csv,
)
from repro.bench.runner import ExperimentResult
from repro.bench.workloads import QUICK, SMALL

# A deterministic-but-stateful runner: each *computed* cell consumes
# the next tick, so two sweeps only agree byte-for-byte when every
# cell is computed exactly once (cached cells must be served from
# disk, not re-run).
_TICKS = itertools.count()

if "ticker" not in grid_mod._CELL_RUNNERS:

    @register_cell_runner("ticker")
    def _ticker(params: dict, ctx: CellContext) -> dict:
        ctx.log("tick")
        return {
            "tick": next(_TICKS),
            "value": params["x"] * params.get("mult", 1),
            "seed": ctx.seed,
        }


if "scale_echo" not in grid_mod._CELL_RUNNERS:

    @register_cell_runner("scale_echo")
    def _scale_echo(params: dict, ctx: CellContext) -> dict:
        return {"scale": ctx.profile.name}


def _reset_ticks() -> None:
    global _TICKS
    _TICKS = itertools.count()


def tiny_grid(**overrides) -> ExperimentGrid:
    kw = dict(
        name="tiny",
        runner="ticker",
        axes=[
            Axis("x", "x{}", (1, 2)),
            Axis("kind", "{}", ("a", "b")),
        ],
        fixed={"mult": 10},
    )
    kw.update(overrides)
    return ExperimentGrid(**kw)


class TestDeclaration:
    def test_cells_product_order_and_ids(self):
        grid = tiny_grid()
        cells = grid.cells()
        assert [c.cell_id for c in cells] == [
            "x1_a", "x1_b", "x2_a", "x2_b"
        ]
        assert cells[0].params == {"x": 1, "kind": "a", "mult": 10}

    def test_constraints_prune(self):
        grid = tiny_grid(
            constraints=[lambda p: not (p["x"] == 2 and p["kind"] == "b")]
        )
        assert [c.cell_id for c in grid.cells()] == [
            "x1_a", "x1_b", "x2_a"
        ]

    def test_all_pruned_rejected(self):
        grid = tiny_grid(constraints=[lambda p: False])
        with pytest.raises(GridError, match="pruned every cell"):
            grid.cells()

    def test_empty_domain_rejected(self):
        with pytest.raises(GridError, match="empty domain"):
            Axis("x", "x{}", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(GridError, match="duplicate"):
            Axis("x", "x{}", (1, 1))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(GridError, match="duplicate axis"):
            tiny_grid(axes=[Axis("x", "x{}", (1,))] * 2)

    def test_fixed_shadowing_axis_rejected(self):
        with pytest.raises(GridError, match="shadow"):
            tiny_grid(fixed={"x": 3})

    def test_unknown_runner_rejected(self):
        with pytest.raises(GridError, match="unknown cell runner"):
            cell_runner("no-such-runner")


XPFILE = """\
name("from_file")
runner("ticker")
param("x", "x{}", [1, 2, 3])
param("kind", "{}", ["a", "b"])
constraint(lambda p: p["x"] != 3 or p["kind"] == "a")
fixed("mult", 100)


def _pivot(cells):
    return series_table(
        cells, "Ticker", x="x", values=["value"], unit=""
    )


table(_pivot)
"""


class TestXpfile:
    def test_load(self, tmp_path):
        path = tmp_path / "g.xp"
        path.write_text(XPFILE)
        grid = load_xpfile(path)
        assert grid.name == "from_file"
        assert grid.runner == "ticker"
        assert len(grid.cells()) == 5  # 6 minus the pruned x3_b
        assert grid.fixed == {"mult": 100}
        assert len(grid.tables) == 1

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "stemmy.xp"
        path.write_text('runner("ticker")\nparam("x", "x{}", [1])\n')
        assert load_xpfile(path).name == "stemmy"

    def test_missing_runner_rejected(self, tmp_path):
        path = tmp_path / "g.xp"
        path.write_text('param("x", "x{}", [1])\n')
        with pytest.raises(GridError, match="never calls runner"):
            load_xpfile(path)

    def test_syntax_error_rejected(self, tmp_path):
        path = tmp_path / "g.xp"
        path.write_text("def broken(:\n")
        with pytest.raises(GridError, match="cannot load"):
            load_xpfile(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(GridError, match="cannot load"):
            load_xpfile(tmp_path / "absent.xp")


class TestRunner:
    def test_materialises_cell_dirs(self, tmp_path):
        grid = tiny_grid()
        report = GridRunner(grid, tmp_path, seed=5).run()
        assert len(report.ran) == 4
        assert report.skipped == [] and report.recomputed == []
        for cell in grid.cells():
            cdir = tmp_path / "tiny" / cell.cell_id
            params = json.loads((cdir / "params.json").read_text())
            assert params["params"] == cell.params
            assert params["seed"] == 5
            payload = json.loads((cdir / "result.json").read_text())
            assert payload["result"] == report.results[cell.cell_id]
            assert "tick" in (cdir / "log.txt").read_text()

    def test_resume_skips_and_leaves_files_untouched(self, tmp_path):
        grid = tiny_grid()
        first = GridRunner(grid, tmp_path).run()
        stamps = {
            c.cell_id: (
                (tmp_path / "tiny" / c.cell_id / "result.json").stat().st_mtime_ns,
                (tmp_path / "tiny" / c.cell_id / "result.json").read_bytes(),
            )
            for c in grid.cells()
        }
        second = GridRunner(grid, tmp_path).run()
        assert second.ran == [] and second.recomputed == []
        assert second.skipped == [c.cell_id for c in grid.cells()]
        assert second.results == first.results
        for cell in grid.cells():
            path = tmp_path / "tiny" / cell.cell_id / "result.json"
            assert (
                path.stat().st_mtime_ns,
                path.read_bytes(),
            ) == stamps[cell.cell_id]

    def test_killed_sweep_resumes_where_it_stopped(self, tmp_path):
        grid = tiny_grid()
        runner = GridRunner(grid, tmp_path)
        with pytest.raises(GridInterrupted) as stop:
            runner.run(max_cells=2)
        assert stop.value.report.ran == ["x1_a", "x1_b"]
        done = {
            cid: (tmp_path / "tiny" / cid / "result.json").read_bytes()
            for cid in ("x1_a", "x1_b")
        }
        resumed = GridRunner(grid, tmp_path).run()
        assert resumed.skipped == ["x1_a", "x1_b"]
        assert resumed.ran == ["x2_a", "x2_b"]
        for cid, raw in done.items():
            path = tmp_path / "tiny" / cid / "result.json"
            assert path.read_bytes() == raw  # completed cells untouched

    def test_killed_then_resumed_tables_byte_identical(self, tmp_path):
        grid = tiny_grid(
            tables=[
                lambda cells: series_table(
                    cells, "T", x="x", values=["tick", "value"], unit=""
                )
            ]
        )
        _reset_ticks()
        with pytest.raises(GridInterrupted):
            GridRunner(grid, tmp_path / "killed").run(max_cells=2)
        resumed = GridRunner(grid, tmp_path / "killed").run()
        _reset_ticks()
        straight = GridRunner(grid, tmp_path / "straight").run()
        assert (
            resumed.tables()["tiny"].to_table()
            == straight.tables()["tiny"].to_table()
        )

    def test_corrupt_result_recomputed(self, tmp_path):
        grid = tiny_grid()
        first = GridRunner(grid, tmp_path).run()
        target = tmp_path / "tiny" / "x2_a" / "result.json"
        target.write_text(target.read_text()[:40])  # torn write
        second = GridRunner(grid, tmp_path).run()
        assert second.recomputed == ["x2_a"]
        assert len(second.skipped) == 3
        assert second.results["x2_a"]["value"] == first.results["x2_a"]["value"]

    def test_tampered_result_fails_digest(self, tmp_path):
        grid = tiny_grid()
        GridRunner(grid, tmp_path).run()
        target = tmp_path / "tiny" / "x1_b" / "result.json"
        payload = json.loads(target.read_text())
        payload["result"]["value"] = 999_999  # silent hand edit
        target.write_text(json.dumps(payload))
        second = GridRunner(grid, tmp_path).run()
        assert second.recomputed == ["x1_b"]
        assert second.results["x1_b"]["value"] != 999_999

    def test_changed_seed_recomputes(self, tmp_path):
        grid = tiny_grid()
        GridRunner(grid, tmp_path, seed=1).run()
        second = GridRunner(grid, tmp_path, seed=2).run()
        assert len(second.recomputed) == 4
        assert all(r["seed"] == 2 for r in second.results.values())

    def test_changed_scale_recomputes(self, tmp_path):
        """The scale is part of the cache key: a cell computed at one
        scale is recomputed, not served, at another."""
        grid = tiny_grid(runner="scale_echo")
        first = GridRunner(grid, tmp_path, profile=QUICK).run()
        assert {r["scale"] for r in first.results.values()} == {"quick"}
        second = GridRunner(grid, tmp_path, profile=SMALL).run()
        assert len(second.recomputed) == 4 and second.skipped == []
        assert {r["scale"] for r in second.results.values()} == {"small"}
        params = json.loads(
            (tmp_path / "tiny" / "x1_a" / "params.json").read_text()
        )
        assert params["scale"] == "small"

    def test_force_recomputes_everything(self, tmp_path):
        grid = tiny_grid()
        GridRunner(grid, tmp_path).run()
        forced = GridRunner(grid, tmp_path, force=True).run()
        assert len(forced.ran) == 4 and forced.skipped == []


class TestReporting:
    def _cells(self):
        return [
            ({"x": 1, "kind": "a"}, {"value": 10, "extra": {"deep": 1}}),
            ({"x": 2, "kind": "b"}, {"value": 20, "other": 3}),
        ]

    def test_series_table(self):
        table = series_table(
            self._cells(), "T", x="x", values=["value"], unit=""
        ).to_table()
        assert "== T ==" in table and "value" in table

    def test_tables_keyed_by_stem(self, tmp_path):
        """A pivot's ``{stem: panel}`` dict names its table files; a lone
        panel takes the grid's name, ``<grid>_<n>`` among several."""

        def by_kind(cells):
            return {
                f"kind_{p['kind']}": ExperimentResult(p["kind"], "x")
                for p, _ in cells
            }

        def lone(cells):
            return ExperimentResult("lone", "x")

        report = GridRunner(tiny_grid(tables=[by_kind]), tmp_path).run()
        assert list(report.tables()) == ["kind_a", "kind_b"]
        report.grid = tiny_grid(tables=[lone])
        assert list(report.tables()) == ["tiny"]
        report.grid = tiny_grid(tables=[by_kind, lone])
        assert list(report.tables()) == ["kind_a", "kind_b", "tiny_1"]

    def test_csv_unions_scalar_keys(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_cells_csv(path, self._cells())
        lines = path.read_text().splitlines()
        assert lines[0] == "x,kind,value,other"  # dicts excluded
        assert lines[1] == "1,a,10,"
        assert lines[2] == "2,b,20,3"


class TestCLI:
    def test_grid_subcommand_runs_and_resumes(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        xp = tmp_path / "g.xp"
        xp.write_text(XPFILE)
        out = tmp_path / "out"
        argv = ["grid", str(xp), "--out", str(out)]
        assert main(argv + ["--max-cells", "2"]) == 3  # killed
        assert main(argv + ["--tables", str(tmp_path / "tables")]) == 0
        text = capsys.readouterr().out
        assert "2 cached" in text
        assert (tmp_path / "tables" / "from_file.txt").exists()

    def test_grid_subcommand_csv(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        xp = tmp_path / "g.xp"
        xp.write_text(XPFILE)
        csv = tmp_path / "cells.csv"
        assert main(
            ["grid", str(xp), "--out", str(tmp_path / "o"),
             "--csv", str(csv)]
        ) == 0
        assert csv.read_text().startswith("mult,x,kind")

    def test_bad_xpfile_errors(self, tmp_path):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["grid", str(tmp_path / "absent.xp")])
