"""Tests for `python -m repro.bench`: the grid command is its one
command, and the paper's Figures 12-15 are four of its grids."""

import json
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import PANELS
from repro.bench.grid import load_xpfile
from repro.errors import ReproError

GRIDS = Path(__file__).resolve().parents[2] / "benchmarks" / "grids"


def _panels(xpfile):
    (axis,) = load_xpfile(GRIDS / xpfile).axes
    return list(axis.values)


class TestCLI:
    def test_all_figure_names_have_functions(self):
        """fig12.xp ... fig15.xp hold the 16 panels (4 figures x 4
        panels), ablation.xp the rest; each names a panel function."""
        figures = [
            panel
            for n in (12, 13, 14, 15)
            for panel in _panels(f"fig{n}.xp")
        ]
        assert figures == [
            f"fig{n}{p}" for n in (12, 13, 14, 15) for p in "abcd"
        ]
        assert sorted(figures + _panels("ablation.xp")) == sorted(PANELS)

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig12a"])  # the figures CLI is gone: grid only
        xp = tmp_path / "bad.xp"
        xp.write_text('runner("figure")\nparam("panel", "{}", ["fig99z"])\n')
        with pytest.raises(ReproError, match="unknown panel"):
            main(["grid", str(xp), "--out", str(tmp_path / "out")])

    def test_unknown_scale_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["grid", str(GRIDS / "fig15.xp"), "--scale", "huge"])

    def test_single_panel_runs_and_writes(self, tmp_path, capsys):
        out, tables = tmp_path / "out", tmp_path / "tables"
        argv = [
            "grid", str(GRIDS / "fig15.xp"), "--scale", "quick",
            "--out", str(out), "--tables", str(tables),
        ]
        assert main(argv) == 0
        assert "Fig 15(d)" in capsys.readouterr().out
        assert "pre-computation" in (tables / "fig15d.txt").read_text()
        assert sorted(p.name for p in tables.iterdir()) == [
            f"fig15{p}.txt" for p in "abcd"
        ]
        cell = out / "fig15" / "fig15d"
        params = json.loads((cell / "params.json").read_text())
        assert (params["scale"], params["seed"]) == ("quick", 2013)
        assert main(argv) == 0
        assert "0 computed, 4 cached" in capsys.readouterr().out
