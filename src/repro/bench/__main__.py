"""Command-line harness: run (or resume) an experiment grid.

Usage::

    python -m repro.bench grid benchmarks/grids/fig12.xp
    python -m repro.bench grid benchmarks/grids/fig14.xp --scale medium
    python -m repro.bench grid benchmarks/grids/scenario_fleet.xp \
        --tables benchmarks/tables

``grid <xpfile>`` materialises a declarative experiment grid (see
:mod:`repro.bench.grid`): one directory per cell under ``--out``,
cached cells skipped — rerunning a killed sweep resumes it.  The
paper's Figures 12-15 are ``benchmarks/grids/fig12.xp`` ...
``fig15.xp``, one panel per cell; ``--tables DIR`` writes each panel
to ``DIR/<panel>.txt``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.grid import (
    GridError,
    GridInterrupted,
    GridRunner,
    load_xpfile,
    write_cells_csv,
)
from repro.bench.workloads import PROFILES


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench grid <xpfile> [options]``."""
    top = argparse.ArgumentParser(prog="python -m repro.bench")
    parser = top.add_subparsers(dest="command", required=True).add_parser(
        "grid", description="Run (or resume) a declarative experiment grid."
    )
    parser.add_argument("xpfile", type=pathlib.Path, help="grid xpfile")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/out"),
        help="root directory for cell outputs (default: benchmarks/out)",
    )
    parser.add_argument(
        "--tables",
        type=pathlib.Path,
        default=None,
        help="also write each pivot table to DIR/<stem>.txt (a "
        "panel's name, or the grid's)",
    )
    parser.add_argument(
        "--scale",
        choices=list(PROFILES),
        default="small",
        help="workload scale, recorded in each cell's params.json "
        "(default: small; quick is the CI smoke)",
    )
    parser.add_argument(
        "--seed", type=int, default=2013, help="base seed (default 2013)"
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell, ignoring cached results",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="compute at most N missing cells, then stop (the sweep "
        "stays resumable)",
    )
    parser.add_argument(
        "--csv",
        type=pathlib.Path,
        default=None,
        help="write a flat all-cells CSV to this path",
    )
    args = top.parse_args(argv)

    try:
        grid = load_xpfile(args.xpfile)
    except GridError as exc:
        parser.error(str(exc))
    runner = GridRunner(
        grid,
        args.out,
        profile=PROFILES[args.scale],
        seed=args.seed,
        force=args.force,
        verbose=True,
    )
    print(
        f"grid: {grid.name} ({len(grid.cells())} cells, "
        f"runner={grid.runner}, scale={args.scale}) -> {runner.out_dir}"
    )
    try:
        report = runner.run(max_cells=args.max_cells)
    except GridInterrupted as stopped:
        report = stopped.report
        print(
            f"stopped after {len(report.ran)} computed cells "
            "(rerun to resume)"
        )
        return 3
    print(
        f"cells: {len(report.ran)} computed, {len(report.skipped)} "
        f"cached, {len(report.recomputed)} recomputed"
    )
    tables = report.tables()
    for table in tables.values():
        print()
        print(table.to_table())
    if args.tables is not None:
        args.tables.mkdir(parents=True, exist_ok=True)
        for stem, table in tables.items():
            path = args.tables / f"{stem}.txt"
            path.write_text(table.to_table() + "\n")
            print(f"wrote {path}")
    if args.csv is not None:
        write_cells_csv(args.csv, report.cells)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
