"""Shared benchmark fixtures.

The scale profile is selected with ``REPRO_BENCH_SCALE`` (small /
medium / paper; default small).  Workloads are cached for the whole
session — construction would otherwise dominate every benchmark.

Each panel's series table is printed and also written to
``benchmarks/tables/<figure>.txt`` so benchmarks/README.md can reference
the exact measured numbers.
"""

import pathlib

import pytest

from repro.bench.workloads import WorkloadFactory

TABLE_DIR = pathlib.Path(__file__).parent / "tables"


@pytest.fixture(scope="session")
def factory():
    return WorkloadFactory()


@pytest.fixture(scope="session")
def save_table():
    TABLE_DIR.mkdir(exist_ok=True)

    def _save(name: str, result) -> None:
        table = result.to_table()
        print()
        print(table)
        (TABLE_DIR / f"{name}.txt").write_text(table + "\n")

    return _save
