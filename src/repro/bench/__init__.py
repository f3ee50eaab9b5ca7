"""Benchmark harness regenerating the paper's evaluation (Section V).

Every panel of Figures 12-15 has an experiment function in
:mod:`repro.bench.figures`, run one panel per cell by the experiment
grid (:mod:`repro.bench.grid`; ``benchmarks/grids/fig12.xp`` ...
``fig15.xp``); workload construction (the paper's parameter grid,
scaled to a profile) lives in :mod:`repro.bench.workloads`;
measurement and the paper-style series printer in
:mod:`repro.bench.runner` / :mod:`repro.bench.reporting`.

Profiles (select with the grid's ``--scale``):

* ``quick`` — CI-smoke venues; seconds.
* ``small`` (default) — all sixteen panels in a few seconds; the
  shapes hold.
* ``medium`` — closer to the paper's grid.
* ``paper`` — the paper's exact parameters (10-30 floors, 10K-30K
  objects, 100 instances).
"""

from repro.bench.workloads import ScaleProfile, WorkloadFactory
from repro.bench.runner import ExperimentResult, run_queries
from repro.bench.reporting import format_series
from repro.bench import figures

__all__ = [
    "ScaleProfile",
    "WorkloadFactory",
    "ExperimentResult",
    "run_queries",
    "format_series",
    "figures",
]
