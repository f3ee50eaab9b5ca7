PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: tier1 tier2 test bench bench-grid bench-grid-quick \
	bench-trajectory lint docs-check figures

# Fast correctness gate (default pytest run already excludes tier2).
tier1:
	$(PYTHON) -m pytest -x -q

# Slow property workloads (monitor equivalence at scale).
tier2:
	$(PYTHON) -m pytest -q -m tier2 tests

test: tier1 tier2

# Paper-figure benchmark panels (pytest-benchmark harness).
bench:
	$(PYTHON) -m pytest -q -m "not tier2" benchmarks

# Experiment grids (declarative sweeps; see benchmarks/grids/ and
# docs/operations.md).  Resumable: cells with a verified result.json
# are skipped, so rerunning a killed sweep picks up where it stopped.
bench-grid:
	$(PYTHON) -m repro.bench grid benchmarks/grids/scenario_fleet.xp \
		--tables benchmarks/tables

# CI-smoke grid: a tiny 2x2 scenario sweep, run twice to prove resume.
bench-grid-quick:
	$(PYTHON) -m repro.bench grid benchmarks/grids/quick_smoke.xp --quick
	$(PYTHON) -m repro.bench grid benchmarks/grids/quick_smoke.xp --quick

# The trajectory file a perf PR commits (ROADMAP standing rule): the
# e2e benchmark on a checkout of the parent commit and on this tree,
# seeds 2013 + 2014, sides alternated.  PAIRS=5 (ten pairs in all)
# adds the paired verdicts a claimed gain is judged on.
#   make bench-trajectory PARENT=/path/to/parent-checkout PR=19
PAIRS ?= 1
bench-trajectory:
	$(PYTHON) scripts/bench_trajectory.py $(PARENT) . --pr $(PR) \
		--pairs $(PAIRS)

# Same checks the CI lint job runs (requires ruff, pinned in ci.yml).
lint:
	ruff check .
	ruff format --check .

# Same check the CI docs job runs: every relative link in the
# markdown docs must resolve (stdlib only, no network).
docs-check:
	$(PYTHON) scripts/check_md_links.py

# Regenerate the paper's figure tables via the CLI harness.
figures:
	$(PYTHON) -m repro.bench
