"""Streaming benchmark — continuous query monitoring throughput.

Not a paper figure: this measures the extension subsystem
(:class:`repro.queries.monitor.QueryMonitor`).  A scenario registers
standing iRQ/ikNNQ queries, then random-walks the population through
the doors graph while the monitor absorbs batched position updates.

Reported per batch:

* ``absorb_ms`` — wall-clock to absorb the batch (index update + all
  incremental result maintenance);
* ``reexec_ms`` — what a non-incremental monitor would pay instead
  (every standing query re-executed from scratch);
* ``recompute_%`` / ``skip_%`` — cumulative share of (update, query)
  pairs that escalated to full re-execution / were decided by the
  Table III bounds alone (both pair-level);
* ``recomp_per_upd`` — standing-query re-executions per absorbed
  update (the query-level fallback rate — a different dimension than
  the pair-level ratio, reported separately on purpose).

Shape expectations asserted: the recompute ratio stays < 1.0 (the
monitor provably skips work) and the maintained result sets match
from-scratch execution at the end of the run.
"""

import pytest

from repro.bench.runner import ExperimentResult
from repro.queries import iRQ

pytestmark = pytest.mark.tier2

N_BATCHES = 10
BATCH_SIZE = 25


def test_stream_monitor_throughput(stream_scenario, save_table, benchmark):
    scenario = stream_scenario
    result = ExperimentResult(
        title="Stream — continuous monitor vs re-execution",
        x_label="batch",
        unit="",
    )
    for batch_no in range(N_BATCHES):
        absorb_s = scenario.absorb_batch(BATCH_SIZE)
        reexec_s = scenario.reexecute_all()
        stats = scenario.monitor.stats
        result.x_values.append(batch_no + 1)
        result.add("absorb_ms", 1000.0 * absorb_s)
        result.add("reexec_ms", 1000.0 * reexec_s)
        result.add("recompute_%", 100.0 * stats.recompute_ratio)
        result.add("skip_%", 100.0 * stats.skip_ratio)
        result.add("recomp_per_upd", stats.recomputes_per_update)
    save_table("stream_monitor", result)

    stats = scenario.monitor.stats
    # The monitor must provably skip work...
    assert stats.pairs_evaluated > 0
    assert stats.recompute_ratio < 1.0
    assert stats.pairs_skipped > 0
    # ...with dimensionally honest accounting: the pair counters
    # partition pairs_evaluated.
    assert stats.pairs_evaluated == (
        stats.pairs_skipped + stats.pairs_refined + stats.pairs_recomputed
    )
    # ...and still be exact: spot-check one standing iRQ from scratch.
    qid = scenario.irq_ids[0]
    spec = scenario.monitor.query_spec(qid)
    assert scenario.monitor.result_ids(qid) == iRQ(
        spec.q, spec.r, scenario.index
    ).ids()

    benchmark(lambda: scenario.absorb_batch(BATCH_SIZE))


def test_stream_updates_per_sec(stream_scenario, save_table):
    """Headline throughput number: updates/sec absorbed while standing
    queries stay continuously correct."""
    from repro.bench.workloads import run_stream

    scenario = stream_scenario
    report = run_stream(scenario, n_batches=N_BATCHES, batch_size=BATCH_SIZE)
    result = ExperimentResult(
        title="Stream — monitor throughput",
        x_label="metric",
        unit="",
    )
    result.x_values.append("run")
    result.add("updates_per_sec", report.updates_per_sec)
    result.add("recompute_%", 100.0 * report.stats.recompute_ratio)
    result.add("skip_%", 100.0 * report.stats.skip_ratio)
    save_table("stream_throughput", result)
    assert report.updates == N_BATCHES * BATCH_SIZE
    assert report.updates_per_sec > 0
    assert report.stats.recompute_ratio < 1.0
