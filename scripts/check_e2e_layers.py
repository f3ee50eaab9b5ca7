#!/usr/bin/env python3
"""The end-to-end benchmark's interaction notes, checked as counts.

``benchmarks/e2e/test_e2e.py::test_layers_touched_only_where_predicted``
asserts which layers each workload may touch.  Two of its lines are
stale: the pre-guard-band note "knn_stream recomputes from scratch"
(``maintainers.full_recomputes > 0``; a standing ikNNQ now re-ranks
inside its band and the count is 0), and "served_mix routes through the
shard layer" (``shard.self_s > 0``; the shard layer is deleted and the
span reads 0 on every workload).  The benchmark's own files are frozen
for a PR that touches ``src/``.  CI therefore deselects that one test —
and runs this script, which keeps every other assertion of it alive on
the same input (the traced ``--quick`` suite, seed 7) and states the
two notes as they now hold.  Delete this file when a harness-only PR
rewrites the lines in ``test_e2e.py``.

Stdlib only; exit status 1 with one line per broken note.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SINGLE_THREADED = ("oneshot_mix", "range_stream", "knn_stream")
SEED = 7


def quick_suite() -> dict[str, dict[str, float]]:
    """``{workload: {metric: value}}`` of one traced quick suite."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "quick.json"
        done = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py", "--quick",
                "--trace", "1", "--seed", str(SEED), "--json", str(out),
            ],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise SystemExit(done.stdout + done.stderr)
        runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    return {
        run["workload"]: {
            name: metric["value"]
            for name, metric in run["result"]["metrics"].items()
        }
        for run in runs
    }


def broken_notes(value: dict[str, dict[str, float]]) -> list[str]:
    """Every interaction note the counts contradict."""
    knn, served = value["knn_stream"], value["served_mix"]
    notes = [
        ("range_stream never recomputes",
         value["range_stream"]["maintainers.full_recomputes"] == 0),
        # The rewritten note: ikNNQ members move and are re-ranked from
        # stored distances; a refill is the rare exception.
        ("knn_stream refines moved band members",
         knn["maintainers.pairs_refined"] > 0),
        ("knn_stream does not recompute per drifting member",
         knn["maintainers.full_recomputes"] <= 1),
        ("oneshot_mix does no monitor work",
         value["oneshot_mix"]["monitor.pairs_evaluated"] == 0),
        ("oneshot_mix runs the filter phase",
         value["oneshot_mix"]["engine.filtering_s"] > 0),
        # There is one engine: a standing query is served by a
        # QueryMonitor on every workload (the harness's own test still
        # asserts shard.self_s > 0 here; ROADMAP item 1 rewrites it).
        ("served_mix runs no shard layer", served["shard.self_s"] == 0),
        ("served_mix maintains its queries in the monitor",
         served["monitor.self_s"] > 0),
        ("served_mix sends every published delta",
         served["net.records_sent"] == served["serving.deltas_published"]),
        ("served_mix never resyncs", served["net.resyncs"] == 0),
        ("served_mix recovers from its store",
         served["persist.recover_ms"] > 0),
        ("served_mix generator keeps its schedule",
         served["gen.late_ms_p95"] < 5.0),
    ]
    for workload in SINGLE_THREADED:
        for name in (
            "shard.self_s", "net.records_sent", "persist.wal_records"
        ):
            notes.append(
                (f"{workload} leaves {name} at 0", value[workload][name] == 0)
            )
    return [text for text, holds in notes if not holds]


def main() -> int:
    broken = broken_notes(quick_suite())
    for text in broken:
        print(f"broken interaction note: {text}")
    if not broken:
        print("all interaction notes hold")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
