"""Self-test of the benchmark harness (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q`` from the repo root.
Everything goes through ``run.py`` as a user or the driver would: the
``--quick`` smoke size of every workload, determinism of the seeded
operation sequences and of the traced counts, the span file's self-time
identity, and the result-object contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest
from agree import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
#: The single-engine workloads: every span hangs under a driver ``op``
#: span on one thread, so self times must add up to the roots exactly.
SINGLE_THREADED = ("oneshot_mix", "range_stream", "knn_stream")


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """``python run.py <args>`` with captured output."""
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def quick_suite(tmp_path: Path, seed: int, tag: str) -> dict[str, dict]:
    """The traced quick suite; workload -> its run record."""
    out = tmp_path / f"{tag}.json"
    done = run_py(
        "--quick", "--trace", "1", "--seed", str(seed), "--json", str(out)
    )
    assert done.returncode == 0, done.stdout + done.stderr
    runs = json.loads(out.read_text())["runs"]
    return {r["workload"]: r for r in runs}


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict[str, dict]:
    """One traced quick suite on seed 7, timed."""
    tmp = tmp_path_factory.mktemp("e2e")
    t0 = time.monotonic()
    runs = quick_suite(tmp, 7, "first")
    runs["_elapsed"] = time.monotonic() - t0
    runs["_tmp"] = tmp
    return runs


def test_quick_suite_is_quick_and_correct(suite):
    """Every workload at smoke size: under 20 s in total, no failed
    operation, every per-layer metric present under its unit."""
    assert suite["_elapsed"] < 20.0
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for workload in WORKLOADS:
        result = suite[workload]["result"]
        assert result["correct"] is True
        assert result["failed"] == 0, suite[workload]["report"]["notes"]
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == units


def test_layers_touched_only_where_predicted(suite):
    """The interaction notes, as counts: no recompute on the range
    stream, no shard work outside the served workload, no monitor work
    on one-shot queries."""
    value = {
        w: {k: v["value"] for k, v in suite[w]["result"]["metrics"].items()}
        for w in WORKLOADS
    }
    assert value["range_stream"]["maintainers.full_recomputes"] == 0
    assert value["knn_stream"]["maintainers.full_recomputes"] > 0
    assert value["oneshot_mix"]["monitor.pairs_evaluated"] == 0
    assert value["oneshot_mix"]["engine.filtering_s"] > 0
    for workload in SINGLE_THREADED:
        assert value[workload]["shard.self_s"] == 0
        assert value[workload]["net.records_sent"] == 0
        assert value[workload]["persist.wal_records"] == 0
    served = value["served_mix"]
    assert served["shard.self_s"] > 0
    assert served["net.records_sent"] == served["serving.deltas_published"]
    assert served["net.resyncs"] == 0
    assert served["persist.recover_ms"] > 0
    assert served["gen.late_ms_p95"] < 5.0


def test_same_seed_same_sequence_and_counts(suite):
    """Same seed: identical op-sequence digest and identical counts.
    Another seed: another digest."""
    again = quick_suite(suite["_tmp"], 7, "again")
    other = quick_suite(suite["_tmp"], 8, "other")
    for workload in WORKLOADS:
        first = suite[workload]
        assert again[workload]["report"]["digest"] == (
            first["report"]["digest"]
        )
        assert other[workload]["report"]["digest"] != (
            first["report"]["digest"]
        )
        for name in EXACT_COUNTS:
            assert (
                again[workload]["result"]["metrics"][name]
                == first["result"]["metrics"][name]
            ), (workload, name)


@pytest.mark.parametrize("workload", SINGLE_THREADED)
def test_self_times_sum_to_root_spans(suite, workload):
    """Self time is duration minus children, so over the tree under
    the driver's ``op`` spans it adds up to their durations."""
    spans = [
        json.loads(line)
        for line in (HERE / "out" / f"trace_{workload}.jsonl")
        .read_text()
        .splitlines()
    ]
    assert spans
    by_id = {s["id"]: s for s in spans}
    self_by_root: dict[int, int] = defaultdict(int)
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        root = span
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        assert root["name"] == "op"
        self_by_root[root["id"]] += span["self_ns"]
    roots = [s for s in spans if s["parent"] is None]
    total = sum(s["end_ns"] - s["start_ns"] for s in roots)
    assert sum(self_by_root.values()) == pytest.approx(total, rel=0.01)


def test_result_object_contract():
    """An untraced run ends with the result object: exactly the four
    keys, every end-to-end metric, none of them zero."""
    done = run_py(
        "--workload", "oneshot_mix", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--quick",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {
        k: v["unit"] for k, v in result["metrics"].items()
    } == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks/e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_py(
        "--workload", "oneshot_mix", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_no_store_directory_left_behind(suite):
    """The served workload removes its temporary checkpoint stores."""
    assert not list((HERE / "out").glob("store-*"))
