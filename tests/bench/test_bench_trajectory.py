"""The memory ratchet of ``scripts/bench_trajectory.py``: every
``rss_since_baseline`` row gets a verdict against the budget, the
script prints them, and one row over budget makes it exit 1."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(side, rss):
    """A ``gated`` table: ``rss[seed][workload]`` on one side."""
    return {
        f"seed_{seed}": {
            workload: {side: {"peak_rss_mb": value}}
            for workload, value in row.items()
        }
        for seed, row in rss.items()
    }


class TestRssVerdict:
    def test_rows_over_the_budget_and_within_it(self, trajectory):
        side = trajectory.RSS_BASELINE_SIDE
        gated = _baseline(
            side,
            {
                2013: {"a": 60.0, "b": 60.0, "c": 70.0},
                2014: {"a": 60.0, "b": 62.0, "c": 70.0},
            },
        )
        readings = {
            # Exactly at the budget: not over it.
            ("a", "peak_rss_mb"): [(0.0, 60.0 * 1.05)],
            # Median 64.3 against a median baseline of 61.0.
            ("b", "peak_rss_mb"): [(0.0, 64.2), (0.0, 64.3), (0.0, 64.4)],
            ("c", "peak_rss_mb"): [(0.0, 50.0), (0.0, 90.0), (0.0, 51.0)],
            ("c", "latency_ms_p50"): [(1.0, 9.0)],
        }
        table = trajectory.rss_since(gated, readings)
        assert set(table) == {"a", "b", "c"}
        assert table["a"]["ratio"] == trajectory.RSS_BUDGET == 1.05
        assert table["b"]["baseline"] == 61.0
        assert table["b"]["change"] == 64.3
        assert {w: row["verdict"] for w, row in table.items()} == {
            "a": "within_budget",
            "b": "over_budget",
            "c": "within_budget",
        }


def _run(workload, rss):
    metrics = {
        "setup_s": 1.0,
        "throughput_per_s": 100.0,
        "latency_ms_p50": 2.0,
        "peak_rss_mb": rss,
    }
    return {
        "workload": workload,
        "trace": 0,
        "status": 0,
        "result": {
            "correct": True,
            "failed": 0,
            "attempted": 10,
            "metrics": {k: {"value": v} for k, v in metrics.items()},
        },
    }


@pytest.mark.parametrize("rss, status", [(63.0, 0), (63.5, 1)])
def test_the_script_exits_1_over_budget(
    trajectory, monkeypatch, tmp_path, capsys, rss, status
):
    child = tmp_path / "child"
    child.mkdir()
    (child / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    gated = _baseline(
        trajectory.RSS_BASELINE_SIDE, {2013: {"w": 60.0}, 2014: {"w": 60.0}}
    )
    (child / trajectory.RSS_BASELINE).write_text(
        json.dumps({"gated": gated}), encoding="utf-8"
    )

    def run_side(checkout, seed, traced=True):
        return {"runs": [_run("w", rss if checkout == child else 60.0)]}

    monkeypatch.setattr(trajectory, "run_side", run_side)
    out = tmp_path / "BENCH_0.json"
    got = trajectory.main(
        [str(tmp_path / "parent"), str(child), "--pr", "0",
         "--out", str(out)]
    )
    assert got == status
    verdict = ("within_budget", "over_budget")[status]
    assert f"(x{rss / 60.0:.3f}): {verdict}" in capsys.readouterr().out
    written = json.loads(out.read_text(encoding="utf-8"))
    row = written["rss_since_baseline"]["peak_rss_mb"]["w"]
    assert row["verdict"] == verdict
