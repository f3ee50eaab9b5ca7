#!/usr/bin/env python3
"""Measure a change against its parent with the repo's benchmark and
write the trajectory file ROADMAP's standing rule asks every perf PR
to commit.

Usage::

    python scripts/bench_trajectory.py <parent-checkout> <child-checkout> \\
        --pr N [--seeds 2013 2014] [--out BENCH_N.json]

Each side is a directory holding a checkout (a ``git clone`` of the
parent commit, the working tree of the change).  Per seed, each side
runs its *own* ``benchmarks/e2e/run.py --seed S --json F`` once — all
four workloads, untraced (the gated end-to-end metrics) and traced
(the per-layer metrics and their exactly repeating counts) — and the
side that goes first alternates from seed to seed.  The output keeps
``BENCH_18.json``'s layout: ``gated`` puts the four ``BENCHMARK.json``
end-to-end metrics of parent and change side by side per seed and
workload, ``traced`` does the same for the per-layer counts of the
traced runs, and ``runs`` holds every ``run.py`` output verbatim.

One run per side and seed is a trajectory point, not an acceptance
test: a claimed gain is judged by the paired runs the choosing-metrics
procedure prescribes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

GATED = ("setup_s", "throughput_per_s", "latency_ms_p50", "peak_rss_mb")
#: Per-layer metrics of the traced runs worth reading side by side:
#: operation counts and ratios of counts (they repeat exactly per seed,
#: so parent and change compare digit for digit) and the span totals
#: of the layers those operations run in (raw seconds, not normalised).
TRACED = (
    "index.range_search_calls",
    "index.range_search_s",
    "index.update_calls",
    "index.update_s",
    "kernel.pack_s",
    "kernel.bounds_s",
    "bounds.object_bounds_calls",
    "bounds.object_bounds_s",
    "expected.refine_calls",
    "maintainers.full_recomputes",
    "maintainers.recompute_s",
    "engine.candidates_per_result",
    "engine.refined_per_result",
)
SIDES = ("parent", "change")


def run_side(checkout: Path, seed: int) -> dict:
    """One full ``run.py`` of ``checkout`` on ``seed``; its JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        done = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py",
                "--seed", str(seed), "--json", str(out),
            ],
            cwd=checkout,
            stdout=subprocess.DEVNULL,
        )
        if not out.exists():
            raise SystemExit(
                f"{checkout}: run.py wrote no results "
                f"(exit status {done.returncode})"
            )
        return json.loads(out.read_text(encoding="utf-8"))


def _pick(run: dict, names: tuple[str, ...]) -> dict:
    result = run["result"]
    row = {name: result["metrics"][name]["value"] for name in names}
    row.update(
        correct=result["correct"],
        failed=result["failed"],
        attempted=result["attempted"],
    )
    return row


def summarise(per_side: dict[str, dict], trace: int, names) -> dict:
    """``{workload: {side: {metric: value}}}`` over the runs taken with
    ``--trace trace``."""
    table: dict[str, dict] = {}
    for side in SIDES:
        for run in per_side[side]["runs"]:
            if run["trace"] == trace and run["status"] == 0:
                table.setdefault(run["workload"], {})[side] = _pick(
                    run, names
                )
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("child", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[2013, 2014])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or Path(f"BENCH_{args.pr}.json")
    checkouts = {"parent": args.parent, "change": args.child}

    order_log = []
    gated, traced, runs = {}, {}, {}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        per_side = {}
        for side in order:
            print(f"seed {seed}: {side} ...", flush=True)
            per_side[side] = run_side(checkouts[side], seed)
            order_log.append(f"{side}@{seed}")
        key = f"seed_{seed}"
        runs[key] = {side: per_side[side] for side in SIDES}
        gated[key] = summarise(per_side, 0, GATED)
        traced[key] = summarise(per_side, 1, TRACED)

    out.write_text(
        json.dumps(
            {
                "pr": args.pr,
                "command": (
                    "python3 benchmarks/e2e/run.py --seed <seed> "
                    "--json <file>"
                ),
                "note": (
                    "One full run per side and seed (run.py's own --json "
                    "output, verbatim, under 'runs'), in the order "
                    + " ".join(order_log)
                    + ". 'gated' lists the four BENCHMARK.json end-to-end "
                    "metrics of the untraced runs side by side; 'traced' "
                    "the per-layer counts and span totals of the --trace 1 "
                    "runs. A side measured from an uncommitted working "
                    "tree reports the git_sha of the commit beneath it. "
                    "Written by scripts/bench_trajectory.py."
                ),
                "gated": gated,
                "traced": traced,
                "runs": runs,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    for key, table in gated.items():
        for workload, sides in table.items():
            for name in GATED:
                a = sides.get("parent", {}).get(name)
                b = sides.get("change", {}).get(name)
                print(f"{key} {workload:13s} {name:17s} {a} -> {b}")
    print(f"wrote {out}")
    wrong = [
        f"{key}/{workload}/{side}"
        for key, table in gated.items()
        for workload, sides in table.items()
        for side, row in sides.items()
        if not row["correct"] or row["failed"]
    ]
    if wrong:
        print("wrong or failed operations in: " + ", ".join(wrong))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
