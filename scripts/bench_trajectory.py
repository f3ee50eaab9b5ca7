#!/usr/bin/env python3
"""Measure a change against its parent with the repo's benchmark and
write the trajectory file ROADMAP's standing rule asks every perf PR
to commit.

Usage::

    python scripts/bench_trajectory.py <parent-checkout> <child-checkout> \\
        --pr N [--seeds 2013 2014] [--pairs P] [--out BENCH_N.json]

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
test.  ``--pairs P`` (default 1) takes ``P`` parent/change pairs per
seed instead — the first as above, the others untraced only, the side
that goes first alternating from pair to pair — and adds ``paired``:
per workload and gated metric every pair's two readings, each side's
median and quartiles, the pairs the change won, and a verdict by the
choosing-metrics rule (``better``: at least nine tenths of the pairs
won and the medians apart by more than the parent's interquartile
range; else ``worse`` when the change's median is beyond the
``BENCHMARK.json`` bound of the parent's, ``unresolved`` when the
parent's own spread exceeds that bound, ``within_bound`` otherwise).
Ten pairs in all (``--pairs 5`` on two seeds) is what a claimed gain
is judged on.

``peak_rss_mb`` is bounded against a PR's own parent, so it can creep
from PR to PR without any one of them failing.  ``rss_since_baseline``
therefore also sets the change's median reading, per workload, against
one column of an earlier trajectory file in the child checkout
(:data:`RSS_BASELINE`, :data:`RSS_BASELINE_SIDE`; the file is read
before the first run starts) and gives each row a verdict: above
:data:`RSS_BUDGET` times the baseline it is ``over_budget``, else
``within_budget``.  The verdicts are printed, and any row over budget
makes the script exit 1 — the memory ratchet: whatever resident set a
change adds stays on the books until a later change gives it back.
"""

from __future__ import annotations

import argparse
import json
import statistics
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
#: The trajectory file, in the child checkout, and the side of its
#: ``gated`` table that ``rss_since_baseline`` is read against (ROADMAP
#: standing rule): the footprint once the index stopped keeping a
#: second copy of its object -> units table.  Until then the baseline
#: was ``BENCH_18.json``'s ``parent`` column, the footprint before the
#: block kernel and the columnar table.
RSS_BASELINE = "BENCH_32.json"
RSS_BASELINE_SIDE = "change"
#: A change whose median ``peak_rss_mb`` exceeds the baseline's by more
#: than this factor is over budget.
RSS_BUDGET = 1.05


def run_side(checkout: Path, seed: int, traced: bool = True) -> dict:
    """One ``run.py`` of ``checkout`` on ``seed`` — every workload
    untraced, and traced too unless ``traced`` is false; its JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        done = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py",
                "--seed", str(seed), "--json", str(out),
                *(() if traced else ("--trace", "0")),
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


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """One metric on one workload over ``(parent, change)`` pairs."""
    parent = _quartiles([a for a, _ in pairs])
    change = _quartiles([b for _, b in pairs])
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (b - a) > 0 for a, b in pairs)
    lost = sum(sign * (b - a) < 0 for a, b in pairs)
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    if won >= 0.9 * len(pairs) and gain > iqr:
        verdict = "better"
    elif -gain > bound * parent["median"]:
        verdict = "worse"
    elif iqr > bound * parent["median"]:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        "pairs": [list(pair) for pair in pairs],
        "parent": parent,
        "change": change,
        "parent_iqr": iqr,
        "median_ratio": change["median"] / parent["median"],
        "won": won,
        "lost": lost,
        "verdict": verdict,
    }


def rss_since(gated: dict, readings: dict) -> dict:
    """Per workload: the median ``peak_rss_mb`` of the
    :data:`RSS_BASELINE_SIDE` side of the baseline trajectory file's
    ``gated`` table (over its seeds), the median of this run's change
    side, their ratio and its verdict against :data:`RSS_BUDGET`."""
    table = {}
    for (workload, name), pairs in readings.items():
        if name != "peak_rss_mb":
            continue
        then = statistics.median(
            seed[workload][RSS_BASELINE_SIDE][name]
            for seed in gated.values()
        )
        now = statistics.median(change for _, change in pairs)
        ratio = now / then
        table[workload] = {
            "baseline": then,
            "change": now,
            "ratio": ratio,
            "verdict": (
                "over_budget" if ratio > RSS_BUDGET else "within_budget"
            ),
        }
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("child", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[2013, 2014])
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or Path(f"BENCH_{args.pr}.json")
    checkouts = {"parent": args.parent, "change": args.child}
    # Read before the runs: a missing file must not cost the measurement.
    then = (args.child / RSS_BASELINE).read_text(encoding="utf-8")
    baseline = json.loads(then)["gated"]

    order_log = []
    gated, traced, runs = {}, {}, {}
    #: (workload, metric) -> [(parent, change), ...] over every pair.
    readings: dict[tuple[str, str], list[tuple[float, float]]] = {}
    wrong = []
    for i, (seed, pair) in enumerate(
        (seed, pair) for seed in args.seeds for pair in range(args.pairs)
    ):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        per_side = {}
        for side in order:
            print(f"seed {seed} pair {pair}: {side} ...", flush=True)
            per_side[side] = run_side(checkouts[side], seed, pair == 0)
            order_log.append(f"{side}@{seed}")
        table = summarise(per_side, 0, GATED)
        for workload, sides in table.items():
            for side, row in sides.items():
                if not row["correct"] or row["failed"]:
                    wrong.append(f"seed_{seed}#{pair}/{workload}/{side}")
            if len(sides) == 2:
                for name in GATED:
                    readings.setdefault((workload, name), []).append(
                        (sides["parent"][name], sides["change"][name])
                    )
        if pair == 0:
            key = f"seed_{seed}"
            runs[key] = {side: per_side[side] for side in SIDES}
            gated[key] = table
            traced[key] = summarise(per_side, 1, TRACED)

    declared = json.loads(
        (args.child / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    rule = {m["name"]: m for m in declared["end_to_end"]}
    paired: dict[str, dict] = {}
    if args.pairs > 1:
        for (workload, name), pairs in readings.items():
            paired.setdefault(workload, {})[name] = judge(
                pairs, rule[name]["better"], rule[name]["bound"]
            )

    since = rss_since(baseline, readings)
    out.write_text(
        json.dumps(
            {
                "pr": args.pr,
                "command": (
                    "python3 benchmarks/e2e/run.py --seed <seed> "
                    "--json <file>"
                ),
                "note": (
                    f"{args.pairs} parent/change pair(s) per seed, in the "
                    "order " + " ".join(order_log)
                    + ". The first pair of a seed is one full run per side "
                    "(run.py's own --json output, verbatim, under 'runs'): "
                    "'gated' lists the four BENCHMARK.json end-to-end "
                    "metrics of its untraced runs side by side, 'traced' "
                    "the per-layer counts and span totals of its --trace 1 "
                    "runs. Further pairs are untraced only and appear, "
                    "with the first, under 'paired': every pair's "
                    "[parent, change] readings, each side's quartiles, "
                    "the pairs the change won or lost and the "
                    "choosing-metrics verdict. 'rss_since_baseline' sets "
                    "the change's median peak_rss_mb against one column "
                    "of an earlier trajectory file, over budget above "
                    "the factor it names. A side "
                    "measured from an uncommitted working tree reports "
                    "the git_sha of the "
                    "commit beneath it. Written by "
                    "scripts/bench_trajectory.py."
                ),
                "gated": gated,
                "traced": traced,
                "paired": paired,
                "rss_since_baseline": {
                    "file": RSS_BASELINE,
                    "side": RSS_BASELINE_SIDE,
                    "budget": RSS_BUDGET,
                    "peak_rss_mb": since,
                },
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
    for workload, metrics in paired.items():
        for name, row in metrics.items():
            print(
                f"paired {workload:13s} {name:17s} "
                f"{row['parent']['median']:.4g} -> "
                f"{row['change']['median']:.4g} "
                f"(x{row['median_ratio']:.3f}, parent IQR "
                f"{row['parent_iqr']:.3g}, won {row['won']} lost "
                f"{row['lost']} of {len(row['pairs'])}): {row['verdict']}"
            )
    for workload, row in since.items():
        print(
            f"since {RSS_BASELINE} {RSS_BASELINE_SIDE} {workload:13s} "
            f"peak_rss_mb {row['baseline']:.4g} -> {row['change']:.4g} "
            f"(x{row['ratio']:.3f}): {row['verdict']}"
        )
    print(f"wrote {out}")
    status = 0
    if wrong:
        print("wrong or failed operations in: " + ", ".join(wrong))
        status = 1
    over = [w for w, row in since.items() if row["verdict"] == "over_budget"]
    if over:
        print(
            f"peak_rss_mb over x{RSS_BUDGET} of {RSS_BASELINE} "
            f"{RSS_BASELINE_SIDE} in: " + ", ".join(over)
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
