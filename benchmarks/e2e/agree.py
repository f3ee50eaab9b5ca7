"""A/A agreement: does the benchmark repeat within its own bounds?

Two sets of runs of the *same* code must agree, or no later
before/after comparison means anything.  This runs the acceptance
procedure the benchmark is held to::

    python3 benchmarks/e2e/agree.py                    # 2 x 10 runs
    python3 benchmarks/e2e/agree.py --runs 4 --seconds 8 --save out/aa
    python3 benchmarks/e2e/agree.py --json a.json b.json

Each set runs every workload ``--runs`` times, each time with another
seed, plus one traced run.  For every end-to-end metric of every
workload it then checks, against the bound in ``BENCHMARK.json``:

* the *spread* of each set — distance between the first and third
  quartile of its values, as a share of their median — stays within
  the bound (``setup_s`` excepted);
* the second set's median is not *worse* than the first's by more than
  the bound;
* the traced runs' exact counts are identical.

``--json`` compares two files written by ``run.py --json`` (or by
``--save`` here) instead of running anything; a file holding one run
per workload has no spread, so only the other checks apply.  Exits 1
when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import BENCHMARK_JSON, environment, parse_output, run_worker

#: Counts that must repeat exactly between two traced runs of one seed:
#: each is fixed by the seeded operation sequence, not by timing.
EXACT_COUNTS = (
    "monitor.pairs_evaluated",
    "maintainers.full_recomputes",
    "monitor.deltas_emitted",
    "net.records_sent",
    "persist.wal_records",
)


def run_set(
    workloads: list[str], runs: int, seconds: float, seed0: int
) -> dict:
    """One set: ``runs`` untraced runs per workload on consecutive
    seeds, then one traced run on the first seed.  Same layout as
    ``run.py --json``."""
    records = []
    for workload in workloads:
        plan = [(seed0 + k, 0) for k in range(runs)] + [(seed0, 1)]
        for seed, trace in plan:
            status, stdout = run_worker(
                workload, seed, seconds, trace, quick=False
            )
            result, report = parse_output(stdout)
            print(
                f"  {workload} seed={seed} trace={trace} "
                f"status={status}",
                flush=True,
            )
            records.append(
                {"workload": workload, "trace": trace, "status": status,
                 "result": result, "report": report}
            )
    return {"environment": environment(), "runs": records}


def values_of(doc: dict, trace: int) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over a set's runs of one mode."""
    out: dict[str, dict[str, list[float]]] = {}
    for record in doc["runs"]:
        if record["trace"] != trace or not record["result"]:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, cell in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(cell["value"])
    return out


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None when the
    set is too small to have quartiles)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(first: dict, second: dict, declared: dict) -> int:
    """Print one row per (workload, metric); return the failure count."""
    a, b = values_of(first, 0), values_of(second, 0)
    failures = 0
    print(
        f"{'workload':14s}{'metric':18s}{'median A':>12s}{'median B':>12s}"
        f"{'worse by':>10s}{'spread A':>10s}{'spread B':>10s}"
        f"{'bound':>7s}  verdict"
    )
    for workload in a:
        for m in declared["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = a[workload][name]
            vb = b.get(workload, {}).get(name)
            if not vb:
                print(f"{workload:14s}{name:18s} missing from second set")
                failures += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma
            if m["better"] == "higher":
                worse = -worse
            spreads = [spread(va), spread(vb)]
            bad = worse > bound or (
                name != "setup_s"
                and any(s is not None and s > bound for s in spreads)
            )
            failures += bad
            shown = [
                "      n/a" if s is None else f"{s:10.3f}" for s in spreads
            ]
            print(
                f"{workload:14s}{name:18s}{ma:12.4f}{mb:12.4f}"
                f"{worse:+10.3f}{shown[0]}{shown[1]}{bound:7.2f}  "
                + ("FAIL" if bad else "ok")
            )
    ca, cb = values_of(first, 1), values_of(second, 1)
    for workload in ca:
        for name in EXACT_COUNTS:
            va = ca[workload].get(name, [None])[0]
            vb = cb.get(workload, {}).get(name, [None])[0]
            if va != vb:
                print(f"{workload:14s}{name:18s} count {va} != {vb}  FAIL")
                failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    """Run (or load) two sets and compare them."""
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=float(declared["run_seconds"])
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, nargs=2, metavar="FILE")
    parser.add_argument(
        "--save", metavar="STEM",
        help="write the sets to STEM-A.json and STEM-B.json",
    )
    args = parser.parse_args(argv)
    if args.json:
        first, second = (
            json.loads(p.read_text(encoding="utf-8")) for p in args.json
        )
    else:
        workloads = [w["name"] for w in declared["workloads"]]
        sets = []
        for label in "AB":
            print(f"set {label}:", flush=True)
            sets.append(
                run_set(workloads, args.runs, args.seconds, args.seed)
            )
        first, second = sets
        if args.save is not None:
            for label, doc in zip("AB", sets):
                Path(f"{args.save}-{label}.json").write_text(
                    json.dumps(doc, indent=1)
                )
    failures = compare(first, second, declared)
    print(f"{failures} failing rows")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
