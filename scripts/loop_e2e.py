#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark many times at smoke
size and keep the output of every run that went wrong: the loop that
finds a rare bad run, or bounds how rare it is.

Usage::

    python scripts/loop_e2e.py served_mix --seeds 2013 2014 -n 100 \\
        [--keep benchmarks/out/loop_e2e]

Each run is ``python3 benchmarks/e2e/run.py --quick --workload W
--seed S`` from the repo root, in a fresh interpreter; the harness is
called, never edited.  A run is *bad* when its result object (the last
line of its standard output) is missing, is not ``correct``, or counts
``failed > 0`` operations — or the run exits non-zero.  The whole
standard output of a bad run is written to
``<keep>/<workload>-<seed>-<run>.txt``.  One tally line is printed per
seed; the exit status is 1 when any run was bad.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "e2e" / "run.py"


def one_run(workload: str, seed: int) -> tuple[str | None, str]:
    """Run the workload once; (why the run is bad or None, stdout)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return "no result", done.stdout
    if not result.get("correct"):
        return "not correct", done.stdout
    if result.get("failed", 0) > 0:
        return "failed ops", done.stdout
    if done.returncode != 0:
        return f"exit {done.returncode}", done.stdout
    return None, done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2013])
    parser.add_argument("-n", type=int, default=10, help="runs per seed")
    parser.add_argument(
        "--keep", type=Path, default=ROOT / "benchmarks/out/loop_e2e",
        help="directory the stdout of bad runs is written to",
    )
    args = parser.parse_args(argv)
    any_bad = False
    for seed in args.seeds:
        why_counts: dict[str, int] = {}
        for i in range(1, args.n + 1):
            why, stdout = one_run(args.workload, seed)
            if why is None:
                continue
            why_counts[why] = why_counts.get(why, 0) + 1
            args.keep.mkdir(parents=True, exist_ok=True)
            path = args.keep / f"{args.workload}-{seed}-{i}.txt"
            path.write_text(stdout, encoding="utf-8")
            print(f"  run {i}: {why} -> {path}", flush=True)
        bad = sum(why_counts.values())
        any_bad = any_bad or bad > 0
        detail = ", ".join(f"{n} {why}" for why, n in why_counts.items())
        print(
            f"{args.workload} seed {seed}: {args.n} runs, {bad} bad"
            + (f" ({detail})" if detail else ""),
            flush=True,
        )
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())
