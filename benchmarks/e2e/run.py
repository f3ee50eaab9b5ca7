"""The repo's performance benchmark: one command, four workloads.

Usage (from the repo root)::

    python3 benchmarks/e2e/run.py                      # everything
    python3 benchmarks/e2e/run.py --workload knn_stream --seed 2014
    python3 benchmarks/e2e/run.py --trace 1 --json out.json

Each workload runs in its own fresh interpreter (``worker.py``), one
after the other, with ``src/`` on its ``PYTHONPATH``.  ``--trace 0``
gives the gated end-to-end metrics, ``--trace 1`` the per-layer metrics
plus ``out/trace_<workload>.jsonl``; without ``--workload`` the default
is both.  With ``--workload`` the last line of standard output is the
result object of that one run.  The exit status is non-zero when any
workload produced a wrong output.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: ``--quick`` window, seconds: a smoke size for the self-test.
QUICK_SECONDS = 1.5


def environment() -> dict[str, object]:
    """Where the numbers were taken: cores, load, versions, commit."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
    }


def run_worker(
    workload: str, seed: int, seconds: float, trace: int, quick: bool
) -> tuple[int, str]:
    """One workload in a fresh interpreter; (exit status, its stdout)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    return done.returncode, done.stdout


def parse_output(stdout: str) -> tuple[dict | None, dict | None]:
    """(result object, report) from a worker's standard output."""
    result = report = None
    lines = stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines:
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
    return result, report


def main(argv: list[str] | None = None) -> int:
    """Run the chosen workloads; print their metrics."""
    if not BENCHMARK_JSON.is_file() or not (ROOT / "src/repro").is_dir():
        print(
            f"{ROOT} holds no BENCHMARK.json + src/repro: the benchmark "
            "runs from a checkout of the repo",
            file=sys.stderr,
        )
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument(
        "--seed", type=int, default=2013,
        help="workload seed (2014 is the held-out seed for claims)",
    )
    parser.add_argument(
        "--seconds", type=float, default=float(declared["run_seconds"]),
        help="measured window per run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--quick", action="store_true",
        help=f"smoke size: {QUICK_SECONDS} s windows, one set-up",
    )
    parser.add_argument("--json", type=Path, help="write all results here")
    args = parser.parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else args.seconds

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    if args.workload is not None:
        status, stdout = run_worker(
            args.workload, args.seed, seconds, args.trace or 0, args.quick
        )
        sys.stdout.write(stdout)
        return status

    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    worst = 0
    for workload in workloads:
        for trace in traces:
            status, stdout = run_worker(
                workload, args.seed, seconds, trace, args.quick
            )
            result, report = parse_output(stdout)
            # The result object is for machines; show the rest.
            shown = stdout.strip().splitlines()
            print("\n".join(shown[:-1] if result else shown))
            worst = max(worst, status, 0 if result else 1)
            runs.append(
                {"workload": workload, "trace": trace, "status": status,
                 "result": result, "report": report}
            )
    failed = sum(r["result"]["failed"] for r in runs if r["result"])
    print(f"\n{len(runs)} runs, {failed} failed operations, "
          f"exit status {worst}")
    if args.json is not None:
        args.json.write_text(
            json.dumps({"environment": env, "runs": runs}, indent=1)
        )
    return worst


if __name__ == "__main__":
    sys.exit(main())
